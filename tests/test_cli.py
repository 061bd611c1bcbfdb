import json
import os

import numpy as np
import pytest

from polarfact import cli, io
from polarfact.cli import main
from polarfact.errors import SplitAtomError
from polarfact.measures import DiscreteMeasure, SampledMap
from polarfact.polar import DEFAULT_TOL


def write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def measure_doc(weights, coords=None, prefix="y"):
    pts = []
    for k, w in enumerate(weights):
        pts.append(
            {
                "label": f"{prefix}{k}",
                "coords": None if coords is None else list(coords[k]),
                "weight": w,
            }
        )
    dim = "abstract" if coords is None else len(coords[0])
    return {"dimension": dim, "points": pts}


@pytest.fixture
def paired_instance(tmp_path):
    """u values are a permutation of the sites: zero-cost matching exists."""
    coords = [[0.0], [1.0], [2.0]]
    y_doc = measure_doc([1 / 4, 1 / 4, 1 / 2], coords)
    u_doc = {
        "measure": measure_doc([1 / 4, 1 / 2, 1 / 4], prefix="x"),
        "values": [[0.0], [2.0], [1.0]],
    }
    u_path = tmp_path / "u.json"
    y_path = tmp_path / "Y.json"
    write(u_path, json.dumps(u_doc))
    write(y_path, json.dumps(y_doc))
    return str(u_path), str(y_path)


class TestSolve:
    def test_zero_cost_instance(self, paired_instance, tmp_path, capsys):
        u_path, y_path = paired_instance
        out = tmp_path / "plan.json"
        code = main(["solve", "--u", u_path, "--Y", y_path, "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["certificate"]["I"] == 0.0
        assert doc["certificate"]["gap"] == 0.0
        assert doc["phi"][0] == 0.0

    def test_oracle_flag(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 6
        coords = rng.normal(size=(n, 2)).tolist()
        y_doc = measure_doc([1 / n] * n, coords)
        u_doc = {
            "measure": measure_doc([1 / n] * n, prefix="x"),
            "values": rng.normal(size=(n, 2)).tolist(),
        }
        u_path, y_path = tmp_path / "u.json", tmp_path / "Y.json"
        write(u_path, json.dumps(u_doc))
        write(y_path, json.dumps(y_doc))
        assert main(["solve", "--u", str(u_path), "--Y", str(y_path), "--oracle"]) == 0

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "u.json"
        write(bad, '{"measure": ')
        code = main(["solve", "--u", str(bad), "--Y", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_validation_failure_exits_2(self, tmp_path):
        y_doc = measure_doc([0.5, -0.5], [[0.0], [1.0]])
        u_doc = {"measure": measure_doc([0.5, 0.5], prefix="x"), "values": [[0.0], [1.0]]}
        u_path, y_path = tmp_path / "u.json", tmp_path / "Y.json"
        write(u_path, json.dumps(u_doc))
        write(y_path, json.dumps(y_doc))
        assert main(["solve", "--u", str(u_path), "--Y", str(y_path)]) == 2

    def test_csv_measure_import(self, tmp_path):
        u_doc = {
            "measure": measure_doc([0.5, 0.5], prefix="x"),
            "values": [[0.0], [1.0]],
        }
        u_path = tmp_path / "u.json"
        write(u_path, json.dumps(u_doc))
        y_path = tmp_path / "Y.csv"
        write(y_path, "label,coord_1,weight\ny0,0.0,0.5\ny1,1.0,0.5\n")
        out = tmp_path / "plan.json"
        assert main(["solve", "--u", str(u_path), "--Y", str(y_path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["certificate"]["I"] == 0.0

    def test_byte_identical_reruns(self, paired_instance, tmp_path):
        u_path, y_path = paired_instance
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["solve", "--u", u_path, "--Y", y_path, "--out", str(out1)])
        main(["solve", "--u", u_path, "--Y", y_path, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestFactorize:
    def test_identity_instance(self, tmp_path):
        coords = [[0.0], [1.0]]
        y_doc = measure_doc([0.5, 0.5], coords)
        u_doc = {"measure": measure_doc([0.5, 0.5], prefix="x"), "values": coords}
        u_path, y_path = tmp_path / "u.json", tmp_path / "Y.json"
        write(u_path, json.dumps(u_doc))
        write(y_path, json.dumps(y_doc))
        out = tmp_path / "result.json"
        code = main(["factorize", "--u", str(u_path), "--Y", str(y_path), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["classification"] == "Factorisation"
        assert doc["factor_map"] == {"x0": "y0", "x1": "y1"}

    def test_split_forcing_exits_10(self, tmp_path):
        y_doc = measure_doc([1 / 3, 1 / 3, 1 / 3], [[0.0], [1.0], [2.0]])
        u_doc = {
            "measure": {
                "dimension": "abstract",
                "points": [
                    {"label": "x0", "coords": None, "weight": 1 / 3},
                    {"label": "x1", "coords": None, "weight": 2 / 3},
                ],
            },
            "values": [[0.0], [2.0]],
        }
        u_path, y_path = tmp_path / "u.json", tmp_path / "Y.json"
        write(u_path, json.dumps(u_doc))
        write(y_path, json.dumps(y_doc))
        out = tmp_path / "result.json"
        code = main(["factorize", "--u", str(u_path), "--Y", str(y_path), "--out", str(out)])
        assert code == 10
        doc = json.loads(out.read_text())
        assert doc["classification"] == "InclusionOnly"
        assert doc["max_gap"] <= 1e-8

    def test_gallery_file_roundtrip(self, tmp_path):
        gdir = tmp_path / "g"
        assert main(["gallery", "--name", "injective-control", "--grid", "4",
                     "--out", str(gdir)]) == 0
        code = main(["factorize", "--u", str(gdir / "u.json"), "--Y", str(gdir / "Y.json"),
                     "--out", str(tmp_path / "r.json")])
        assert code == 0


class TestRearrange:
    def _v_files(self, tmp_path):
        u_doc = {
            "measure": measure_doc([0.5, 0.5], prefix="p"),
            "values": [[0.0], [1.0]],
        }
        u_path = tmp_path / "v.json"
        write(u_path, json.dumps(u_doc))
        return str(u_path)

    def test_m1_identity(self, tmp_path):
        u_path = self._v_files(tmp_path)
        out = tmp_path / "out.json"
        assert main(["rearrange", "--u", u_path, "--m", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["report"]["m_to_1"] == 1

    def test_m2_counts(self, tmp_path):
        u_path = self._v_files(tmp_path)
        out = tmp_path / "out.json"
        assert main(["rearrange", "--u", u_path, "--m", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["report"]["m_to_1"] == 2
        assert all(row["point_count"] == 2 for row in doc["report"]["atoms"])
        labels = [p["label"] for p in doc["map"]["measure"]["points"]]
        assert labels == ["p0#1", "p1#1", "p0#2", "p1#2"]

    def test_heavy_preserved_m3(self, tmp_path):
        u_doc = {
            "measure": measure_doc([0.25, 0.25, 0.25, 0.25], prefix="p"),
            "values": [[5.0], [5.0], [1.0], [2.0]],
        }
        u_path = tmp_path / "v.json"
        write(u_path, json.dumps(u_doc))
        heavy_path = tmp_path / "heavy.json"
        write(heavy_path, json.dumps({"match_tolerance": 0.0, "values": [[5.0]]}))
        out = tmp_path / "out.json"
        code = main(["rearrange", "--u", str(u_path), "--m", "3",
                     "--heavy", str(heavy_path), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        heavy_rows = [r for r in doc["report"]["atoms"] if r["heavy"]]
        assert len(heavy_rows) == 1
        assert heavy_rows[0]["mass"] == pytest.approx(0.5)
        light_rows = [r for r in doc["report"]["atoms"] if not r["heavy"]]
        assert all(r["point_count"] == 3 for r in light_rows)

    def test_unknown_heavy_exits_2(self, tmp_path):
        u_path = self._v_files(tmp_path)
        heavy_path = tmp_path / "heavy.json"
        write(heavy_path, json.dumps({"match_tolerance": 0.0, "values": [[9.0]]}))
        assert main(["rearrange", "--u", u_path, "--m", "2", "--heavy", str(heavy_path)]) == 2


class TestMonotone:
    def test_sorting_instance(self, tmp_path):
        u_doc = {
            "measure": measure_doc([0.5, 0.5], prefix="x"),
            "values": [[2.0], [1.0]],
        }
        y_doc = measure_doc([0.5, 0.5], [[0.0], [1.0]])
        u_path, y_path = tmp_path / "u.json", tmp_path / "Y.json"
        write(u_path, json.dumps(u_doc))
        write(y_path, json.dumps(y_doc))
        out = tmp_path / "m.json"
        assert main(["monotone", "--u", str(u_path), "--Y", str(y_path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["map"]["values"] == [[1.0], [2.0]]
        assert doc["max_gap"] <= 1e-8

    def test_split_exits_10_then_refine_passes(self, tmp_path):
        u_doc = {
            "measure": measure_doc([0.5, 0.5], prefix="x"),
            "values": [[0.0], [1.0]],
        }
        y_doc = measure_doc([1 / 3, 1 / 3, 1 / 3], [[0.0], [0.5], [1.0]])
        u_path, y_path = tmp_path / "u.json", tmp_path / "Y.json"
        write(u_path, json.dumps(u_doc))
        write(y_path, json.dumps(y_doc))
        assert main(["monotone", "--u", str(u_path), "--Y", str(y_path)]) == 10
        out = tmp_path / "m.json"
        assert main(["monotone", "--u", str(u_path), "--Y", str(y_path),
                     "--refine-split", "--out", str(out)]) == 0

    def test_split_atom_subclass_exits_10(self, tmp_path, monkeypatch):
        class CustomSplit(SplitAtomError):
            pass

        def raise_split(*args, **kwargs):
            raise CustomSplit("site y0 takes two values")

        monkeypatch.setattr(cli, "monotone_rearrangement", raise_split)
        u_doc = {"measure": measure_doc([0.5, 0.5], prefix="x"), "values": [[0.0], [1.0]]}
        y_doc = measure_doc([0.5, 0.5], [[0.0], [1.0]])
        u_path, y_path = tmp_path / "u.json", tmp_path / "Y.json"
        write(u_path, json.dumps(u_doc))
        write(y_path, json.dumps(y_doc))
        assert main(["monotone", "--u", str(u_path), "--Y", str(y_path)]) == 10


class TestGallery:
    def test_writes_files_and_report(self, tmp_path):
        gdir = tmp_path / "flat"
        code = main(["gallery", "--name", "flat-segment", "--grid", "8", "--out", str(gdir)])
        assert code == 0
        for name in ("u.json", "Y.json", "heavy.json", "report.json"):
            assert (gdir / name).exists()
        report = json.loads((gdir / "report.json").read_text())
        assert report["split_index"] <= report["degeneracy_index"] + 1e-12
        counts = [row["point_count"] for row in report["multiplicity"]["atoms"]]
        assert counts == [4] * 16

    def test_injective_control_degeneracy_zero(self, tmp_path):
        gdir = tmp_path / "inj"
        assert main(["gallery", "--name", "injective-control", "--grid", "8",
                     "--out", str(gdir)]) == 0
        report = json.loads((gdir / "report.json").read_text())
        assert report["classification"] == "Factorisation"
        assert report["degeneracy_index"] == 0.0

    def test_unknown_name_exits_2(self):
        assert main(["gallery", "--name", "nope", "--grid", "8"]) == 2

    def test_odd_grid_exits_2(self):
        assert main(["gallery", "--name", "flat-segment", "--grid", "7"]) == 2


class TestVerify:
    def _solved_files(self, tmp_path):
        rng = np.random.default_rng(4)
        n = 5
        coords = rng.normal(size=(n, 1)).tolist()
        y_doc = measure_doc([1 / n] * n, coords)
        u_doc = {
            "measure": measure_doc([1 / n] * n, prefix="x"),
            "values": rng.normal(size=(n, 1)).tolist(),
        }
        u_path, y_path = tmp_path / "u.json", tmp_path / "Y.json"
        write(u_path, json.dumps(u_doc))
        write(y_path, json.dumps(y_doc))
        result = tmp_path / "result.json"
        code = main(["factorize", "--u", str(u_path), "--Y", str(y_path), "--out", str(result)])
        assert code in (0, 10)
        return str(u_path), str(y_path), str(result)

    def test_roundtrip_reverifies(self, tmp_path):
        u_path, y_path, result = self._solved_files(tmp_path)
        code = main(["verify", "--u", u_path, "--Y", y_path,
                     "--plan", result, "--psi", result])
        assert code == 0

    def test_perturbed_psi_exits_4(self, tmp_path, capsys):
        u_path, y_path, result = self._solved_files(tmp_path)
        doc = json.loads(open(result).read())
        psi = doc["psi"]
        psi[0] += 0.1
        psi_path = tmp_path / "psi.json"
        write(psi_path, json.dumps(psi))
        code = main(["verify", "--u", u_path, "--Y", y_path,
                     "--plan", result, "--psi", str(psi_path)])
        assert code == 4

    def test_shuffled_plan_fails(self, tmp_path):
        u_path, y_path, result = self._solved_files(tmp_path)
        doc = json.loads(open(result).read())
        trip = doc["plan"]["triplets"]
        cols = [t["j"] for t in trip]
        rolled = cols[1:] + cols[:1]
        for t, j in zip(trip, rolled):
            t["j"] = j
        plan_path = tmp_path / "shuffled.json"
        write(plan_path, json.dumps({"triplets": trip}))
        code = main(["verify", "--u", u_path, "--Y", y_path,
                     "--plan", str(plan_path), "--psi", result])
        assert code in (2, 4, 5)
        assert code != 0

    def test_env_tolerance_override(self, tmp_path, monkeypatch):
        # duplicated site: raising psi at one copy creates a gap equal to
        # the perturbation, here between the 1e-8 default and the env value
        coords = [[0.5], [0.5], [-1.0]]
        y_doc = measure_doc([1 / 4, 1 / 4, 1 / 2], coords)
        u_doc = {"measure": measure_doc([1 / 4, 1 / 4, 1 / 2], prefix="x"), "values": coords}
        u_path, y_path = tmp_path / "u.json", tmp_path / "Y.json"
        write(u_path, json.dumps(u_doc))
        write(y_path, json.dumps(y_doc))
        psi = [0.5 * c[0] ** 2 for c in coords]
        psi[0] += 1e-4
        psi_path = tmp_path / "psi.json"
        write(psi_path, json.dumps(psi))
        plan_path = tmp_path / "plan.json"
        write(
            plan_path,
            json.dumps(
                {"triplets": [
                    {"i": 0, "j": 0, "mass": 1 / 4},
                    {"i": 1, "j": 1, "mass": 1 / 4},
                    {"i": 2, "j": 2, "mass": 1 / 2},
                ]}
            ),
        )
        args = ["verify", "--u", str(u_path), "--Y", str(y_path),
                "--plan", str(plan_path), "--psi", str(psi_path)]
        # loose env tolerance admits the inclusion (the strict optimality
        # J-check still fails); the default tolerance rejects the inclusion
        monkeypatch.setenv("POLARFACT_TOL", "1e-2")
        assert main(args) == 5
        monkeypatch.delenv("POLARFACT_TOL")
        assert main(args) == 4

    def test_bad_tolerance_exits_2(self, tmp_path):
        u_path, y_path, result = self._solved_files(tmp_path)
        assert main(["verify", "--u", u_path, "--Y", y_path, "--plan", result,
                     "--psi", result, "--tol", "0"]) == 2


class TestValidation:
    @pytest.mark.parametrize(
        "value, message",
        [("nan", "must be finite, got nan"), ("inf", "must be finite, got inf"),
         ("-1", "must be >= 0, got -1.0")],
    )
    @pytest.mark.parametrize("command", ["rearrange", "monotone"])
    def test_bad_cluster_tol_exits_2(self, paired_instance, capsys, command, value, message):
        u_path, y_path = paired_instance
        target = ["--m", "2"] if command == "rearrange" else ["--Y", y_path]
        assert main([command, "--u", u_path, *target, "--cluster-tol", value]) == 2
        assert f"error: cluster tolerance {message}\n" == capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0"])
    def test_non_finite_or_non_positive_tol_exits_2(self, paired_instance, tmp_path, capsys,
                                                     value):
        # an infinite tolerance would pass every gap <= tol check
        u_path, y_path = paired_instance
        out = tmp_path / "result.json"
        code = main(["factorize", "--u", u_path, "--Y", y_path, f"--tol={value}",
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()
        kind = "finite" if value == "inf" else "> 0"
        message = f"error: tolerance must be {kind}, got {float(value)!r}\n"
        assert capsys.readouterr().err == message

    def test_infinite_env_tol_exits_2(self, paired_instance, tmp_path, capsys, monkeypatch):
        # with an infinite tolerance a psi raised at one site would still be
        # written out as a certified inclusion
        u_path, y_path = paired_instance
        result = tmp_path / "result.json"
        assert main(["factorize", "--u", u_path, "--Y", y_path, "--out", str(result)]) == 0
        doc = json.loads(result.read_text())
        doc["psi"][0] += 5.0
        psi_path = tmp_path / "psi.json"
        write(psi_path, json.dumps(doc["psi"]))
        args = ["verify", "--u", u_path, "--Y", y_path, "--plan", str(result),
                "--psi", str(psi_path), "--out", str(tmp_path / "verify.json")]
        assert main(args) == 4
        capsys.readouterr()
        monkeypatch.setenv("POLARFACT_TOL", "inf")
        assert main(args) == 2
        assert capsys.readouterr().err == "error: tolerance must be finite, got inf\n"

    def test_tol_help_names_the_library_default(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"(default {DEFAULT_TOL:g}, env POLARFACT_TOL)" in help_text

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_nan_plan_mass_exits_2(self, paired_instance, tmp_path, capsys, fmt):
        u_path, y_path = paired_instance
        result = tmp_path / "result.json"
        assert main(["factorize", "--u", u_path, "--Y", y_path, "--out", str(result)]) == 0
        doc = json.loads(result.read_text())
        doc["plan"]["triplets"][0]["mass"] = float("nan")
        plan_path = tmp_path / "plan.json"
        write(plan_path, json.dumps(doc["plan"]))
        capsys.readouterr()
        code = main(["verify", "--u", u_path, "--Y", y_path, "--plan", str(plan_path),
                     "--psi", str(result), "--format", fmt])
        assert code == 2
        assert capsys.readouterr().err == "error: plan masses must be finite\n"

    @pytest.mark.parametrize("command", ["solve", "factorize", "monotone"])
    def test_overflowing_cost_exits_2(self, tmp_path, capsys, command):
        # a site at 1e200 squares to inf: bad input, not a certification failure
        u_path, y_path = tmp_path / "u.json", tmp_path / "Y.json"
        write(u_path, json.dumps({"measure": measure_doc([0.5, 0.5], prefix="x"),
                                  "values": [[0.0], [1.0]]}))
        write(y_path, json.dumps(measure_doc([0.5, 0.5], [[0.0], [1e200]])))
        out = tmp_path / "out.json"
        code = main([command, "--u", str(u_path), "--Y", str(y_path), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == "error: non-finite cost entry: coordinates too large to square\n"

    def test_handler_looked_up_at_call_time(self, tmp_path, monkeypatch):
        # the parser is built once; a later rebinding of a handler must
        # still be the function that runs
        assert main(["gallery", "--name", "nope", "--grid", "8"]) == 2
        assert cli._parser() is cli._parser()
        seen = []
        monkeypatch.setattr(cli, "cmd_gallery", lambda args: seen.append(args.name) or 0)
        assert main(["gallery", "--name", "flat-segment", "--grid", "4",
                     "--out", str(tmp_path)]) == 0
        assert seen == ["flat-segment"]
        assert not (tmp_path / "report.json").exists()


class TestFormats:
    def test_csv_and_text_renderings(self, paired_instance, tmp_path):
        u_path, y_path = paired_instance
        csv_out = tmp_path / "plan.csv"
        main(["solve", "--u", u_path, "--Y", y_path, "--format", "csv", "--out", str(csv_out)])
        lines = csv_out.read_text().splitlines()
        assert lines[0] == "i,j,mass"
        assert len(lines) >= 4
        txt_out = tmp_path / "plan.txt"
        main(["solve", "--u", u_path, "--Y", y_path, "--format", "text", "--out", str(txt_out)])
        assert "I = " in txt_out.read_text()

    def test_float_roundtrip_17_digits(self, tmp_path):
        w = 1.0 / 3.0
        doc = {"x": w}
        text = io.dumps(doc)
        assert json.loads(text)["x"] == w
