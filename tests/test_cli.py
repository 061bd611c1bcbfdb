import contextlib
import json
import os

import numpy as np
import pytest

from polarfact import cli, io, polar, transport
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

    def test_infeasible_duals_exit_3(self, paired_instance, capsys, monkeypatch):
        strictify = transport._strictify_duals

        def shifted(*args):
            # x0 and y0 both weigh 1/4, so the dual value stays the same
            alpha, beta = strictify(*args)
            return alpha + [10.0, 0.0, 0.0], beta - [10.0, 0.0, 0.0]

        monkeypatch.setattr(transport, "_strictify_duals", shifted)
        u_path, y_path = paired_instance
        assert main(["solve", "--u", u_path, "--Y", y_path]) == 3
        assert "duals violate a cost constraint" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "text, message",
        [("", "CSV header must be label,coord_1,...,coord_n,weight; got []"),
         ("label,coord_1,weight\ny0,0.5\ny1,1.0,0.5\n", "line 2 has 2 fields, the header has 3")],
        ids=["empty", "short-row"],
    )
    def test_malformed_csv_measure_exits_2(self, tmp_path, capsys, text, message):
        u_path = tmp_path / "u.json"
        write(u_path, json.dumps({"measure": measure_doc([0.5, 0.5], prefix="x"),
                                  "values": [[0.0], [1.0]]}))
        y_path = tmp_path / "Y.csv"
        write(y_path, text)
        assert main(["solve", "--u", str(u_path), "--Y", str(y_path)]) == 2
        assert capsys.readouterr().err == f"error: {y_path}: {message}\n"

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

    @pytest.mark.parametrize("values, rank", [(5.0, 0), ([[[1.0]]], 3)])
    def test_heavy_values_of_wrong_rank_exit_2(self, tmp_path, capsys, values, rank):
        u_path = self._v_files(tmp_path)
        heavy_path = tmp_path / "heavy.json"
        write(heavy_path, json.dumps({"values": values}))
        assert main(["rearrange", "--u", u_path, "--m", "2", "--heavy", str(heavy_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: heavy values must be 1-D or 2-D, got {rank}-D\n"
        )

    @pytest.mark.parametrize(
        "tol, values",
        [(-1.0, [[0.0]]), (float("nan"), [[0.0]]), (-1.0, []), (float("nan"), [])],
        ids=["-1.0", "nan", "-1.0-no-values", "nan-no-values"],
    )
    def test_invalid_match_tolerance_exits_2_naming_it(self, tmp_path, capsys, tol, values):
        # 0.0 is an atom of the map, so the message must blame the tolerance;
        # with no value designated the tolerance is still checked
        u_path = self._v_files(tmp_path)
        heavy_path = tmp_path / "heavy.json"
        write(heavy_path, json.dumps({"match_tolerance": tol, "values": values}))
        assert main(["rearrange", "--u", u_path, "--m", "2", "--heavy", str(heavy_path)]) == 2
        err = capsys.readouterr().err
        assert "match_tolerance" in err
        assert "no atom matches" not in err


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


class TestVerifySolvesOnce:
    """gallery, factorize and verify on one instance make four solve_mk
    calls; verify's two share one simplex computation."""

    @staticmethod
    def run(out_dir):
        u, Y, fac = (str(out_dir / f) for f in ("u.json", "Y.json", "factorize.json"))
        codes = [
            main(["gallery", "--name", "flat-segment", "--grid", "8", "--seed", "3",
                  "--out", str(out_dir)]),
            main(["factorize", "--u", u, "--Y", Y, "--out", fac]),
            main(["verify", "--u", u, "--Y", Y, "--plan", fac, "--psi", fac,
                  "--out", str(out_dir / "verify.json")]),
        ]
        assert codes == [0, 0, 0]
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    def test_four_solves_three_simplex_runs(self, tmp_path, monkeypatch, caplog):
        calls, runs = [], []
        for module in (cli, polar):
            def counted(*args, _solve=module.solve_mk):
                calls.append(1)
                return _solve(*args)

            monkeypatch.setattr(module, "solve_mk", counted)
        simplex = transport._Simplex.solve

        def counted_simplex(self, order=None):
            runs.append(1)
            return simplex(self, order)

        monkeypatch.setattr(transport._Simplex, "solve", counted_simplex)
        with caplog.at_level("DEBUG", logger="polarfact"):
            self.run(tmp_path / "a")
        assert len(calls) == 4 and len(runs) == 3
        lines = [r.getMessage() for r in caplog.records if r.name == "polarfact"]
        assert len(lines) == 4 and all("pivots" in line for line in lines[:3])
        assert lines[3] == "solve_mk 64x64: reused the solution of an identical instance"

    def test_files_match_a_run_that_solves_every_time(self, tmp_path, monkeypatch):
        reused = self.run(tmp_path / "a")
        monkeypatch.setattr(cli, "reusing_solves", contextlib.nullcontext)
        fresh = self.run(tmp_path / "b")
        assert set(reused) == {"u.json", "Y.json", "heavy.json", "report.json",
                               "factorize.json", "verify.json"}
        # the files name no directory, so the two runs must agree byte for byte
        assert reused == fresh


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
        # psi[0] keeps the inclusion while it rises by less than the slack of
        # site 0; with x' sent to y_0, any support pair (x, y_k), k != 0, of an
        # optimal psi bounds that slack by (u(x) - u(x')) (y_k - y_0)
        u, Y = io.read_sampled_map(u_path), io.read_measure(y_path)
        psi[0] += 1.0 + np.ptp(u.values) * np.ptp(Y.coords)
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

    @pytest.mark.parametrize(
        "key, value, message",
        [("i", 5, "row index 5 of triplet 0 is outside [0, 2)"),
         ("i", -1, "row index -1 of triplet 0 is outside [0, 2)"),
         ("j", -1, "column index -1 of triplet 0 is outside [0, 2)"),
         ("i", 1.5, "plan index 'i' must be an integer, got 1.5"),
         ("j", True, "plan index 'j' must be an integer, got True")],
        ids=["row-too-large", "row-negative", "column-negative", "row-fraction", "column-bool"],
    )
    def test_bad_plan_index_exits_2(self, tmp_path, capsys, key, value, message):
        u_path, y_path = tmp_path / "u.json", tmp_path / "Y.json"
        write(u_path, json.dumps({"measure": measure_doc([0.5, 0.5], prefix="x"),
                                  "values": [[0.0], [1.0]]}))
        write(y_path, json.dumps(measure_doc([0.5, 0.5], [[0.0], [1.0]])))
        result = tmp_path / "result.json"
        assert main(["factorize", "--u", str(u_path), "--Y", str(y_path),
                     "--out", str(result)]) == 0
        doc = json.loads(result.read_text())
        doc["plan"]["triplets"][0][key] = value
        plan_path = tmp_path / "plan.json"
        write(plan_path, json.dumps(doc["plan"]))
        capsys.readouterr()
        assert main(["verify", "--u", str(u_path), "--Y", str(y_path),
                     "--plan", str(plan_path), "--psi", str(result)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

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
        code = main(["verify", "--u", u_path, "--Y", y_path, "--plan", y_path, "--psi", y_path,
                     f"--tol={value}", "--out", str(out)])
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
            main(["verify", "--help"])
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


class TestFlags:
    """Each command takes only the flags its handler reads."""

    @pytest.mark.parametrize(
        "command, flag",
        [("solve", ["--seed", "1"]), ("solve", ["--tol", "1e-3"]),
         ("factorize", ["--cluster-tol", "0"]), ("factorize", ["--tol", "1e-3"]),
         ("monotone", ["--tol", "1e-3"]), ("rearrange", ["--seed", "2"]),
         ("gallery", ["--tol", "1e-3"]), ("verify", ["--cluster-tol", "0"])],
    )
    def test_flag_of_another_command_exits_2(self, paired_instance, capsys, command, flag):
        u_path, y_path = paired_instance
        rest = {"rearrange": ["--u", u_path, "--m", "2"],
                "gallery": ["--name", "flat-segment", "--grid", "4"],
                "verify": ["--u", u_path, "--Y", y_path, "--plan", y_path, "--psi", y_path]}
        with pytest.raises(SystemExit) as exc:
            main([command, *rest.get(command, ["--u", u_path, "--Y", y_path]), *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_gallery_takes_seed_and_cluster_tol(self, tmp_path):
        assert main(["gallery", "--name", "injective-control", "--grid", "4", "--seed", "3",
                     "--cluster-tol", "0", "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("command", ["solve", "factorize", "monotone"])
    def test_env_tol_ignored_without_tol_flag(self, paired_instance, monkeypatch, command):
        u_path, y_path = paired_instance
        monkeypatch.setenv("POLARFACT_TOL", "inf")
        assert main([command, "--u", u_path, "--Y", y_path]) == 0


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


class TestJsonNumbers:
    """A number field takes only JSON numbers: a boolean or a numeric
    string there exits 2 rather than being read as a number."""

    COMMANDS = {
        "solve": ["solve", "--u", "{u}", "--Y", "{Y}"],
        "verify": ["verify", "--u", "{u}", "--Y", "{Y}", "--plan", "{plan}", "--psi", "{psi}"],
        "rearrange": ["rearrange", "--u", "{u}", "--m", "1", "--heavy", "{heavy}"],
    }

    @staticmethod
    def one_point_files(tmp_path, key=None, where=(), bad=None):
        """A one-point instance with its plan, psi and heavy atom, every
        field a JSON number except ``bad`` at ``where`` in file ``key``."""
        docs = {
            "u": {"measure": measure_doc([1.0], prefix="x"), "values": [[0.25]]},
            "Y": measure_doc([1.0], [[0.5]]),
            "plan": {"triplets": [{"i": 0, "j": 0, "mass": 1.0}]},
            "psi": [0.0],
            "heavy": {"match_tolerance": 0.0, "values": [[0.25]]},
        }
        if key is not None:
            doc = docs[key]
            for step in where[:-1]:
                doc = doc[step]
            doc[where[-1]] = bad
        paths = {}
        for name, doc in docs.items():
            paths[name] = str(tmp_path / f"{name}.json")
            write(paths[name], json.dumps(doc))
        return paths

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_numbers_are_accepted(self, tmp_path, capsys, command):
        paths = self.one_point_files(tmp_path)
        assert main([arg.format(**paths) for arg in self.COMMANDS[command]]) == 0

    @pytest.mark.parametrize(
        "command, key, where, bad",
        [("solve", "Y", ("points", 0, "weight"), "1"),
         ("solve", "Y", ("points", 0, "weight"), True),
         ("solve", "Y", ("points", 0, "coords", 0), True),
         ("solve", "u", ("values", 0, 0), "0.25"),
         ("verify", "plan", ("triplets", 0, "mass"), True),
         ("verify", "plan", ("triplets", 0, "mass"), "1"),
         ("verify", "psi", (0,), "0"),
         ("rearrange", "heavy", ("match_tolerance",), "0"),
         ("rearrange", "heavy", ("values", 0, 0), "0.25")],
        ids=["weight-string", "weight-bool", "coordinate-bool", "map-value-string",
             "mass-bool", "mass-string", "psi-string", "match-tolerance-string",
             "heavy-value-string"],
    )
    def test_non_number_exits_2(self, tmp_path, capsys, command, key, where, bad):
        paths = self.one_point_files(tmp_path, key, where, bad)
        assert main([arg.format(**paths) for arg in self.COMMANDS[command]]) == 2
        assert f"must be a number, got {bad!r}" in capsys.readouterr().err


class TestMalformedDocuments:
    """A document of the wrong shape exits 2 with a message, not a traceback."""

    solve = TestJsonNumbers.COMMANDS["solve"]
    rearrange = TestJsonNumbers.COMMANDS["rearrange"]

    @staticmethod
    def run(tmp_path, argv, key, doc):
        paths = TestJsonNumbers.one_point_files(tmp_path)
        write(paths[key], json.dumps(doc))
        return main([arg.format(**paths) for arg in argv])

    @pytest.mark.parametrize("doc", [5, None, True], ids=["number", "null", "true"])
    def test_heavy_file_neither_list_nor_object(self, tmp_path, capsys, doc):
        assert self.run(tmp_path, self.rearrange, "heavy", doc) == 2
        assert "heavy file must hold a list or an object" in capsys.readouterr().err

    @pytest.mark.parametrize("dimension", [1, None], ids=["declared", "undeclared"])
    def test_coords_not_a_list(self, tmp_path, capsys, dimension):
        doc = {"points": [{"label": "y0", "coords": 0.5, "weight": 1.0}]}
        if dimension is not None:
            doc["dimension"] = dimension
        assert self.run(tmp_path, self.solve, "Y", doc) == 2
        assert "coords must be a list of numbers, got 0.5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "coords, message",
        [([[[0.5]]], "point 'y0': coords must be a non-empty flat list, got [[0.5]]"),
         ([[0.5], [1.5, 2.0]], "point 'y1' has 2 coordinates, point 'y0' has 1"),
         ([[], []], "point 'y0': coords must be a non-empty flat list, got []")],
        ids=["nested", "ragged", "empty"],
    )
    def test_coords_of_the_wrong_shape(self, tmp_path, capsys, coords, message):
        doc = {"points": [{"label": f"y{k}", "coords": c, "weight": 1.0 / len(coords)}
                          for k, c in enumerate(coords)]}
        assert self.run(tmp_path, self.solve, "Y", doc) == 2
        assert message in capsys.readouterr().err

    def test_map_values_not_an_array(self, tmp_path, capsys):
        doc = {"measure": measure_doc([1.0], prefix="x"), "values": 3}
        assert self.run(tmp_path, self.solve, "u", doc) == 2
        assert "map values must be 1-D or 2-D, got 0-D" in capsys.readouterr().err

    @pytest.mark.parametrize("dimension", [1.5, True, "1"], ids=["float", "bool", "string"])
    def test_dimension_not_an_integer(self, tmp_path, capsys, dimension):
        doc = measure_doc([1.0], [[0.5]])
        doc["dimension"] = dimension
        assert self.run(tmp_path, self.solve, "Y", doc) == 2
        assert f"dimension must be an integer or 'abstract', got {dimension!r}" in (
            capsys.readouterr().err
        )
