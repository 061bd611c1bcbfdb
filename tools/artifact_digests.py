"""Digest every output of the gallery pipeline, to compare two source trees.

    python3 tools/artifact_digests.py [SRC_DIR] > digests.txt

Imports polarfact from SRC_DIR (default: the ``src/`` of this checkout)
and, in a temporary directory, runs ``gallery``, ``factorize``, ``verify``,
``solve``, ``monotone`` (strict and with ``--refine-split``) and
``rearrange --m 2`` in-process on the three gallery families at N=8 for
gallery seeds 0-23.  It prints one line per command with its exit code and the
digests of its standard output and error, then one line per top-level key
of each JSON file the instance's commands wrote and one line per other
file.  ``diff`` of the output for two trees names the fields that moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

GRID = 8
SEEDS = range(24)


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def run(cli, argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"{argv[0]} exit={code} stdout={digest(out.getvalue())} stderr={digest(err.getvalue())}"


def file_lines(path: str) -> list:
    with open(path, "rb") as fh:
        data = fh.read()
    name = os.path.basename(path)
    if name.endswith(".json"):
        doc = json.loads(data)
        if isinstance(doc, dict):
            return [f"{name}:{key} {digest(json.dumps(value))}" for key, value in doc.items()]
    return [f"{name} {digest(data)}"]


def main(argv) -> int:
    src = argv[1] if len(argv) > 1 else os.path.join(os.path.dirname(__file__), "..", "src")
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    from polarfact import cli
    from polarfact.polar import GALLERY_NAMES

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"polarfact imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        # relative paths keep the temporary directory's name out of every output
        os.chdir(tmp)
        for name in GALLERY_NAMES:
            for seed in SEEDS:
                d = f"{name}-{seed}"
                u, Y, fac = (os.path.join(d, f) for f in ("u.json", "Y.json", "factorize.json"))
                commands = [
                    ["gallery", "--name", name, "--grid", str(GRID), "--seed", str(seed),
                     "--out", d],
                    ["factorize", "--u", u, "--Y", Y, "--out", fac],
                    ["verify", "--u", u, "--Y", Y, "--plan", fac, "--psi", fac,
                     "--out", os.path.join(d, "verify.json")],
                    ["solve", "--u", u, "--Y", Y, "--out", os.path.join(d, "solve.json")],
                    ["monotone", "--u", u, "--Y", Y, "--out", os.path.join(d, "monotone.json")],
                    ["monotone", "--u", u, "--Y", Y, "--refine-split",
                     "--out", os.path.join(d, "monotone-refine.json")],
                    ["rearrange", "--u", u, "--m", "2", "--heavy", os.path.join(d, "heavy.json"),
                     "--out", os.path.join(d, "rearrange.json")],
                ]
                for command in commands:
                    print(d, run(cli, command))
                for f in sorted(os.listdir(d)):
                    for line in file_lines(os.path.join(d, f)):
                        print(d, line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
