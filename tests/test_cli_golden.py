"""Golden CLI bytes: stdout and exit code of decide, distance and --dump-model on
every file in models/, of cone on a 17x17 grid on every 2D file, of witness
along straight curves on four of them, and of short oracle runs in 2D and 4D,
compared with tests/cli_golden.json.

Regenerate the golden file (only when an output change is intended and
explained) with

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import numpy as np

import pytest

from twosheet.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
MODELS = os.path.join(HERE, os.pardir, "models")
GOLDEN = os.path.join(HERE, "cli_golden.json")

# one related pair per dimension; every 2D model box holds the 2D pair
PAIRS = {2: ("0.2,0.1", "1.5,0.6"), 4: ("0,0,0,0", "1.5,0.4,0.2,0.1")}
# vielbein4d: related, but the straight chord between the two points is spacelike
SPACELIKE_CHORD_PAIR = ("-2,-2,0,0", "2,1.3,0,0")
# cone runs: source point and xi, inside every 2D model box
CONE_SOURCE = ("--p=0.2,0.1", "--xi", "0.2")
# witness runs: model -> (start, velocity, duration, samples, xi, phi, extra options)
# along the straight timelike curve t -> start + t * velocity, t in [0, duration]
WITNESS_CURVES = {
    "flat2d": ((0.0, 0.0), (1.0, 0.3), 1.0, 65, "0", "1", []),
    "conformal2d": ((-0.5, 0.2), (1.0, -0.4), 0.6, 33, "0.2", "0.9", []),
    "flat4d": ((0.0, 0.1, 0.0, -0.2), (1.0, 0.3, 0.2, -0.1), 0.6, 33, "0.9", "0.2",
               ["--per-sample", "3"]),
    "vielbein4d": ((-0.5, 0.0, 0.2, 0.0), (1.0, 0.2, -0.3, 0.1), 1.0, 33, "0", "1",
                   ["--per-sample", "3"]),
}

# oracle runs: model -> options; few elements, since a 4D element sweeps 17^4 points
ORACLE_RUNS = {
    "flat2d": ["--pairs", "20", "--elements", "8", "--seed", "3"],
    "flat4d": ["--pairs", "4", "--elements", "2", "--seed", "3"],
    "vielbein4d": ["--pairs", "4", "--elements", "2", "--seed", "5"],
}


def _curve_text(start, velocity, duration, samples):
    """witness --curve CSV text of a straight curve, float repr for exact bytes."""
    ts = np.linspace(0.0, duration, samples)
    points = np.asarray(start) + ts[:, None] * np.asarray(velocity)
    names = ",".join(f"x{i}" for i in range(len(start)))
    rows = [f"t,{names}"] + [",".join(repr(float(c)) for c in (t, *pt))
                             for t, pt in zip(ts, points)]
    return "\n".join(rows) + "\n"


def _cases():
    """(label, argv, curve CSV text or None) for every golden run, in a fixed order."""
    cases = []
    for name in sorted(f[:-5] for f in os.listdir(MODELS) if f.endswith(".json")):
        with open(os.path.join(MODELS, name + ".json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        p, q = PAIRS[doc["dimension"]]
        pairs = [(p, q), (q, p)]
        if doc["metric"]["kind"] == "vielbein4d":
            pairs.append(SPACELIKE_CHORD_PAIR)
        # decide ignores the method on a diagonal internal operator
        methods = ["auto"] if doc["mass"]["kind"] == "diagonal" else ["auto", "dp"]
        for a, b in pairs:
            pq = [f"--p={a}", f"--q={b}"]
            for method in methods:
                cases.append(["decide", name, *pq, "--xi", "0.2", "--phi", "0.5",
                              "--method", method])
            cases.append(["distance", name, *pq])
        if doc["dimension"] == 2:
            # a diagonal internal operator has no surface: one exit-1 case
            for method in methods:
                cases.append(["cone", name, *CONE_SOURCE, "--grid", "17x17",
                              "--method", method])
        cases.append(["decide", name, "--dump-model", "--p=0,0", "--xi", "0", "--q=0,0",
                      "--phi", "0"])
    out = [(" ".join(c), [c[0], "--model", os.path.join(MODELS, c[1] + ".json"), *c[2:]],
            None) for c in cases]
    for name, (start, velocity, duration, samples, xi, phi, extra) in WITNESS_CURVES.items():
        args = ["--xi", xi, "--phi", phi, *extra]
        out.append((" ".join(["witness", name, f"samples={samples}", *args]),
                    ["witness", "--model", os.path.join(MODELS, name + ".json"), *args],
                    _curve_text(start, velocity, duration, samples)))
    for name, args in ORACLE_RUNS.items():
        out.append((" ".join(["oracle", name, *args]),
                    ["oracle", "--model", os.path.join(MODELS, name + ".json"), *args], None))
    return out


def _run(argv, curve=None):
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if curve is not None:
            path = os.path.join(tmp, "curve.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(curve)
            argv = [*argv, "--curve", path]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    return {"exit": code, "stdout": stdout.getvalue()}


def _record():
    doc = {label: _run(argv, curve) for label, argv, curve in _cases()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(label for label, _, _ in _cases())


@pytest.mark.parametrize("label,argv,curve", _cases(), ids=[label for label, _, _ in _cases()])
def test_cli_bytes_match_golden(golden, label, argv, curve):
    assert _run(argv, curve) == golden[label]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    _record()
