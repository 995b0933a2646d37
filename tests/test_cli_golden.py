"""Golden CLI bytes: stdout and exit code of decide, distance and --dump-model on
every file in models/, compared with tests/cli_golden.json.

Regenerate the golden file (only when an output change is intended and
explained) with

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import contextlib
import io
import json
import os
import sys

import pytest

from twosheet.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
MODELS = os.path.join(HERE, os.pardir, "models")
GOLDEN = os.path.join(HERE, "cli_golden.json")

# one related pair per dimension; every 2D model box holds the 2D pair
PAIRS = {2: ("0.2,0.1", "1.5,0.6"), 4: ("0,0,0,0", "1.5,0.4,0.2,0.1")}
# vielbein4d: related, but the straight chord between the two points is spacelike
SPACELIKE_CHORD_PAIR = ("-2,-2,0,0", "2,1.3,0,0")


def _cases():
    """(label, argv) for every golden run, in a fixed order."""
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
        cases.append(["decide", name, "--dump-model", "--p=0,0", "--xi", "0", "--q=0,0",
                      "--phi", "0"])
    return [(" ".join(c), [c[0], "--model", os.path.join(MODELS, c[1] + ".json"), *c[2:]])
            for c in cases]


def _run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {"exit": code, "stdout": stdout.getvalue()}


def _record():
    doc = {label: _run(argv) for label, argv in _cases()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(label for label, _ in _cases())


@pytest.mark.parametrize("label,argv", _cases(), ids=[label for label, _ in _cases()])
def test_cli_bytes_match_golden(golden, label, argv):
    assert _run(argv) == golden[label]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    _record()
