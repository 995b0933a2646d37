"""Command-line interface: exit codes, formats, and determinism."""

import json
import os
import warnings

import numpy as np
import pytest

from twosheet.cli import _csv_rows, _fmt, main

MODELS = os.path.join(os.path.dirname(__file__), os.pardir, "models")

FLAT = """{
  "dimension": 2,
  "metric": {"kind": "minkowski"},
  "mass": {"kind": "constant", "re": 1.0, "im": 0.0},
  "domain": {"box": [[-5.0, 5.0], [-5.0, 5.0]]}
}"""


@pytest.fixture
def flat_model(tmp_path):
    path = tmp_path / "flat.json"
    path.write_text(FLAT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ---------------------------------------------------------------------------
# decide


def test_decide_reports_twelve_digit_slack(flat_model, capsys):
    code, out, err = run(capsys, "decide", "--model", flat_model,
                         "--p", "0,0", "--xi", "0", "--q", "2,0", "--phi", "1")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["related"] is True
    assert doc["base_related"] is True
    assert doc["method"] == "closed"
    assert doc["slack"] == pytest.approx(2 - np.pi / 2, abs=1e-12)
    assert format(doc["slack"], ".12g") in out  # printed at 12 significant digits
    assert doc["marginal"] is False


def test_decide_accepts_equals_form_for_negative_points(flat_model, capsys):
    code, out, _ = run(capsys, "decide", "--model", flat_model,
                       "--p=-1,0", "--xi", "0.2", "--q=-0.5,0.2", "--phi", "0.2")
    assert code == 0
    assert json.loads(out)["related"] is True


def test_decide_not_related_still_exits_zero(flat_model, capsys):
    code, out, _ = run(capsys, "decide", "--model", flat_model,
                       "--p", "0,0", "--xi", "0", "--q", "1,0", "--phi", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["related"] is False and doc["slack"] < 0


def test_decide_band_override(flat_model, capsys):
    code, out, _ = run(capsys, "decide", "--model", flat_model, "--band", "0.5",
                       "--p", "0,0", "--xi", "0", "--q", "2,0", "--phi", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["marginal"] is True and doc["band"] == 0.5


@pytest.mark.parametrize("band", ["nan", "-1", "inf", "0"])
def test_decide_bad_band_exits_one(band, capsys):
    # the model file's decision_band and --band share one check
    code, out, err = run(capsys, "decide", "--model", os.path.join(MODELS, "flat2d.json"),
                         "--p=0,0", "--xi", "0.2", "--q=1,0.3", "--phi", "0.5",
                         f"--band={band}")
    assert code == 1 and out == ""
    assert err == f"twosheet: error: decision band must be positive and finite, " \
                  f"got {float(band)!r}\n"


def test_decide_outside_domain_exits_one(flat_model, capsys):
    code, out, err = run(capsys, "decide", "--model", flat_model,
                         "--p", "0,0", "--xi", "0", "--q", "9,0", "--phi", "1")
    assert code == 1
    assert out == "" and err != ""


def test_decide_is_byte_deterministic(flat_model, capsys):
    args = ("decide", "--model", flat_model,
            "--p", "0.1,0.2", "--xi", "0.3", "--q", "1.7,-0.4", "--phi", "0.9")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# ---------------------------------------------------------------------------
# distance / dump-model


@pytest.mark.parametrize("steps", ["0", "-3"])
@pytest.mark.parametrize("command,extra", [("distance", ["--q=2,0.4"]),
                                           ("cone", ["--xi", "0.2", "--grid", "5x5"])])
def test_lattice_steps_below_one_exit_one(command, extra, steps, capsys):
    # 0 used to fall back to the model's resolution and -3 ran one lattice step
    code, out, err = run(capsys, command, "--model", os.path.join(MODELS, "scalar2d.json"),
                         "--p=0.5,0", *extra, f"--time-steps={steps}")
    assert code == 1 and out == ""
    assert err == f"twosheet: error: time_steps must be >= 1, got {steps}\n"


def test_distance_prints_bare_number(flat_model, capsys):
    code, out, _ = run(capsys, "distance", "--model", flat_model,
                       "--p", "0,0", "--q", "2,0")
    assert code == 0
    assert out.strip() == "2"


def test_distance_not_related_exits_one(flat_model, capsys):
    code, _, err = run(capsys, "distance", "--model", flat_model,
                       "--p", "0,0", "--q", "0,2")
    assert code == 1 and err != ""


def test_dump_model_round_trips(flat_model, capsys, tmp_path):
    code, out, _ = run(capsys, "decide", "--model", flat_model, "--dump-model",
                       "--p", "0,0", "--xi", "0", "--q", "2,0", "--phi", "1")
    assert code == 0
    second = tmp_path / "canon.json"
    second.write_text(out)
    code, out2, _ = run(capsys, "decide", "--model", str(second), "--dump-model",
                        "--p", "0,0", "--xi", "0", "--q", "2,0", "--phi", "1")
    assert code == 0
    assert out2 == out


def test_bad_model_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(FLAT.replace("minkowski", "euclidean"))
    code, out, err = run(capsys, "decide", "--model", str(bad),
                         "--p", "0,0", "--xi", "0", "--q", "1,0", "--phi", "0")
    assert code == 1
    assert "metric.kind" in err


def test_missing_argument_exits_one(flat_model, capsys):
    code, _, err = run(capsys, "decide", "--model", flat_model,
                       "--p", "0,0", "--xi", "0", "--q", "1,0")
    assert code == 1 and "usage" in err.lower()


# ---------------------------------------------------------------------------
# cone


def test_cone_csv_structure(tmp_path, capsys):
    model = tmp_path / "cone.json"
    model.write_text(FLAT.replace("[[-5.0, 5.0], [-5.0, 5.0]]",
                                  "[[0.0, 2.0], [-2.0, 2.0]]"))
    out_file = tmp_path / "surface.csv"
    code, out, _ = run(capsys, "cone", "--model", str(model), "--p", "0,0",
                       "--xi", "0", "--grid", "21x21", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "t,x,phi_max,reachable"
    assert len(lines) == 1 + 21 * 21
    rows = [ln.split(",") for ln in lines[1:]]
    by_point = {(float(r[0]), float(r[1])): r for r in rows}
    on_axis = by_point[(2.0, 0.0)]
    assert float(on_axis[2]) == pytest.approx(1.0)  # beyond the half-pi budget
    assert on_axis[3] == "1"
    outside = by_point[(0.0, 2.0)]
    assert outside[2] == "nan" and outside[3] == "0"
    null_edge = by_point[(2.0, 2.0)]
    assert float(null_edge[2]) == pytest.approx(0.0, abs=1e-12)  # xi carried along


def test_csv_writer_formats_like_fmt():
    values = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 0.1 + 0.2,
              0.0, 1.0, -3.0, 2.0 ** 53, 123456789012.0]
    assert [_fmt(v) for v in values[:6]] == ["0", "nan", "inf", "-inf",
                                             "4.94065645841e-324", "1e+16"]
    table = np.array(values).reshape(4, 3)
    mixed = np.column_stack([np.random.default_rng(2).normal(size=(5, 2)) * 1e3,
                             [True, False, True, True, False]])
    for t in (table, table.T, mixed):
        assert _csv_rows(t) == "".join(",".join(_fmt(v) for v in row) + "\n" for row in t)
    assert _csv_rows(mixed).splitlines()[1].endswith(",0")  # booleans print as 1/0


def test_cone_rejects_bad_grid(flat_model, capsys):
    code, _, err = run(capsys, "cone", "--model", flat_model, "--p", "0,0",
                       "--xi", "0", "--grid", "5by5")
    assert code == 1 and err != ""


def test_deep_expression_exits_one_with_its_key(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(FLAT.replace('"kind": "minkowski"', '"kind": "conformal2d", "omega": "'
                                 + "(" * 600 + "1" + ")" * 600 + '"'))
    code, out, err = run(capsys, "decide", "--model", str(path), "--p", "0,0",
                         "--xi", "0", "--q", "1,0", "--phi", "1")
    assert code == 1 and out == ""
    assert err.splitlines() == [
        'twosheet: error: model file error at line 3, key "metric.omega": '
        "expression is nested too deeply"]


def test_nan_frame_exits_one_with_its_key(tmp_path, capsys):
    frame = [["sqrt(x)", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"],
             ["0", "0", "0", "1"]]
    path = tmp_path / "nan_frame.json"
    path.write_text(json.dumps({
        "dimension": 4, "metric": {"kind": "vielbein4d", "frame": frame},
        "mass": {"kind": "constant", "re": 1.0, "im": 0.0},
        "domain": {"box": [[-1, 1]] * 4}}, indent=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "oracle", "--model", str(path), "--pairs", "1",
                             "--elements", "1", "--seed", "1")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert 'key "metric.frame"' in err and "not finite" in err


def test_nan_frame_between_validation_samples_exits_one(tmp_path, capsys):
    # the frame is NaN only for 0.05 < x < 0.15, between the samples of validate,
    # so the file loads; decide must not read the NaN as "not related"
    frame = [["sqrt((x - 0.1)*(x - 0.1) - 0.0025)", "0", "0", "0"], ["0", "1", "0", "0"],
             ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    path = tmp_path / "nan_slab.json"
    path.write_text(json.dumps({
        "dimension": 4, "metric": {"kind": "vielbein4d", "frame": frame},
        "mass": {"kind": "constant", "re": 1.0, "im": 0.0},
        "domain": {"box": [[-1, 1]] * 4}}, indent=1))
    code, out, err = run(capsys, "decide", "--model", str(path), "--p=0,0.1,0,0",
                         "--xi", "0.1", "--q=0.8,0.1,0,0", "--phi", "0.3")
    assert code == 1 and out == ""
    # numpy warns of nothing ahead of the one error line
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("twosheet: error:")
    assert "not finite" in err


# ---------------------------------------------------------------------------
# witness


def curve_csv(tmp_path):
    ts = np.linspace(0.0, 1.0, 33)
    path = tmp_path / "curve.csv"
    rows = ["t,x0,x1"] + [f"{t},{t},{0.1 * t}" for t in ts]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def test_witness_certifies_and_writes_artifacts(flat_model, tmp_path, capsys):
    curve = curve_csv(tmp_path)
    samples = tmp_path / "samples.csv"
    report_file = tmp_path / "report.json"
    code, out, _ = run(capsys, "witness", "--model", flat_model, "--curve", curve,
                       "--xi", "0", "--phi", "1", "--radius", "0.1",
                       "--out", str(samples), "--report", str(report_file))
    assert code == 0
    report = json.loads(report_file.read_text())
    assert report["certified"] is True
    assert report["separation"] < 0
    assert report["tube_min_eigenvalue"] >= -1e-9
    header = samples.read_text().splitlines()[0]
    assert header == "t,x0,x1,a,b,theta"
    assert len(samples.read_text().splitlines()) == 1 + 33


def test_witness_rejects_equal_states(flat_model, tmp_path, capsys):
    curve = curve_csv(tmp_path)
    code, _, err = run(capsys, "witness", "--model", flat_model, "--curve", curve,
                       "--xi", "0.5", "--phi", "0.5")
    assert code == 1 and err != ""


@pytest.mark.parametrize("option,message", [
    ("--radius=nan", "radius must be finite"), ("--radius=inf", "radius must be finite"),
    ("--per-sample=0", "per_sample must be >= 1")])
def test_witness_rejects_a_bad_tube(flat_model, tmp_path, capsys, option, message):
    curve = curve_csv(tmp_path)
    code, out, err = run(capsys, "witness", "--model", flat_model, "--curve", curve,
                         "--xi", "0", "--phi", "1", option)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("twosheet: error:")
    assert message in err


def test_witness_rejects_malformed_curve(flat_model, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n0,0\n1,0\n")
    code, _, err = run(capsys, "witness", "--model", flat_model, "--curve", str(bad),
                       "--xi", "0", "--phi", "1")
    assert code == 1 and "header" in err


# ---------------------------------------------------------------------------
# oracle / selftest


def test_oracle_summary_is_deterministic(flat_model, capsys):
    args = ("oracle", "--model", flat_model, "--pairs", "6", "--elements", "8",
            "--seed", "3")
    code1, first, _ = run(capsys, *args)
    code2, second, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert first == second
    doc = json.loads(first)
    assert doc["pairs"] == 6
    assert doc["consistent"] is True
    assert doc["kinds"]["contradiction"] == 0
    assert sum(doc["kinds"].values()) == 6


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest", "--draws", "50")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert all(ln.startswith("ok") for ln in lines)
    assert len(lines) >= 6


def test_unknown_subcommand_exits_one(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1 and err != ""


NULL_SLICING = """{
  "dimension": 4,
  "metric": {"kind": "vielbein4d",
             "frame": [["1", "0", "0", "0"], ["1", "1", "0", "0"],
                       ["0", "0", "1", "0"], ["0", "0", "0", "1"]]},
  "mass": {"kind": "constant", "re": 1.0, "im": 0.0},
  "domain": {"box": [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]]}
}"""


def test_oracle_null_time_slicing_is_bad_input(tmp_path, capsys):
    path = tmp_path / "null.json"
    path.write_text(NULL_SLICING)
    code, out, err = run(capsys, "oracle", "--model", str(path), "--pairs", "1",
                         "--elements", "4", "--seed", "1")
    assert code == 1 and out == ""
    assert "causal time slicing" in err


def test_oracle_refuses_diagonal_models(capsys):
    path = os.path.join(MODELS, "diagonal2d.json")
    code, out, err = run(capsys, "oracle", "--model", path, "--pairs", "1",
                         "--elements", "4", "--seed", "1")
    assert code == 1 and out == ""
    assert "diagonal models have a decoupled cone" in err


@pytest.mark.parametrize("amplitude", ["nan", "inf"])
def test_oracle_non_finite_amplitude_exits_one(amplitude, capsys):
    path = os.path.join(MODELS, "flat2d.json")
    code, out, err = run(capsys, "oracle", "--model", path, "--pairs", "20",
                         "--elements", "4", "--seed", "3", "--amplitude", amplitude)
    assert code == 1 and out == ""
    assert "amplitude must be finite" in err
