"""Model file parsing, validation diagnostics, and canonical serialization."""

import contextlib
import glob
import io
import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twosheet.causality import fluctuate
from twosheet.cli import main
from twosheet.modelfile import ModelFileError, dump, dumps, load, loads

FLAT = """{
  "dimension": 2,
  "metric": {"kind": "minkowski"},
  "mass": {"kind": "constant", "re": 1.0, "im": 0.0},
  "domain": {"box": [[-5.0, 5.0], [-5.0, 5.0]]}
}"""

CONFORMAL = """{
  "dimension": 2,
  "metric": {"kind": "conformal2d", "omega": "1 + 0.2*sin(t)*cos(x)"},
  "mass": {"kind": "constant", "re": 0.8, "im": 0.6},
  "domain": {"box": [[-3.0, 3.0], [-3.0, 3.0]]},
  "resolutions": {"time_steps": 201, "space_steps": 201},
  "tolerances": {"decision_band": 0.002}
}"""

VIELBEIN = """{
  "dimension": 4,
  "metric": {"kind": "vielbein4d", "frame": [
    ["1 + 0.1*t", "0", "0", "0"],
    ["0", "1", "0", "0"],
    ["0", "0", "1 + 0.05*x", "0"],
    ["0", "0", "0", "1"]
  ]},
  "mass": {"kind": "constant", "re": 1.0, "im": 0.0},
  "vector_potentials": {"A": ["t", "x", "0", "0"], "B": ["0", "0", "y", "z"]},
  "domain": {"box": [[-2.0, 2.0], [-2.0, 2.0], [-2.0, 2.0], [-2.0, 2.0]]}
}"""


def test_flat_model_loads():
    m = loads(FLAT)
    assert m.dimension == 2
    assert m.metric_kind == "minkowski"
    assert m.mass == 1.0 + 0.0j
    np.testing.assert_array_equal(m.domain_box, [[-5, 5], [-5, 5]])


def test_conformal_model_loads_with_options():
    m = loads(CONFORMAL)
    assert m.metric_kind == "conformal2d"
    assert m.mass == 0.8 + 0.6j
    assert m.resolutions["time_steps"] == 201
    assert m.conformal_factor.evaluate(t=0.0, x=0.0) == pytest.approx(1.0)
    assert m.decision_band == 0.002


def test_vielbein_model_loads():
    m = loads(VIELBEIN)
    assert m.metric_kind == "vielbein4d"
    assert m.vector_potentials is not None
    assert len(m.vector_potentials[0]) == 4
    assert m.decision_band is None


def test_scalar_and_diagonal_masses():
    scalar = loads(FLAT.replace('{"kind": "constant", "re": 1.0, "im": 0.0}',
                                '{"kind": "scalar", "phi": "1 + t*t"}'))
    assert scalar.mass_kind == "scalar"
    assert scalar.mass_field.evaluate(t=2.0) == 5.0
    diag = loads(FLAT.replace('"kind": "constant"', '"kind": "diagonal"'))
    assert diag.mass_kind == "diagonal"


def test_dumps_round_trips_bytes():
    for text in (FLAT, CONFORMAL, VIELBEIN):
        canonical = dumps(loads(text))
        assert dumps(loads(canonical)) == canonical
        json.loads(canonical)  # stays plain JSON


def test_dump_and_load_files(tmp_path):
    m = loads(CONFORMAL)
    path = tmp_path / "model.json"
    dump(m, str(path))
    again = load(str(path))
    assert dumps(again) == dumps(m)
    assert again.decision_band == m.decision_band


def test_fluctuated_model_keeps_its_decision_band():
    m = loads(CONFORMAL)
    fluct = fluctuate(m, "1 + 0.1*t")
    assert fluct.decision_band == 0.002
    assert json.loads(dumps(fluct))["tolerances"] == {"decision_band": 0.002}


def test_resolution_floors():
    ok = loads(FLAT[:-2] + ', "resolutions": {"quadrature": 1}}')
    assert ok.resolutions["quadrature"] == 1
    with pytest.raises(ModelFileError):
        loads(FLAT[:-2] + ', "resolutions": {"time_steps": 16}}')
    with pytest.raises(ModelFileError):
        loads(FLAT[:-2] + ', "resolutions": {"quadrature": 0}}')
    with pytest.raises(ModelFileError):
        loads(FLAT[:-2] + ', "resolutions": {"time_steps": 33.5}}')


@pytest.mark.parametrize("mangle,key", [
    (lambda s: s.replace('"dimension": 2', '"dimension": 3'), "dimension"),
    (lambda s: s.replace('"metric"', '"metrik"'), "metrik"),
    (lambda s: s.replace('{"kind": "minkowski"}', '"minkowski"'), "metric"),
    (lambda s: s.replace("minkowski", "euclidean"), "metric.kind"),
    (lambda s: s.replace('"re": 1.0', '"re": "one"'), "mass.re"),
    (lambda s: s.replace("constant", "cubic"), "mass.kind"),
    (lambda s: s.replace("[[-5.0, 5.0], [-5.0, 5.0]]", "[[-5.0, 5.0]]"), "domain.box"),
    (lambda s: s.replace("[[-5.0, 5.0], [-5.0, 5.0]]",
                         "[[-5.0, 5.0], [5.0, -5.0]]"), "domain.box"),
    (lambda s: s[:-2] + ', "tolerances": {"decision_band": -1}}', "tolerances.decision_band"),
    (lambda s: s[:-2] + ', "tolerances": {"decision_band": Infinity}}',
     "tolerances.decision_band"),
    (lambda s: s[:-2] + ', "tolerances": {"foo": 1}}', "tolerances.foo"),
], ids=["dimension", "unknown-key", "metric-shape", "metric-kind", "mass-re",
        "mass-kind", "box-rows", "box-order", "tolerance-sign", "tolerance-infinite",
        "tolerance-name"])
def test_error_carries_key(mangle, key):
    with pytest.raises(ModelFileError) as err:
        loads(mangle(FLAT))
    assert err.value.key == key
    assert err.value.line >= 1
    assert f'key "{key}"' in str(err.value)


def test_psd_tolerance_is_an_unknown_key():
    with pytest.raises(ModelFileError) as err:
        loads(CONFORMAL.replace('"decision_band": 0.002', '"psd": 1e-10'))
    assert err.value.key == "tolerances.psd"
    assert err.value.line == 7  # the tolerances block's line
    assert "unknown tolerance" in str(err.value)


def test_error_line_points_at_the_offending_text():
    with pytest.raises(ModelFileError) as err:
        loads(FLAT.replace('"dimension": 2', '"dimension": 9'))
    assert err.value.line == 2  # dimension sits on the second line

    with pytest.raises(ModelFileError) as err:
        loads(CONFORMAL.replace("sin(t)", "sin(t"))
    assert err.value.key == "metric.omega"
    assert err.value.line == 3


def test_missing_required_key():
    obj = json.loads(FLAT)
    del obj["mass"]
    with pytest.raises(ModelFileError) as err:
        loads(json.dumps(obj))
    assert err.value.key == "mass"


def test_malformed_json_reports_parser_line():
    with pytest.raises(ModelFileError) as err:
        loads('{\n  "dimension": 2,,\n}')
    assert err.value.key == "<json>"
    assert err.value.line == 2
    with pytest.raises(ModelFileError):
        loads("[1, 2, 3]")


def test_conformal_dimension_guard():
    bad = CONFORMAL.replace('"dimension": 2', '"dimension": 4')
    with pytest.raises(ModelFileError) as err:
        loads(bad)
    assert err.value.key == "metric.kind"


def test_vector_potentials_need_matching_arity():
    bad = VIELBEIN.replace('"A": ["t", "x", "0", "0"]', '"A": ["t", "x"]')
    with pytest.raises(ModelFileError) as err:
        loads(bad)
    assert err.value.key == "vector_potentials.A"

    obj = json.loads(VIELBEIN)
    del obj["vector_potentials"]["B"]
    with pytest.raises(ModelFileError) as err:
        loads(json.dumps(obj))
    assert err.value.key == "vector_potentials"


def test_deep_nesting_is_a_model_file_error():
    # the parser recurses per parenthesis level: 600 levels must not escape as a
    # RecursionError, but name the key like any other bad expression
    deep = "(" * 600 + "1" + ")" * 600
    with pytest.raises(ModelFileError) as err:
        loads(CONFORMAL.replace("1 + 0.2*sin(t)*cos(x)", deep))
    assert err.value.key == "metric.omega"
    assert err.value.line == 3
    assert "nested too deeply" in str(err.value)


def test_nonpositive_conformal_factor_names_its_key():
    with pytest.raises(ModelFileError) as err:
        loads(CONFORMAL.replace("1 + 0.2*sin(t)*cos(x)", "t"))
    assert err.value.key == "metric.omega"
    assert err.value.line == 3
    assert "conformal factor must be positive" in str(err.value)


def test_nan_frame_names_its_key_without_warnings():
    bad = VIELBEIN.replace('["1 + 0.1*t", "0", "0", "0"]', '["sqrt(x)", "0", "0", "0"]')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelFileError) as err:
            loads(bad)
    assert err.value.key == "metric.frame"
    assert err.value.line == 3
    assert "not finite" in str(err.value)


def test_zero_times_a_nan_frame_entry_exits_1(tmp_path, capsys):
    # 0 * sqrt(x - 5) is nan on the whole box: it must not fold to the constant 0
    # and join the constant frame table
    text = VIELBEIN.replace('["0", "1", "0", "0"]', '["0", "1", "0*sqrt(x - 5)", "0"]')
    assert text != VIELBEIN
    path = tmp_path / "model.json"
    path.write_text(text)
    code = main(["decide", "--model", str(path), "--p=0,0,0,0", "--xi", "0",
                 "--q=1,0,0,0", "--phi", "0.5"])
    out, err_text = capsys.readouterr()
    assert code == 1 and out == ""
    assert err_text.splitlines() == [
        'twosheet: error: model file error at line 3, key "metric.frame": '
        "vielbein is not finite at a sampled point"]


def test_nonfinite_weight_field_names_its_key():
    scalar = FLAT.replace('{"kind": "constant", "re": 1.0, "im": 0.0}',
                          '{"kind": "scalar", "phi": "1 / x"}')
    with pytest.raises(ModelFileError) as err:
        loads(scalar)
    assert err.value.key == "mass.phi"
    assert err.value.line == 4
    assert "weight field is not finite" in str(err.value)


@pytest.mark.parametrize("old,new,key,line", [
    ('"space_steps": 201}', '"space_steps": 201, "quadrature": true}',
     "resolutions.quadrature", 6),
    ('"decision_band": 0.002', '"decision_band": true', "tolerances.decision_band", 7),
    ('"re": 0.8', '"re": true', "mass.re", 4),
    ('"im": 0.6', '"im": false', "mass.im", 4),
    ("[[-3.0, 3.0], [-3.0, 3.0]]", "[[-3.0, 3.0], [false, 3.0]]", "domain.box", 5),
], ids=["resolutions", "tolerances", "mass-re", "mass-im", "domain-box"])
def test_json_booleans_are_not_numbers(tmp_path, capsys, old, new, key, line):
    # bool is an int subclass in Python: true must not load as 1 nor false as 0
    text = CONFORMAL.replace(old, new)
    assert text != CONFORMAL
    with pytest.raises(ModelFileError) as err:
        loads(text)
    assert (err.value.key, err.value.line) == (key, line)
    path = tmp_path / "model.json"
    path.write_text(text)
    code = main(["decide", "--model", str(path), "--p=0,0", "--xi", "0", "--q=1,0",
                 "--phi", "0"])
    err_text = capsys.readouterr().err
    assert code == 1
    assert f'model file error at line {line}, key "{key}"' in err_text


_HUGE = "1" + "0" * 400  # an exact JSON integer that float() cannot hold


@pytest.mark.parametrize("old,new,key,line", [
    ('"re": 0.8', '"re": 1e999', "mass.re", 4),
    ('"re": 0.8', '"re": NaN', "mass.re", 4),
    ('"re": 0.8', f'"re": {_HUGE}', "mass.re", 4),
    ('"im": 0.6', '"im": -Infinity', "mass.im", 4),
    ("[[-3.0, 3.0], [-3.0, 3.0]]", "[[-3.0, NaN], [-3.0, 3.0]]", "domain.box", 5),
    ("[[-3.0, 3.0], [-3.0, 3.0]]", f"[[-3.0, 3.0], [-{_HUGE}, 3.0]]", "domain.box", 5),
    ('"space_steps": 201}', f'"space_steps": {_HUGE}}}', "resolutions.space_steps", 6),
    ('"decision_band": 0.002', f'"decision_band": {_HUGE}', "tolerances.decision_band", 7),
], ids=["mass-re-1e999", "mass-re-nan", "mass-re-huge", "mass-im-inf", "box-nan",
        "box-huge", "resolutions-huge", "tolerances-huge"])
def test_nonfinite_numbers_exit_1_naming_key_and_line(tmp_path, capsys, old, new, key, line):
    # json reads NaN, Infinity and 1e999 as floats, and float() of a 401-digit
    # integer overflows: each is one error line, never "nan" output or a traceback
    text = CONFORMAL.replace(old, new)
    assert text != CONFORMAL
    with pytest.raises(ModelFileError) as err:
        loads(text)
    assert (err.value.key, err.value.line) == (key, line)
    path = tmp_path / "model.json"
    path.write_text(text)
    code = main(["decide", "--model", str(path), "--p=0,0", "--xi", "0", "--q=1,0",
                 "--phi", "0.5"])
    out, err_text = capsys.readouterr()
    assert code == 1 and out == ""
    assert err_text.splitlines() == [
        f'twosheet: error: model file error at line {line}, key "{key}": '
        "must be a finite number"]


# ---------------------------------------------------------------------------
# the exit-code contract over mutated shipped model files

_MODELS = os.path.join(os.path.dirname(__file__), os.pardir, "models")
_SHIPPED = {}
for _path in sorted(glob.glob(os.path.join(_MODELS, "*.json"))):
    with open(_path) as _f:
        _SHIPPED[os.path.basename(_path)[:-len(".json")]] = json.load(_f)
_BAD_TEXT = ["NaN", "Infinity", "-Infinity", "1e999", "-1e999", _HUGE, "-" + _HUGE,
             "true", "false", "null", '"1.0"', '"x"', "-1", "0", "-0.5", "3", "1e-320",
             "[]", "[[]]", "[1]", "{}"]


def _targets(node, path=()):
    """Paths to the numeric leaves of a parsed model file, and to the lists above
    them (the box and its rows)."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _targets(value, path + (key,))
    elif isinstance(node, list):
        if any(isinstance(v, (int, float, list)) for v in node):
            yield path
        for i, value in enumerate(node):
            yield from _targets(value, path + (i,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


_CASES = [(name, path) for name, doc in _SHIPPED.items() for path in _targets(doc)]


def _mutated(name, path, text):
    """The model file with the value at path replaced by the raw JSON text."""
    doc = json.loads(json.dumps(_SHIPPED[name]))
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = "@@leaf@@"
    return json.dumps(doc, indent=2).replace('"@@leaf@@"', text)


def _query(doc):
    """decide arguments from the centre of the shipped box to a point later in time."""
    box = np.array(doc["domain"]["box"], dtype=float)
    p = box.mean(axis=1)
    q = p.copy()
    q[0] += 0.25 * (box[0, 1] - box[0, 0])
    p, q = (",".join(repr(float(x)) for x in v) for v in (p, q))
    return [f"--p={p}", "--xi", "0.2", f"--q={q}", "--phi", "0.5"]


@settings(deadline=None, derandomize=True, max_examples=400,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=st.sampled_from(_CASES), text=st.sampled_from(_BAD_TEXT))
def test_a_mutated_model_file_exits_0_or_1_with_one_error_line(tmp_path_factory, case, text):
    # every numeric leaf, the box and its rows get NaN, +-inf, 1e999, huge integers,
    # booleans, null, strings, negative or zero sizes and empty lists: decide exits
    # 0 without "nan", or 1 with exactly one error line
    name, path = case
    model = tmp_path_factory.mktemp("mutated") / f"{name}.json"
    model.write_text(_mutated(name, path, text))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["decide", "--model", str(model)] + _query(_SHIPPED[name]))
    if code == 0:
        assert "nan" not in out.getvalue() and err.getvalue() == "", (name, path, text)
    else:
        assert code == 1, (name, path, text, err.getvalue())
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("twosheet: error: "), (
            name, path, text, err.getvalue())
