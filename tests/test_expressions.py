"""Expression grammar: parsing, evaluation, analytic derivatives, errors."""

import ast
import glob
import inspect
import json
import os
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twosheet import modelfile
from twosheet.expressions import (VARIABLES, Expression, ExpressionError, _Parser,
                                  parse_expression)

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_literal_arithmetic():
    assert parse_expression("1 + 2*3").evaluate() == 7.0
    assert parse_expression("(1 + 2)*3").evaluate() == 9.0
    assert parse_expression("2/4").evaluate() == 0.5
    assert parse_expression("-3 + 1").evaluate() == -2.0
    assert parse_expression("--2").evaluate() == 2.0
    assert parse_expression("1.5e2").evaluate() == 150.0
    assert parse_expression("2e-1").evaluate() == pytest.approx(0.2)


def test_variables_and_functions():
    e = parse_expression("sin(t) + cos(x)*exp(y) - sqrt(abs(z))")
    t, x, y, z = 0.3, -1.2, 0.5, -4.0
    want = np.sin(t) + np.cos(x) * np.exp(y) - np.sqrt(abs(z))
    assert e.evaluate(t=t, x=x, y=y, z=z) == pytest.approx(want, abs=1e-15)


def test_call_maps_point_columns_to_variables():
    e = parse_expression("t + 10*x + 100*y + 1000*z")
    pts = np.array([[1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.5]])
    np.testing.assert_allclose(e(pts), [4321.0, 500.0])


def test_call_with_2d_points_leaves_yz_zero():
    e = parse_expression("t + y + z + x")
    pts = np.array([[2.0, 3.0]])
    assert e(pts)[0] == 5.0


@settings(deadline=None, derandomize=True, max_examples=200)
@given(t=finite, x=finite)
def test_polynomial_matches_direct_evaluation(t, x):
    e = parse_expression("3*t*t - 2*t*x + x*x/2 - 7")
    assert e.evaluate(t=t, x=x) == pytest.approx(3 * t * t - 2 * t * x + x * x / 2 - 7,
                                                 rel=1e-12, abs=1e-9)


@pytest.mark.parametrize("src,var,arg,want", [
    ("t*t", "t", 1.5, 3.0),
    ("sin(t)", "t", 0.7, np.cos(0.7)),
    ("exp(2*t)", "t", 0.3, 2 * np.exp(0.6)),
    ("sqrt(t)", "t", 4.0, 0.25),
    ("t*x", "x", 0.0, 0.0),
    ("cos(x)", "x", 1.1, -np.sin(1.1)),
])
def test_analytic_derivatives(src, var, arg, want):
    d = parse_expression(src).derivative(var)
    env = {var: arg}
    if "x" in src and var != "x":
        env["x"] = 0.0
    assert d.evaluate(**env) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_gradient_stacks_coordinate_derivatives():
    e = parse_expression("t*t + 3*x")
    pts = np.array([[1.0, 2.0], [0.5, -1.0]])
    g = e.gradient(pts, 2)
    np.testing.assert_allclose(g, [[2.0, 3.0], [1.0, 3.0]])


def test_abs_derivative_is_sign():
    d = parse_expression("abs(t)").derivative("t")
    assert d.evaluate(t=2.0) == 1.0
    assert d.evaluate(t=-2.0) == -1.0


def test_constant_detection():
    assert parse_expression("1 + 2").is_constant()
    assert parse_expression("1 + 2").constant_value() == 3.0
    assert not parse_expression("t").is_constant()
    with pytest.raises(ExpressionError):
        parse_expression("t + 1").constant_value()


def test_source_round_trip():
    src = "1 + 0.25*sin(t)*cos(x)"
    e = parse_expression(src)
    assert e.source == src
    again = parse_expression(e.source)
    assert again.evaluate(t=0.4, x=1.3) == e.evaluate(t=0.4, x=1.3)


@pytest.mark.parametrize("bad", [
    "", "1 +", "(1", "1)", "sin()", "sin(1,2)", "foo(1)", "w + 1",
    "1 ** 2", "2..3", "sin 1",
])
def test_parse_errors(bad):
    with pytest.raises(ExpressionError):
        parse_expression(bad)


def test_vectorized_matches_scalar():
    e = parse_expression("exp(-t*t) * sin(3*x)")
    pts = np.random.default_rng(5).uniform(-2, 2, size=(100, 2))
    vec = e(pts)
    for row, val in zip(pts, vec):
        assert val == pytest.approx(e.evaluate(t=row[0], x=row[1]), rel=1e-14)


@pytest.mark.parametrize("src", ["(" * 600 + "1" + ")" * 600, "t" + " * t" * 3000],
                         ids=["parentheses", "product"])
def test_deep_nesting_is_an_expression_error(src):
    with pytest.raises(ExpressionError, match="nested too deeply"):
        parse_expression(src)


def test_deep_tree_fails_evaluation_and_derivative_cleanly():
    # a left-leaning product parses in a loop, but the derivative and the evaluator
    # recurse once per factor: from a deep enough caller they run out of stack
    e = parse_expression("0.5" + " * t" * 400)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 200)
    try:
        with pytest.raises(ExpressionError, match="nested too deeply"):
            e.derivative("t")
        with pytest.raises(ExpressionError, match="nested too deeply"):
            e(np.zeros((1, 2)))
        with pytest.raises(ExpressionError, match="nested too deeply"):
            e.evaluate(t=0.5)
    finally:
        sys.setrecursionlimit(limit)


# ---------------------------------------------------------------------------
# the compiled closure against a plain tree walk


def _walk_tree(node, env):
    """Reference evaluator: a recursive walk of the simplified tree, env indexed t..z."""
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        return env["txyz".index(node[1])]
    if kind == "neg":
        return -_walk_tree(node[1], env)
    if kind == "call":
        return getattr(np, node[1])(_walk_tree(node[2], env))
    left, right = _walk_tree(node[1], env), _walk_tree(node[2], env)
    if kind == "+":
        return left + right
    if kind == "-":
        return left - right
    if kind == "*":
        return left * right
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.true_divide(left, right)


_LEAVES = st.one_of(st.sampled_from(["t", "x", "y", "z", "0", "1"]),
                    st.floats(min_value=0.0, max_value=4.0).map(repr))
_SOURCES = st.recursive(_LEAVES, lambda sub: st.one_of(
    st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda p: f"({p[0]} {p[1]} {p[2]})"),
    st.tuples(st.sampled_from(["sin", "cos", "exp", "sqrt", "abs"]), sub).map(
        lambda p: f"{p[0]}({p[1]})"),
    sub.map(lambda a: f"(-{a})"),
    sub.map(lambda a: f"({a} / 0)"),
), max_leaves=12)
_POINTS = {n: np.random.default_rng(n).uniform(-3.0, 3.0, size=(16, n)) for n in (2, 4)}


def _recorded(fn):
    """fn() with every warning recorded: the value and the warning texts."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = fn()
    return value, [str(w.message) for w in caught]


def _same_bits(a, b, shape):
    return (np.broadcast_to(np.asarray(a, dtype=float), shape).tobytes()
            == np.broadcast_to(np.asarray(b, dtype=float), shape).tobytes())


@settings(deadline=None, derandomize=True, max_examples=300)
@given(src=_SOURCES)
def test_compiled_closure_equals_a_tree_walk(src):
    # same operations in the same order: same bits, NaN payloads included, and the
    # same floating-point warnings (a function or an inf - inf may warn; x/0 may not)
    e, _ = _recorded(lambda: parse_expression(src))
    for n, pts in _POINTS.items():
        env = tuple(pts[:, i] if i < n else 0.0 for i in range(4))
        got, got_warn = _recorded(lambda: e(pts))
        want, want_warn = _recorded(lambda: _walk_tree(e._node, env))
        assert got.shape == pts.shape[:-1] and not np.shares_memory(got, pts)
        assert _same_bits(got, want, got.shape) and got_warn == want_warn, src
        got, got_warn = _recorded(lambda: e.evaluate(**dict(zip("txyz", env))))
        assert _same_bits(got, want, pts.shape[:-1]) and got_warn == want_warn, src
    scalars = tuple(float(v) for v in _POINTS[4][0])
    got, got_warn = _recorded(lambda: e.evaluate(**dict(zip("txyz", scalars))))
    want, want_warn = _recorded(lambda: _walk_tree(e._node, scalars))
    assert _same_bits(got, want, ()) and got_warn == want_warn, src


@pytest.mark.parametrize("src,want", [
    ("t/0", [np.inf, -np.inf, np.nan]), ("(t - t)/0", [np.nan] * 3),
    ("x/(t - t)", [np.inf, -np.inf, np.nan]), ("1/0", [np.inf] * 3),
    ("-1/0", [-np.inf] * 3), ("0*t/0", [np.nan] * 3),
])
def test_division_by_zero_is_inf_or_nan_without_a_warning(src, want):
    # constant folds at parse time run through the same division as point values
    pts = np.array([[1.0, 1.0], [-1.0, -1.0], [0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e = parse_expression(src)
        np.testing.assert_array_equal(e(pts), want)
        np.testing.assert_array_equal(e.evaluate(t=pts[:, 0], x=pts[:, 1]), want)
        np.testing.assert_array_equal(e.evaluate(t=1.0, x=1.0), want[0])


@pytest.mark.parametrize("src", ["t", "x", "y", "2", "t + 1", "sin(x)"])
def test_call_returns_an_array_it_owns(src):
    # a bare variable evaluates to a view of the points, and a constant to a scalar:
    # both are copied out, so mutating the result leaves the points alone
    pts = np.array([[0.5, 1.5], [2.5, 3.5]])
    before = pts.copy()
    out = parse_expression(src)(pts)
    out += 100.0
    np.testing.assert_array_equal(pts, before)
    assert out.flags.writeable and out.shape == (2,)


# ---------------------------------------------------------------------------
# simplification keeps nan, and derivative trees stay tidy


@pytest.mark.parametrize("src,const", [
    ("0*sqrt(x - 5)", False), ("sqrt(x - 5)*0", False), ("0/(t - t)", False),
    ("0*(1/(t - t))", False), ("0*x/y", False), ("0*(x + 2*t - y*z)", True),
    ("(-x)*0", True), ("0*(x*1e999)", False),
])
def test_zero_folds_only_where_the_factor_is_finite(src, const):
    # 0 * u folds to 0 only if u is built from finite numbers and variables by + - *;
    # 0 / u never folds: the written expression is nan where u is 0, nan or inf
    e = parse_expression(src)
    assert e.is_constant() == const
    with np.errstate(invalid="ignore"):
        value = e.evaluate(t=1.0, x=2.0, y=0.0, z=3.0)
    assert (value == 0.0) if const else np.isnan(value)


_ZEROED = st.recursive(_SOURCES, lambda sub: st.one_of(
    sub.map(lambda a: f"(0 * {a})"), sub.map(lambda a: f"({a} * 0)"),
    sub.map(lambda a: f"(0 / {a})"),
    st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda p: f"({p[0]} {p[1]} {p[2]})"),
), max_leaves=4)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(src=_ZEROED)
def test_simplification_never_hides_a_nan(src):
    raw = _Parser(src).parse()
    with np.errstate(all="ignore"):
        e = parse_expression(src)
        for n, pts in _POINTS.items():
            env = tuple(pts[:, i] if i < n else 0.0 for i in range(4))
            want = np.broadcast_to(_walk_tree(raw, env), pts.shape[:-1])
            np.testing.assert_array_equal(e(pts), want, err_msg=src)


@pytest.mark.parametrize("src,var,want", [
    ("sin(sqrt(t))", "x", "0"), ("x*sqrt(t)", "x", "sqrt(t)"),
    ("sqrt(t)*x", "x", "sqrt(t)"), ("t/sqrt(t)", "x", "0"),
    ("x/sqrt(t)", "x", "(sqrt(t) / (sqrt(t) * sqrt(t)))"),
    ("abs(t)*exp(y)", "x", "0"), ("-(sqrt(t))", "x", "0"),
])
def test_a_term_with_a_structurally_zero_inner_derivative_is_zero(src, var, want):
    # the chain and product rules drop a term whose inner derivative is zero, so
    # d/dx of sqrt(t)*x reads sqrt(t), not sqrt(t) + x * (0.5 / sqrt(t) * 0), which
    # would be nan at t = 0
    assert parse_expression(src).derivative(var).source == want


MODELS = os.path.join(os.path.dirname(__file__), os.pardir, "models")
with open(os.path.join(os.path.dirname(__file__), "model_field_derivatives.json")) as _f:
    # repr of each simplified derivative tree of every field of the shipped models,
    # recorded before simplification stopped folding 0 * u for u that can be nan
    _DERIVATIVE_TREES = json.load(_f)


def _model_fields(m):
    if m.conformal_factor is not None:
        yield "conformal_factor", m.conformal_factor
    if m.mass_field is not None:
        yield "mass_field", m.mass_field
    for a, row in enumerate(m.vielbein or ()):
        for mu, e in enumerate(row):
            yield f"vielbein[{a}][{mu}]", e
    for s, sheet in enumerate(m.vector_potentials or ()):
        for i, e in enumerate(sheet):
            yield f"vector_potentials[{s}][{i}]", e


def test_shipped_model_field_derivatives_are_unchanged():
    seen = {}
    for path in sorted(glob.glob(os.path.join(MODELS, "*.json"))):
        m = modelfile.load(path)
        name = os.path.basename(path)[:-len(".json")]
        pts = np.random.default_rng(0).uniform(m.domain_box[:, 0], m.domain_box[:, 1],
                                               size=(64, m.dimension))
        for key, e in _model_fields(m):
            for var in VARIABLES[:m.dimension]:
                d = e.derivative(var)
                seen[f"{name}/{key}/{var}"] = repr(d._node)
                ref = Expression("reference", _node=ast.literal_eval(
                    _DERIVATIVE_TREES[f"{name}/{key}/{var}"]))
                assert d(pts).tobytes() == ref(pts).tobytes(), (name, key, var)
    assert seen == _DERIVATIVE_TREES
