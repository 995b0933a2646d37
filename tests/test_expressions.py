"""Expression grammar: parsing, evaluation, analytic derivatives, errors."""

import inspect
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twosheet.expressions import Expression, ExpressionError, parse_expression

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
    finally:
        sys.setrecursionlimit(limit)
