"""Space-time models, causal curves, and the weighted proper-time maximizer."""

import dataclasses
import decimal
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from twosheet import geometry, modelfile
from twosheet.causality import decide, future_cone
from twosheet.cone import witness_element
from twosheet.expressions import Expression, parse_expression
from twosheet.geometry import (
    CausalCurve,
    DomainError,
    InvalidCurveError,
    MixedState,
    NotRelatedError,
    SpacetimeModel,
    cumulative_weighted_length,
    is_causally_related,
    max_weighted_length,
    single_source_field,
    straight_curve,
    validate_curve,
    weighted_length,
    _diamond_path,
    _segment_values,
)
from twosheet.oracle import sample_causal_elements

MODELS = os.path.join(os.path.dirname(__file__), os.pardir, "models")


def flat2(mass=1.0, box=5.0):
    return SpacetimeModel.minkowski(2, mass=mass,
                                    box=[[-box, box], [-box, box]])


def flat4(mass=1.0, box=3.0):
    return SpacetimeModel.minkowski(4, mass=mass, box=[[-box, box]] * 4)


# ---------------------------------------------------------------------------
# models


def test_import_and_dp_decide_do_not_load_scipy():
    # scipy.integrate serves only the Simpson quadrature; it must not load at start-up
    code = (
        "import sys, twosheet\n"
        "m = twosheet.load(sys.argv[1])\n"
        "d = twosheet.decide(((0.8, -0.5), 0.2), ((3.2, 0.4), 0.7), m, method='dp')\n"
        "assert d.method == 'dp' and d.related, d\n"
        "assert 'scipy.integrate' not in sys.modules\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    subprocess.run([sys.executable, "-c", code, os.path.join(MODELS, "scalar2d.json")],
                   env=env, check=True)


def test_minkowski_defaults():
    m = flat2()
    assert m.dimension == 2
    assert m.metric_kind == "minkowski"
    assert m.mass_kind == "constant"
    assert m.resolutions["time_steps"] == 401
    assert m.resolutions["certification"] == 101


def test_certification_default_depends_on_dimension():
    assert flat4().resolutions["certification"] == 17


def test_models_are_immutable():
    box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    m = SpacetimeModel.minkowski(2, box=box)
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.mass_kind = "diagonal"
    with pytest.raises(ValueError):
        m.domain_box[0, 0] = -3.0
    with pytest.raises(TypeError):
        m.resolutions["time_steps"] = 3
    box[0, 0] = -3.0  # the model keeps its own copy of the box
    assert m.domain_box[0, 0] == -1.0


def test_domain_checks():
    m = flat2(box=1.0)
    assert m.in_domain([0.5, -0.5])
    assert not m.in_domain([1.5, 0.0])
    with pytest.raises(DomainError):
        m.require_in_domain([0.0, 2.0])


def test_bad_box_rejected():
    with pytest.raises(ValueError):
        SpacetimeModel.minkowski(2, mass=1.0, box=[[1.0, -1.0], [0.0, 1.0]])


def test_mixed_state_range():
    MixedState([0.0, 0.0], 0.0)
    MixedState([0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        MixedState([0.0, 0.0], 1.5)


def test_conformal_factor_must_be_positive():
    m = SpacetimeModel.conformal("t - 10", mass=1.0,
                                 box=[[-1, 1], [-1, 1]])
    with pytest.raises(ValueError):
        m.validate()


def test_scalar_weight_magnitude():
    from twosheet.expressions import parse_expression
    m = SpacetimeModel.minkowski(2, mass=1.0, mass_kind="scalar",
                                 mass_field=parse_expression("1 + t"))
    pts = np.array([[0.0, 0.0], [2.0, 1.0], [-3.0, 0.0]])
    np.testing.assert_allclose(m.weight(pts), [1.0, 3.0, 2.0])


def test_diagonal_weight_rejected_but_mass_vanishes():
    m = SpacetimeModel.minkowski(2, mass=1.0, mass_kind="diagonal")
    pts = np.array([[0.0, 0.0]])
    assert m.mass_at(pts)[0] == 0.0
    with pytest.raises(ValueError):
        m.weight(pts)


FRAME_MODEL_LIST = [
    SpacetimeModel.minkowski(2, mass=1.0),
    SpacetimeModel.minkowski(4, mass=1.0),
    modelfile.load(os.path.join(MODELS, "conformal2d.json")),
    modelfile.load(os.path.join(MODELS, "vielbein4d.json")),
    SpacetimeModel.with_vielbein([["1", "0.2*x", "0", "0"],
                                  ["0.1*t", "1 + 0.1*t", "0", "0"],
                                  ["0", "0.05*y", "1", "0.1*y"],
                                  ["0", "0", "0", "1 + 0.05*x"]],
                                 mass=1.0, box=[[-2, 2]] * 4),
]
FRAME_MODEL_IDS = ["minkowski2d", "minkowski4d", "conformal2d", "vielbein4d", "vielbein4d-mixed"]
FRAME_MODELS = pytest.mark.parametrize("model", FRAME_MODEL_LIST, ids=FRAME_MODEL_IDS)


@FRAME_MODELS
def test_frame_gradient_map_round_trips(model):
    rng = np.random.default_rng(5)
    n = model.dimension
    pts = rng.uniform(-1.5, 1.5, size=(50, n))
    g = rng.normal(size=(2, 50, n))  # two stacked gradients, as the assemblers pass them
    f = model.to_frame(pts, g)
    np.testing.assert_array_equal(
        f, np.einsum("...am,...m->...a", model.frame_matrices(pts), g))
    np.testing.assert_allclose(model.from_frame(pts, f), g, rtol=0, atol=1e-12)


@FRAME_MODELS
def test_time_frame_is_to_frame_of_the_time_gradient(model):
    # only the frame's time column is evaluated, with the full map's exact bytes
    pts = np.random.default_rng(6).uniform(-1.5, 1.5, size=(50, model.dimension))
    e0 = np.zeros(pts.shape)
    e0[:, 0] = 1.0
    assert model.time_frame(pts).tobytes() == model.to_frame(pts, e0).tobytes()


def test_minkowski_is_the_unit_isotropic_frame():
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1.5, 1.5, size=(50, 2))
    v = rng.normal(size=(50, 2))
    g = rng.normal(size=(2, 50, 2))
    flat, unit = SpacetimeModel.minkowski(2), SpacetimeModel.conformal("1")
    for m in (flat, unit):
        assert m.frame_components(pts, v).tobytes() == unit.frame_components(pts, v).tobytes()
        assert m.to_frame(pts, g).tobytes() == unit.to_frame(pts, g).tobytes()
        assert m.from_frame(pts, g).tobytes() == unit.from_frame(pts, g).tobytes()
        assert m.frame_matrices(pts).tobytes() == unit.frame_matrices(pts).tobytes()
        assert m.time_frame(pts).tobytes() == unit.time_frame(pts).tobytes()

    flat4 = SpacetimeModel.minkowski(4)
    pts4 = rng.uniform(-1.5, 1.5, size=(50, 4))
    v4 = rng.normal(size=(50, 4))
    g4 = rng.normal(size=(2, 50, 4))
    assert flat4.frame_components(pts4, v4).tobytes() == v4.tobytes()
    assert flat4.to_frame(pts4, g4).tobytes() == g4.tobytes()
    assert flat4.from_frame(pts4, g4).tobytes() == g4.tobytes()


def _stacked_frame(model, pts):
    """Reference frame table: every entry evaluated per point, then stacked."""
    if model.metric_kind != "vielbein4d":  # the identity frame
        return np.broadcast_to(np.eye(model.dimension), pts.shape[:-1] + (model.dimension,) * 2)
    rows = [[model.vielbein[a][mu](pts) for mu in range(4)] for a in range(4)]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


# the oracle tests' tilted frame: its time column mixes constant and varying entries
TILTED = SpacetimeModel.with_vielbein(
    [["1", "0.1*x", "0", "0"], ["0.5", "1 + 0.1*t", "0", "0"], ["0", "0", "1", "0"],
     ["0.2*t", "0", "0.1*y", "1 + 0.05*x"]], mass=0.8 + 0.6j, box=[[-2, 2]] * 4)
CONSTANT_FRAME = SpacetimeModel.with_vielbein(
    [["1", "0.4", "0", "0"], ["0", "1.5", "0", "0"], ["0", "0", "1", "0"],
     ["0", "0", "0", "2 - 1"]], mass=1.0, box=[[-2, 2]] * 4)


@pytest.mark.parametrize("model", FRAME_MODEL_LIST + [TILTED, CONSTANT_FRAME],
                         ids=FRAME_MODEL_IDS + ["tilted", "constant"])
def test_frame_table_matches_the_stacked_entries(model):
    rng = np.random.default_rng(9)
    for pts in (rng.uniform(-1.5, 1.5, size=(3, 40, model.dimension)),
                rng.uniform(-1.5, 1.5, size=model.dimension)):
        want = _stacked_frame(model, pts)
        got = model.frame_matrices(pts)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert model.time_frame(pts).tobytes() == want[..., 0].tobytes()


def test_frame_table_evaluates_only_the_varying_entries(monkeypatch):
    model = modelfile.load(os.path.join(MODELS, "vielbein4d.json"))
    calls = []
    call = Expression.__call__
    monkeypatch.setattr(Expression, "__call__",
                        lambda self, points: calls.append(self.source) or call(self, points))
    pts = np.random.default_rng(10).uniform(-1.5, 1.5, size=(50, 4))
    model.frame_matrices(pts)
    assert sorted(calls) == ["1 + 0.05*x", "1 + 0.1*t"]
    calls.clear()
    model.time_frame(pts)  # the time column is all constant
    assert calls == []
    CONSTANT_FRAME.frame_matrices(pts)
    CONSTANT_FRAME.time_frame(pts)
    assert calls == []
    # the split is not a field: replace rebuilds it from the expressions
    assert "_frame_table" not in [f.name for f in dataclasses.fields(model)]
    assert dataclasses.replace(model, mass=2.0).frame_matrices(pts).tobytes() == \
        model.frame_matrices(pts).tobytes()


@pytest.mark.parametrize("column", [0, 1])
def test_frame_nan_between_grid_points(column):
    # 1 + sqrt((x - 1/8)^2 - 1e-4) is NaN only for |x - 1/8| < 0.01: between the nine
    # validate samples per axis, but on the 17-point certification grid (x = 1/8)
    frame = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"],
             ["0", "0", "0", "1"]]
    frame[column][column] = "1 + sqrt((x - 0.125)*(x - 0.125) - 0.0001)"
    m = SpacetimeModel.with_vielbein(frame, mass=1.0, box=[[-1, 1]] * 4)
    assert m.validate()["signature_ok"] == 1.0
    with np.errstate(invalid="ignore"):
        E = m.frame_matrices(np.array([[0.0, 0.125, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]]))
    assert np.isnan(E[0, column, column]) and np.isfinite(E[1]).all()
    assert np.isfinite(np.delete(E[0].ravel(), 5 * column)).all()  # the other entries
    message = "causal time slicing" if column == 0 else "frame is not finite"
    with pytest.raises(ValueError, match=message):
        sample_causal_elements(m, 1, 1)


# ---------------------------------------------------------------------------
# curves and lengths


def test_straight_curve_endpoints():
    c = straight_curve([0.0, 0.0], [2.0, 1.0], n=33)
    np.testing.assert_allclose(c.points[0], [0.0, 0.0])
    np.testing.assert_allclose(c.points[-1], [2.0, 1.0])
    assert c.ts.shape == (33,)


def test_weighted_length_flat_straight_is_proper_time():
    m = flat2(mass=2.0)
    c = straight_curve([0.0, 0.0], [2.0, 1.0])
    # proper time sqrt(4 - 1), weight |m| = 2
    assert weighted_length(c, m) == pytest.approx(2.0 * np.sqrt(3.0), rel=1e-12)


def test_weighted_length_complex_mass_uses_magnitude():
    m = flat2(mass=3.0 + 4.0j)
    c = straight_curve([0.0, 0.0], [1.0, 0.0])
    assert weighted_length(c, m) == pytest.approx(5.0, rel=1e-12)


def test_conformal_length_scales_inversely_with_frame_factor():
    # g = Omega^-2 eta, so proper times divide by Omega: the frame stays the
    # identity and the weight is |m| / Omega
    m = SpacetimeModel.conformal("2", mass=1.0, box=[[-5, 5], [-5, 5]])
    c = straight_curve([0.0, 0.0], [1.0, 0.0])
    assert weighted_length(c, m) == pytest.approx(0.5, rel=1e-12)


def test_spacelike_curve_rejected():
    m = flat2()
    c = straight_curve([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(InvalidCurveError):
        weighted_length(c, m)
    report = validate_curve(c, m)
    assert not report.causal_flags.all()


def test_backward_curve_rejected():
    m = flat2()
    c = straight_curve([0.0, 0.0], [-1.0, 0.0])
    with pytest.raises(InvalidCurveError):
        weighted_length(c, m)


def test_too_few_samples_rejected():
    m = flat2()
    c = straight_curve([0.0, 0.0], [1.0, 0.0], n=5)
    with pytest.raises(InvalidCurveError):
        weighted_length(c, m)


@pytest.mark.parametrize("tangent,message", [
    ([0.1, 1.0], "spacelike tangent at sample 7 (normalized defect 9.802e-01)"),
    ([-1.0, 0.2], "tangent is not future-directed at sample 7"),
], ids=["spacelike", "past-directed"])
def test_every_length_names_the_bad_sample(tangent, message):
    m = flat2()
    curve = straight_curve([0.0, 0.0], [2.0, 0.5], n=33)
    curve.tangents[7] = tangent
    for length in (weighted_length, cumulative_weighted_length,
                   lambda c, model: witness_element(c, 0.1, 0.9, model)):
        with pytest.raises(InvalidCurveError) as err:
            length(curve, m)
        assert str(err.value) == message


def test_every_length_names_a_non_finite_weight_inside_the_box():
    # sqrt(t) is NaN below t = 0, and the curve starts inside the box at t = -0.19
    m = SpacetimeModel(dimension=2, mass_kind="scalar", mass_field=parse_expression("sqrt(t)"),
                       domain_box=[[-0.2, 1.0], [-1.0, 1.0]])
    curve = straight_curve([-0.19, 0.0], [0.9, 0.2], n=33)
    for length in (weighted_length, cumulative_weighted_length,
                   lambda c, model: witness_element(c, 0.1, 0.9, model)):
        with pytest.raises(ValueError) as err:
            length(curve, m)
        assert str(err.value) == ("the frame or the weight is not finite at [-0.19, 0.0] "
                                  "inside the domain box")


def test_cumulative_length_monotone_and_consistent():
    m = flat2()
    c = straight_curve([0.0, 0.0], [2.0, 0.5])
    cum = cumulative_weighted_length(c, m)
    assert cum[0] == 0.0
    assert np.all(np.diff(cum) >= 0)
    assert cum[-1] == pytest.approx(weighted_length(c, m), rel=1e-9)


def test_reparameterization_invariance():
    m = flat2()
    ts = np.linspace(0.0, 1.0, 201)
    warped = ts + 0.2 * np.sin(np.pi * ts) * ts * (1 - ts)
    pts = np.stack([2.0 * warped, 0.7 * warped], axis=-1)
    plain = straight_curve([0.0, 0.0], [2.0, 0.7], n=201)
    bent = CausalCurve.from_samples(ts, pts)
    assert weighted_length(bent, m) == pytest.approx(weighted_length(plain, m),
                                                     abs=1e-8)


# ---------------------------------------------------------------------------
# segment quadrature

MODELS_2D = sorted(f[:-5] for f in os.listdir(MODELS) if f.endswith(".json")
                   and modelfile.load(os.path.join(MODELS, f)).dimension == 2)


def _sample_by_sample(model, a, b, nsub):
    """`_segment_values` with the frame mapped at every sample: (values, mask, first
    non-finite sample inside the box or None)."""
    delta = b - a
    fr = (np.arange(nsub) + 0.5) / nsub
    pts = a[..., None, :] + fr[:, None] * delta[..., None, :]
    w = model.frame_components(pts, np.broadcast_to(delta[..., None, :], pts.shape))
    eta = model.frame_norm2(w)
    vals = np.mean(model.weight(pts) * np.sqrt(np.clip(-eta, 0.0, None)), axis=-1)
    norm2 = np.maximum(np.sum(delta * delta, axis=-1), 1e-300)
    causal = np.all(eta <= geometry.CURVE_TOL * norm2[..., None], axis=-1)
    future = np.all(w[..., 0] > 0, axis=-1) | (norm2 <= 1e-28)
    bad = ~(np.isfinite(eta) & np.isfinite(model.weight(pts))) & model.in_domain(pts)
    return vals, causal & future, pts[bad][0] if bad.any() else None


@pytest.mark.parametrize("name", MODELS_2D)
def test_segment_values_match_a_sample_by_sample_map(name):
    m = modelfile.load(os.path.join(MODELS, name + ".json"))
    rng = np.random.default_rng(11)
    lo, span = m.domain_box[:, 0], m.domain_box[:, 1] - m.domain_box[:, 0]
    a = lo + span * rng.uniform(0.1, 0.5, size=(24, 2))
    d = np.empty((24, 2))
    d[:, 0] = span[0] * rng.uniform(0.05, 0.4, 24)
    d[:, 1] = d[:, 0] * rng.uniform(-0.9, 0.9, 24)  # timelike, future-directed
    d[0:4, 1] = d[0:4, 0] * np.array([1.0, -1.0, 1.0, -1.0])  # null
    d[4:8] *= -1.0  # past-directed
    d[8:10] = 0.0  # zero length
    d[11:14, 1] = 2.0 * d[11:14, 0]  # spacelike
    a, d = np.round(a * 64) / 64, np.round(d * 64) / 64  # b - a is exactly d
    d[10] = (1e-15, 0.0)  # norm2 <= 1e-28: counts as zero length
    b = a + d
    if m.mass_kind == "diagonal":
        with pytest.raises(ValueError, match="diagonal"):
            _segment_values(m, a, b)
        return
    expected = np.ones(24, dtype=bool)
    expected[4:8] = expected[11:14] = False
    for nsub in (1, 8, 256):
        # plain, extra leading axes, and one start against many ends (cone chords)
        for sa, sb in ((a, b), (a.reshape(4, 6, 2), b.reshape(4, 6, 2)), (a[:1], b)):
            vals, ok = _segment_values(m, sa, sb, nsub=nsub)
            ref_vals, ref_ok, _ = _sample_by_sample(m, sa, sb, nsub)
            assert vals.tobytes() == ref_vals.tobytes()
            assert ok.tobytes() == ref_ok.tobytes()
        vals, ok = _segment_values(m, a, b, nsub=nsub)
        assert ok.tolist() == expected.tolist()
        assert np.all(vals[:4] == 0.0)  # null


@pytest.mark.parametrize("model", [
    SpacetimeModel(dimension=2, mass_kind="scalar", mass_field=parse_expression("sqrt(t)"),
                   domain_box=[[-0.2, 1.0], [-1.0, 1.0]]),
    SpacetimeModel.conformal("sqrt(t)", box=[[-0.2, 1.0], [-1.0, 1.0]]),
], ids=["weight", "frame"])
def test_segment_values_name_the_first_bad_sample_inside_the_box(model):
    # sqrt(t) is NaN for t < 0: the second segment is NaN only outside the box, the
    # third first outside it and then inside it, at t = -0.1875
    a = np.array([[0.1, 0.0], [-0.5, 0.0], [-0.5, 0.3]])
    b = np.array([[0.9, 0.2], [-0.3, 0.0], [0.5, 0.3]])
    with np.errstate(all="ignore"):
        vals, ok = _segment_values(model, a[:2], b[:2], nsub=8)
        ref_vals, ref_ok, ref_bad = _sample_by_sample(model, a[:2], b[:2], 8)
        assert ref_bad is None and np.isfinite(vals[0]) and np.isnan(vals[1])
        assert (vals.tobytes(), ok.tobytes()) == (ref_vals.tobytes(), ref_ok.tobytes())
        assert _sample_by_sample(model, a, b, 8)[2].tolist() == [-0.1875, 0.3]
        with pytest.raises(ValueError) as err:
            _segment_values(model, a, b, nsub=8)
    assert str(err.value) == ("the frame or the weight is not finite at [-0.1875, 0.3] "
                              "inside the domain box")


NEAR_NULL_GAPS = [1e-15, 1.02e-14, 1e-12, 1e-9, 1e-6, 1e-3, 1.0]


@pytest.mark.parametrize("g", NEAR_NULL_GAPS)
def test_near_null_chords_keep_their_digits(g):
    # (0, 0) -> (3, 3 - g) has weighted length m sqrt((dt - dx)(dt + dx)); forming
    # dt^2 - dx^2 from squares lost 7e-3 of it, relatively, at g = 1.02e-14
    m = modelfile.load(os.path.join(MODELS, "flat2d.json"))
    p, q = np.zeros(2), np.array([3.0, 3.0 - g])
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        dt, dx = decimal.Decimal(q[0]), decimal.Decimal(q[1])
        exact = float(decimal.Decimal(abs(m.mass)) * ((dt - dx) * (dt + dx)).sqrt())
    for value in (_segment_values(m, p[None], q[None])[0][0],
                  max_weighted_length(p, q, m, method="closed"),
                  future_cone((p, 0.2), m, grid=q[None], method="closed").weighted[0]):
        assert abs(value - exact) <= 4 * math.ulp(exact)


@pytest.mark.parametrize("g", [pytest.param(NEAR_NULL_GAPS[0], marks=pytest.mark.xfail(
    strict=True, reason="refinement accepts segments spacelike by an ulp, within CURVE_TOL, "
    "at value 0, and their neighbours gain: dp reads 1.43x the closed form"))]
    + NEAR_NULL_GAPS[1:])
def test_near_null_dp_stays_below_the_closed_form(g):
    # the lattice's nodes round, so dp is held only to the bound, not to 4 ulps
    m = modelfile.load(os.path.join(MODELS, "flat2d.json"))
    p, q = np.zeros(2), np.array([3.0, 3.0 - g])
    assert (max_weighted_length(p, q, m, method="dp")
            <= max_weighted_length(p, q, m, method="closed") + 1e-9)


# ---------------------------------------------------------------------------
# causal relation and maximization


@pytest.mark.parametrize("q,related", [
    ([2.0, 0.0], True),
    ([1.0, 1.0], True),     # null
    ([1.0, 1.5], False),    # spacelike
    ([-1.0, 0.0], False),   # past
])
def test_flat_relation(q, related):
    m = flat2()
    assert is_causally_related([0.0, 0.0], q, m) is related


def test_conformal_relation_matches_flat_cone():
    # a conformal factor rescales the metric without moving the light cones
    m = SpacetimeModel.conformal("1 + 0.3*sin(t)*cos(x)", mass=1.0,
                                 box=[[-3, 3], [-3, 3]])
    rng = np.random.default_rng(42)
    for _ in range(50):
        p = rng.uniform(-2, 2, 2)
        q = rng.uniform(-2, 2, 2)
        flat = (q[0] - p[0]) >= abs(q[1] - p[1])
        assert is_causally_related(p, q, m) == flat


def test_max_weighted_length_flat_closed_form():
    m = flat2(mass=1.5)
    val = max_weighted_length([0.0, 0.0], [2.0, 1.0], m)
    assert val == pytest.approx(1.5 * np.sqrt(3.0), rel=1e-12)


def test_max_weighted_length_not_related():
    m = flat2()
    with pytest.raises(NotRelatedError):
        max_weighted_length([0.0, 0.0], [0.5, 2.0], m)


def test_dp_lower_bounds_closed_form():
    m = flat2()
    for q in ([2.0, 0.0], [3.0, 1.0], [1.5, -0.5]):
        closed = max_weighted_length([0.0, 0.0], q, m, method="closed")
        dp = max_weighted_length([0.0, 0.0], q, m, method="dp")
        assert dp <= closed + 1e-9
        assert dp >= closed - 2e-3


def test_closed_method_demands_flat_constant():
    m = SpacetimeModel.conformal("1 + 0.1*t", mass=1.0,
                                 box=[[-3, 3], [-3, 3]])
    with pytest.raises(ValueError):
        max_weighted_length([0.0, 0.0], [1.0, 0.0], m, method="closed")


def test_return_curve_is_admissible_and_matches():
    m = SpacetimeModel.conformal("1 + 0.2*cos(x)", mass=1.0,
                                 box=[[-3, 3], [-3, 3]])
    val, curve = max_weighted_length([-1.0, 0.0], [1.5, 0.3], m, return_curve=True)
    assert weighted_length(curve, m) == pytest.approx(val, rel=1e-9)
    report = validate_curve(curve, m)
    assert report.causal_flags.all()
    assert report.future_flags.all()


def test_single_source_field_is_certified_lower_bound():
    # raw node values bound the supremum from below (they quantize slopes); the
    # pointwise solver then refines
    m = SpacetimeModel.conformal("1 + 0.15*sin(x)", mass=1.0,
                                 box=[[-2, 2], [-2, 2]],
                                 resolutions={"time_steps": 101, "space_steps": 101})
    p = np.array([-1.0, 0.0])
    field = single_source_field(m, p, 1.8)
    for q in ([0.5, 0.3], [1.5, -0.4], [-0.5, 0.2]):
        best = max_weighted_length(p, q, m)
        node = field.value[field.node_below(q)]
        assert 0.0 < node <= best + 1e-9
    # finite nodes are exactly the nodes in the box, in J+(p) and no later than t_max
    pts = field.points(*np.indices(field.value.shape))
    dt = pts[..., 0] - p[0]
    assert np.all(np.abs(pts[..., 1] - p[1]) <= dt + 1e-12)
    assert np.array_equal(np.isfinite(field.value), m.in_domain(pts) & (pts[..., 0] <= 1.8))


def test_single_source_field_path_extraction():
    m = flat2()
    field = single_source_field(m, [0.0, 0.0], 2.0, time_steps=81)
    i, j = 50, 30  # u = 2.5, v = 1.5: the node at (2.0, 0.5)
    np.testing.assert_allclose(field.points(i, j), [2.0, 0.5], atol=1e-12)
    path = field.extract_path(i, j)
    np.testing.assert_allclose(path[0], [0.0, 0.0], atol=1e-12)
    np.testing.assert_array_equal(path[-1], field.points(i, j))
    step = np.diff(path, axis=0)
    assert np.all(step[:, 0] > 0)
    assert np.all(np.abs(step[:, 1]) <= step[:, 0] + 1e-12)
    # the stored value is the path's own edge sum
    assert np.sum(_segment_values(m, path[:-1], path[1:], nsub=1)[0]) == pytest.approx(
        field.value[i, j], abs=1e-12)


# every shipped model with an inter-sheet weight, with its chord speed: a
# coordinate speed below the slowest local light speed over the box
REFINE_MODELS = [("cone2d", 0.6), ("conformal2d", 0.6), ("flat2d", 0.6),
                 ("flat4d", 0.6), ("scalar2d", 0.6), ("vielbein4d", 0.45)]


@pytest.mark.parametrize("name,speed", REFINE_MODELS)
def test_refined_polyline_invariants(name, speed):
    m = modelfile.load(os.path.join(MODELS, f"{name}.json"))
    nsub = int(m.resolutions["quadrature"])
    box = m.domain_box
    rng = np.random.default_rng(17)
    for _ in range(2):
        p = box[:, 0] + rng.uniform(0.1, 0.4, m.dimension) * (box[:, 1] - box[:, 0])
        dt = rng.uniform(0.4, 0.9) * (box[0, 1] - p[0])
        u = rng.normal(size=m.dimension - 1)
        q = np.concatenate([[p[0] + dt], p[1:] + speed * dt * u / np.linalg.norm(u)])
        q[1:] = np.clip(q[1:], box[1:, 0], box[1:, 1])

        val, curve = max_weighted_length(p, q, m, method="dp", return_curve=True)
        # the lattice path that refinement starts from, summed unrefined
        lattice = _diamond_path(m, p, q, max(int(m.resolutions["time_steps"]) // 2, 1))
        unrefined = np.sum(_segment_values(m, lattice[:-1], lattice[1:], nsub=nsub)[0])
        # the curve resamples each polyline segment at 4 points
        nodes = curve.points[::4]
        vals, ok = _segment_values(m, nodes[:-1], nodes[1:], nsub=nsub)
        assert ok.all()
        assert val == pytest.approx(np.sum(vals), abs=1e-12)
        assert val >= unrefined
        if name == "flat2d":
            assert val <= max_weighted_length(p, q, m, method="closed") + 1e-9


def test_lattice_reaches_the_discrete_cone_below_the_closed_form():
    m = flat2()
    p = np.array([-1.0, 0.25])
    # dyadic coordinates keep the null edges exactly null, so no rounding lifts a
    # cone-boundary node above the closed form
    field = single_source_field(m, p, 1.0, time_steps=33)
    assert field.hu == field.hv == 0.125
    pts = field.points(*np.indices(field.value.shape))
    finite = np.isfinite(field.value)
    assert np.array_equal(finite, m.in_domain(pts) & (pts[..., 0] <= 1.0))
    dt = pts[..., 0] - p[0]
    closed = np.sqrt(np.clip(dt ** 2 - (pts[..., 1] - p[1]) ** 2, 0.0, None))
    assert np.all(field.value[finite] <= closed[finite] + 1e-12)
    # every node on the source's null lines carries exactly 0
    assert np.all(field.value[0, :][finite[0, :]] == 0.0)
    assert np.all(field.value[:, 0][finite[:, 0]] == 0.0)


LATTICE_2D_MODELS = ["cone2d", "conformal2d", "flat2d", "scalar2d"]


@pytest.mark.parametrize("name", LATTICE_2D_MODELS)
def test_diamond_sweep_reaches_every_related_pair(name):
    # near-null and near-vertical pairs included: p and q are the diamond's corners
    m = modelfile.load(os.path.join(MODELS, f"{name}.json"))
    box = m.domain_box
    steps = int(m.resolutions["time_steps"]) // 2
    rng = np.random.default_rng(40)
    slopes = np.concatenate([rng.uniform(-1, 1, 28), [1.0, -1.0, 1 - 1e-9, -1 + 1e-9],
                             [1e-4, -1e-4, 1e-7, -1e-9, 0.0], [1 - 1e-6, 0.999, -0.999]])
    assert len(slopes) == 40
    for slope in slopes:
        p = box[:, 0] + rng.uniform(0.05, 0.5, 2) * (box[:, 1] - box[:, 0])
        dt = rng.uniform(0.05, 0.95) * (box[0, 1] - p[0])
        dt = min(dt, (box[1, 1] - p[1] if slope > 0 else p[1] - box[1, 0]) / max(abs(slope), 1e-12))
        q = p + np.array([dt, slope * dt])
        assert is_causally_related(p, q, m)
        path = _diamond_path(m, p, q, steps)
        assert path is not None, (p, q)
        np.testing.assert_array_equal(path[0], p)
        np.testing.assert_array_equal(path[-1], q)


def test_near_vertical_pair_decides_fast():
    m = modelfile.load(os.path.join(MODELS, "scalar2d.json"))
    t0 = time.monotonic()
    dec = decide(((0.0, 0.0), 0.2), ((2.0, 1e-4), 0.5), m, method="dp")
    assert time.monotonic() - t0 < 5.0
    assert dec.related
    # the straight vertical chord gives 2 + 2^2 / 2 = 4
    assert 4.0 - 1e-6 <= dec.achieved <= 4.0


VIELBEIN_PAIR = ((-2.0, -2.0, 0.0, 0.0), (2.0, 1.3, 0.0, 0.0))


def test_vielbein_pair_with_a_spacelike_chord_is_related():
    # the chord's speed 0.825 exceeds the x light speed 1 + 0.1 t at early times
    m = modelfile.load(os.path.join(MODELS, "vielbein4d.json"))
    p, q = map(np.array, VIELBEIN_PAIR)
    _, chord_ok = _segment_values(m, p[None], q[None], nsub=16)
    assert not chord_ok[0]
    assert is_causally_related(p, q, m) is True
    val, curve = max_weighted_length(p, q, m, return_curve=True)
    assert validate_curve(curve, m).passed
    assert val > 0.0
    assert weighted_length(curve, m) == pytest.approx(val, rel=1e-3)  # Simpson vs midpoints


def test_decision_sweeps_once(monkeypatch):
    m = modelfile.load(os.path.join(MODELS, "vielbein4d.json"))
    calls = []
    sweep = geometry._sweep
    monkeypatch.setattr(geometry, "_sweep", lambda *a, **k: calls.append(1) or sweep(*a, **k))
    p, q = VIELBEIN_PAIR
    dec = decide((p, 0.0), (q, 0.5), m, method="dp")
    assert dec.related
    assert len(calls) == 1


def test_4d_closed_form():
    m = flat4(mass=1.0)
    val = max_weighted_length([0.0, 0.0, 0.0, 0.0], [2.0, 1.0, 0.5, 0.5], m)
    assert val == pytest.approx(np.sqrt(4.0 - 1.5), rel=1e-12)
