"""Relation decisions, cone surfaces, and mass-field fluctuations."""

import numpy as np
import pytest

from twosheet.causality import (
    decide,
    fluctuate,
    future_cone,
    internal_gap,
    required_proper_time,
)
from twosheet.geometry import DomainError, MixedState, SpacetimeModel


def flat2(mass=1.0, box=None):
    return SpacetimeModel.minkowski(2, mass=mass, box=box)


def diag2():
    return SpacetimeModel.minkowski(2, mass=1.0, mass_kind="diagonal")


# ---------------------------------------------------------------------------
# internal budget


def test_internal_gap_values():
    assert internal_gap(0.0, 1.0) == pytest.approx(np.pi / 2, abs=1e-15)
    assert internal_gap(1.0, 0.0) == pytest.approx(np.pi / 2, abs=1e-15)
    assert internal_gap(0.3, 0.3) == 0.0
    assert internal_gap(0.25, 0.75) == pytest.approx(np.pi / 6, abs=1e-12)


def test_internal_gap_rejects_out_of_range():
    with pytest.raises(ValueError):
        internal_gap(-0.1, 0.5)
    with pytest.raises(ValueError):
        internal_gap(0.5, 1.5)


def test_required_budget_by_mass_kind():
    assert required_proper_time(0.0, 1.0, flat2(mass=2.0)) == pytest.approx(np.pi / 4)
    assert required_proper_time(0.0, 1.0, flat2(mass=0.0)) == np.inf
    assert required_proper_time(0.4, 0.4, flat2(mass=0.0)) == 0.0
    scalar = fluctuate(flat2(), "1 + t*t")
    assert required_proper_time(0.0, 1.0, scalar) == pytest.approx(np.pi / 2)
    assert required_proper_time(0.0, 1.0, diag2()) == np.inf
    assert required_proper_time(0.7, 0.7, diag2()) == 0.0


# ---------------------------------------------------------------------------
# decisions


def test_full_internal_swap_needs_half_pi_of_proper_time():
    m = flat2()
    dec = decide(((0.0, 0.0), 0.0), ((2.0, 0.0), 1.0), m)
    assert dec.related and dec.base_related
    assert dec.method == "closed"
    assert dec.achieved == pytest.approx(2.0, abs=1e-15)
    assert dec.required == pytest.approx(np.pi / 2, abs=1e-15)
    assert dec.slack == pytest.approx(2.0 - np.pi / 2, abs=1e-12)
    assert not dec.marginal

    short = decide(((0.0, 0.0), 0.0), ((1.0, 0.0), 1.0), m)
    assert short.base_related and not short.related
    assert short.slack < 0


def test_null_separation_carries_no_budget():
    m = flat2()
    same = decide(((0.0, 0.0), 0.3), ((1.0, 1.0), 0.3), m)
    assert same.related
    assert same.achieved == 0.0
    moved = decide(((0.0, 0.0), 0.3), ((1.0, 1.0), 0.31), m)
    assert moved.base_related and not moved.related


def test_spacelike_and_past_pairs_are_not_related():
    m = flat2()
    assert not decide(((0.0, 0.0), 0.2), ((0.5, 2.0), 0.2), m).base_related
    back = decide(((1.0, 0.0), 0.2), ((0.0, 0.0), 0.2), m)
    assert not back.base_related and not back.related
    assert decide(((0.0, 0.0), 0.2), ((1.0, 0.0), 0.2), m).related


def test_threshold_pair_is_marginal_for_both_methods():
    m = flat2()
    p, q = (0.0, 0.0), (np.pi / 2, 0.0)
    closed = decide((p, 0.0), (q, 1.0), m, method="closed")
    assert closed.related and closed.marginal
    assert closed.band == pytest.approx(1e-9)
    dp = decide((p, 0.0), (q, 1.0), m, method="dp")
    assert dp.marginal
    assert dp.band == pytest.approx(2e-3)
    assert dp.achieved <= closed.achieved + 1e-9  # lattice is a lower bound


def test_decisive_pair_is_not_marginal_unless_band_widened():
    m = flat2()
    dec = decide(((0.0, 0.0), 0.0), ((2.0, 0.0), 1.0), m)
    assert not dec.marginal
    wide = decide(((0.0, 0.0), 0.0), ((2.0, 0.0), 1.0), m, tol=0.5)
    assert wide.marginal and wide.band == 0.5


def test_decide_validates_inputs():
    m = flat2()
    with pytest.raises(DomainError):
        decide(((0.0, 0.0), 0.0), ((9.0, 0.0), 1.0), m)
    with pytest.raises(ValueError):
        decide(((0.0, 0.0), 0.0), ((1.0, 0.0), 1.0), m, method="bogus")
    conf = SpacetimeModel.conformal("1 + 0.1*t*t", mass=1.0, box=[[-2, 2], [-2, 2]])
    with pytest.raises(ValueError):
        decide(((0.0, 0.0), 0.0), ((1.0, 0.0), 1.0), conf, method="closed")


def test_dp_agrees_with_closed_on_clear_pairs():
    m = flat2()
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = rng.uniform(-1, 1, 2)
        q = p + np.array([rng.uniform(0.5, 2.0), 0.0])
        q[1] += rng.uniform(-0.3, 0.3) * (q[0] - p[0])
        xi, phi = rng.uniform(0, 1, 2)
        c = decide((p, xi), (q, phi), m, method="closed")
        d = decide((p, xi), (q, phi), m, method="dp")
        if abs(c.slack) > 5e-3:  # outside the dp uncertainty band
            assert c.related == d.related
        assert d.achieved <= c.achieved + 1e-9


def test_diagonal_decisions_are_exact():
    m = diag2()
    ok = decide(((0.0, 0.0), 0.5), ((1.0, 0.5), 0.5), m)
    assert ok.related and ok.method == "diagonal" and ok.required == 0.0
    off = decide(((0.0, 0.0), 0.5), ((1.0, 0.5), 0.5 + 1e-15), m)
    assert not off.related and off.required == np.inf
    outside = decide(((0.0, 0.0), 0.5), ((0.2, 1.0), 0.5), m)
    assert not outside.related and outside.base_related is False
    # the exact path runs before method and tol are read
    forced = decide(((0.0, 0.0), 0.5), ((1.0, 0.5), 0.5), m, method="closed", tol=0.5)
    assert forced == ok


# ---------------------------------------------------------------------------
# cone surfaces


def test_closed_cone_matches_inverted_formula():
    m = flat2(box=[[0, 2], [-2, 2]])
    xi = 0.1
    surf = future_cone(((0.0, 0.0), xi), m,
                       grid=(np.linspace(0, 2, 41), np.linspace(-2, 2, 41)))
    assert surf.method == "closed"
    assert surf.grid_shape == (41, 41)
    dt = surf.points[:, 0]
    r = np.abs(surf.points[:, 1])
    reach = surf.reachable
    # membership may differ from the exact cone only by float noise at the boundary
    assert np.all(reach[r <= dt - 1e-9])
    assert not np.any(reach[r >= dt + 1e-9])
    tau = np.sqrt(np.clip(dt**2 - r**2, 0, None))
    want = np.sin(np.minimum(np.pi / 2, np.arcsin(np.sqrt(xi)) + tau)) ** 2
    np.testing.assert_allclose(surf.phi_max[reach], want[reach], atol=1e-12)
    assert np.all(np.isnan(surf.phi_max[~reach]))
    assert surf.validation is not None
    assert surf.validation["passed"] == 1.0 and surf.validation["checked"] > 0


def test_cone_validation_can_be_skipped():
    m = flat2(box=[[0, 1], [-1, 1]])
    surf = future_cone(((0.0, 0.0), 0.0), m, grid=np.array([[0.5, 0.0], [0.5, 0.9]]),
                       validate=0)
    assert surf.validation is None
    assert surf.grid_shape is None
    assert surf.phi_max[0] == pytest.approx(np.sin(0.5) ** 2, abs=1e-12)


def test_dp_cone_tracks_closed_on_flat_weight():
    box = [[0, 2], [-2, 2]]
    m = flat2(box=box)
    axes = (np.linspace(0, 2, 21), np.linspace(-2, 2, 21))
    ref = future_cone(((0.0, 0.0), 0.0), m, grid=axes)
    conf = SpacetimeModel.conformal("1", mass=1.0, box=box)
    got = future_cone(((0.0, 0.0), 0.0), conf, grid=axes, time_steps=201)
    assert got.method == "dp"
    both = ref.reachable & got.reachable
    assert np.allclose(got.phi_max[both], ref.phi_max[both], atol=2e-3)
    assert not np.any(got.reachable & ~ref.reachable)


def test_dp_cone_off_lattice_source_stays_below_closed_form():
    # the nearest lattice node of a target can lie later than the target (this
    # source overshot by 9.7e-3); the surface must read a node in its past instead
    m = flat2(box=[[-5, 5], [-5, 5]])
    axes = (np.linspace(-5, 5, 201), np.linspace(-5, 5, 201))
    state = ((-4.7158, -0.5439), 0.49)
    ref = future_cone(state, m, grid=axes, method="closed", validate=0)
    got = future_cone(state, m, grid=axes, method="dp")
    assert np.array_equal(got.reachable, ref.reachable)
    excess = got.phi_max[got.reachable] - ref.phi_max[ref.reachable]
    assert excess.max() <= 1e-9
    assert excess.min() >= -2e-3


def test_dp_cone_null_targets_get_no_budget():
    # the chord to a target on the source's null lines is exactly null, so it adds
    # nothing: no target may rise above the closed form
    m = flat2(box=[[-5, 5], [-5, 5]])
    axes = (np.linspace(-5, 5, 201), np.linspace(-5, 5, 201))
    state = ((-4.7, -0.5), 0.5)
    ref = future_cone(state, m, grid=axes, method="closed", validate=0)
    got = future_cone(state, m, grid=axes, method="dp")
    assert np.array_equal(got.reachable, ref.reachable)
    reach = ref.reachable
    assert np.all(got.weighted[reach] <= ref.weighted[reach] + 1e-9)
    assert np.all(got.phi_max[reach] <= ref.phi_max[reach] + 1e-9)


def test_cone_surface_rejections():
    with pytest.raises(ValueError):
        future_cone(((0.0, 0.0), 0.5), diag2())
    m = flat2(box=[[0, 1], [-1, 1]])
    with pytest.raises(DomainError):
        future_cone(((0.0, 0.0), 0.5), m, grid=np.array([[5.0, 0.0]]))
    with pytest.raises(ValueError):
        future_cone(((0.0, 0.0), 0.5), m, grid=(np.linspace(0, 1, 5),))
    viel = SpacetimeModel.with_vielbein([["1", "0", "0", "0"], ["0", "1", "0", "0"],
                                         ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
                                        mass=1.0, box=[[-1, 1]] * 4)
    with pytest.raises(NotImplementedError):
        future_cone(((0.0, 0.0, 0.0, 0.0), 0.0), viel,
                    grid=np.array([[0.5, 0.0, 0.0, 0.0]]))
    # the 1+1 lattice would read a spacelike target off the x axis as reachable
    flat4 = SpacetimeModel.minkowski(4, mass=1.0, box=[[-3, 3]] * 4)
    with pytest.raises(NotImplementedError):
        future_cone(((0.0, 0.0, 0.0, 0.0), 0.3), flat4,
                    grid=([2.0], [0.0], [3.0], [0.0]), method="dp", time_steps=41)
    assert not future_cone(((0.0, 0.0, 0.0, 0.0), 0.3), flat4,
                           grid=([2.0], [0.0], [3.0], [0.0])).reachable[0]


# ---------------------------------------------------------------------------
# fluctuations


def test_unit_weight_reproduces_constant_mass_exactly():
    base = flat2(mass=1.0, box=[[0, 3], [-3, 3]])
    fluct = fluctuate(base, "1")
    assert fluct.mass_kind == "scalar"
    rng = np.random.default_rng(11)
    for _ in range(5):
        p = np.array([0.0, rng.uniform(-1, 1)])
        q = p + np.array([rng.uniform(0.8, 2.5), rng.uniform(-0.5, 0.5)])
        xi, phi = rng.uniform(0, 1, 2)
        b = decide((p, xi), (q, phi), base, method="dp")
        f = decide((p, xi), (q, phi), fluct, method="dp")
        assert f.achieved == b.achieved  # same lattice, weight 1 == |m| = 1
        assert f.related == b.related


def test_growing_weight_lowers_the_flip_time():
    base = flat2(box=[[0, 3], [-3, 3]])
    fluct = fluctuate(base, "1 + t")
    # straight vertical chord accumulates T + T^2/2 of budget
    flip = np.sqrt(1.0 + np.pi) - 1.0
    early = decide(((0.0, 0.0), 0.0), ((flip - 0.05, 0.0), 1.0), fluct)
    late = decide(((0.0, 0.0), 0.0), ((flip + 0.05, 0.0), 1.0), fluct)
    assert not early.related
    assert late.related
    assert late.method == "dp"


def test_vanishing_weight_warns():
    base = flat2(box=[[0, 2], [-2, 2]])
    with pytest.warns(UserWarning):
        fluctuate(base, "t")


def test_nonfinite_weight_rejected():
    base = flat2(box=[[-1, 1], [-1, 1]])
    with pytest.raises(ValueError):
        fluctuate(base, "1 / x")


def test_fluctuation_keeps_the_base_model():
    base = SpacetimeModel.conformal("1 + 0.1*t", mass=0.5, box=[[0, 2], [-1, 1]],
                                    resolutions={"time_steps": 41})
    fluct = fluctuate(base, "1 + x*x")
    np.testing.assert_array_equal(fluct.domain_box, base.domain_box)
    assert dict(fluct.resolutions) == dict(base.resolutions)
    assert fluct.conformal_factor is base.conformal_factor
    assert fluct.mass_field.source == "1 + x*x" and fluct.source is None

    frame = [["1", "0", "0", "0"], ["0", "1 + 0.1*t", "0", "0"],
             ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    base4 = SpacetimeModel.with_vielbein(frame, box=[[-1, 1]] * 4)
    assert fluctuate(base4, "1").vielbein is base4.vielbein


def test_weight_is_checked_on_the_dense_2d_grid():
    # 1 / (x - 1/16) is finite on 9 samples per axis of [-1, 1] but not on 33
    with pytest.raises(ValueError, match="not finite"):
        fluctuate(flat2(box=[[-1, 1], [-1, 1]]), "1 / (x - 0.0625)")


def test_vector_potentials_come_in_pairs():
    base = flat2()
    with pytest.raises(ValueError):
        fluctuate(base, "1", A=("t", "x"))
    with pytest.raises(ValueError):
        fluctuate(base, "1", A=("t",), B=("x",))
    ok = fluctuate(base, "1", A=("t", "x"), B=("0.5", "0"))
    assert ok.vector_potentials is not None
    assert len(ok.vector_potentials[0]) == 2


# ---------------------------------------------------------------------------
# non-finite frames


def _sqrt_frame(expr):
    return SpacetimeModel.with_vielbein(
        [[expr, "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"],
         ["0", "0", "0", "1"]], box=[[-1, 1]] * 4)


def test_nan_frame_along_the_pair_raises():
    # an API-built model skips validate; sqrt(x) is NaN on the whole pair, so no
    # verdict is right
    m = _sqrt_frame("sqrt(x)")
    with pytest.raises(ValueError, match="not finite"):
        decide(((0, -0.5, 0, 0), 0.1), ((0.8, -0.5, 0, 0), 0.3), m)


def test_nan_frame_outside_the_box_is_ignored():
    # the diamond of this pair reaches x = -1.3, where sqrt(x + 1.05) is NaN; only
    # samples inside the box must be finite
    m = _sqrt_frame("sqrt(x + 1.05)")
    d = decide(((0, -0.9, 0, 0), 0.1), ((0.8, -0.9, 0, 0), 0.3), m)
    assert d.base_related and d.related
