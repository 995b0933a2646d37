"""Random certified cone elements and the Monte-Carlo consistency check."""

import gc
import os
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from twosheet import cone, modelfile, oracle
from twosheet.causality import decide
from twosheet.clifford import make_representation
from twosheet.cone import (
    certification_grid,
    is_causal_element,
    ordering_gap,
    pointwise_min_eigenvalues,
)
from twosheet.geometry import MixedState, SpacetimeModel
from twosheet.oracle import ElementBank, mc_check, sample_causal_elements, thread_count

REP2 = make_representation(2)
MODELS = os.path.join(os.path.dirname(__file__), os.pardir, "models")


def _at(m, per_axis):
    """The model with `per_axis` certification grid points per axis (None keeps it)."""
    return m if per_axis is None else replace(
        m, resolutions={**m.resolutions, "certification": per_axis})


@pytest.fixture(scope="module")
def model():
    return SpacetimeModel.minkowski(2, mass=1.0, box=[[-2, 2], [-2, 2]])


@pytest.fixture(scope="module")
def elements(model):
    return sample_causal_elements(model, 12, 99)


# ---------------------------------------------------------------------------
# sampling


def test_sampling_is_deterministic(model, elements):
    again = sample_causal_elements(model, 12, 99)
    assert len(again) == len(elements)
    for x, y in zip(elements, again):
        assert x.min_eigenvalue == y.min_eigenvalue
        for key in ("centers", "widths", "waves", "phases", "amp_a", "amp_b"):
            np.testing.assert_array_equal(x.construction[key], y.construction[key])
        assert x.construction["shrink"] == y.construction["shrink"]


def test_sampling_ignores_worker_count(model, elements, monkeypatch):
    monkeypatch.setenv("TWOSHEET_THREADS", "4")
    threaded = sample_causal_elements(model, 12, 99)
    for x, y in zip(elements, threaded):
        assert x.construction["shrink"] == y.construction["shrink"]
        np.testing.assert_array_equal(x.construction["amp_a"], y.construction["amp_a"])


def test_every_element_is_certified_on_its_grid(model, elements):
    for el in elements:
        assert el.min_eigenvalue >= -1e-9
        res = is_causal_element(el.pair, model, REP2, grid=el.certified_grid)
        assert res.passed


def test_certificates_survive_grid_refinement(model, elements):
    fine = certification_grid(model, per_axis=201)  # 2x the sampling grid
    for el in elements:
        assert pointwise_min_eigenvalues(el.pair, fine, model, REP2).min() >= -1e-9


def test_shrink_only_reduces_amplitudes(elements):
    for el in elements:
        assert 0.0 < el.construction["shrink"] <= 1.0


def test_zero_amplitude_draw_degenerates_to_time(model):
    els = sample_causal_elements(model, 3, 99, amplitude=0.0)
    pq = np.array([[0.3, -0.5], [1.1, 0.2]])
    for el in els:
        assert el.construction["shrink"] == 1.0
        np.testing.assert_array_equal(el.pair.a.value(pq), pq[:, 0])
        np.testing.assert_array_equal(el.pair.b.value(pq), pq[:, 0])


def test_sampling_rejections(model):
    with pytest.raises(ValueError):
        sample_causal_elements(model, 0, 1)
    for amplitude in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="amplitude must be finite"):
            sample_causal_elements(model, 4, 3, amplitude=amplitude)
    diag = SpacetimeModel.minkowski(2, mass=1.0, mass_kind="diagonal")
    with pytest.raises(ValueError):
        sample_causal_elements(diag, 3, 1)


def test_nan_certificate_fails_closed(model):
    # a NaN draw makes every eigenvalue NaN; the certificate must reject it
    ctx = oracle._GridContext(_at(model, 21))
    assert np.isnan(ctx.min_eigenvalue(ctx.perturbation(
        oracle._draw_construction(np.random.default_rng(3), model, np.nan)), 0.5))
    assert all(oracle._build_element(i, 3, ctx, np.nan) is None for i in range(4))


def test_sampling_rejects_a_null_time_slicing():
    # frame rows make dT = (1, 1, 0, 0): the time function is null, not timelike
    m = SpacetimeModel.with_vielbein(
        [["1", "0", "0", "0"], ["1", "1", "0", "0"], ["0", "0", "1", "0"],
         ["0", "0", "0", "1"]], mass=1.0, box=[[-1, 1]] * 4,
        resolutions={"certification": 5})
    with pytest.raises(ValueError, match="causal time slicing"):
        sample_causal_elements(m, 4, 1)


def test_sampling_rejects_a_nan_frame():
    # sqrt(x) is NaN on half of the box; an API-built model skips validate, so the
    # time-slicing check must fail closed on NaN
    m = SpacetimeModel.with_vielbein(
        [["sqrt(x)", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"],
         ["0", "0", "0", "1"]], mass=1.0, box=[[-1, 1]] * 4,
        resolutions={"certification": 5})
    with pytest.raises(ValueError, match="causal time slicing"):
        sample_causal_elements(m, 1, 1)


def test_sampling_rejects_a_nan_frame_off_the_time_column():
    # dT reads only the frame's time column, so the NaN shows first in a draw
    m = SpacetimeModel.with_vielbein(
        [["1", "0", "0", "0"], ["0", "sqrt(x)", "0", "0"], ["0", "0", "1", "0"],
         ["0", "0", "0", "1"]], mass=1.0, box=[[-1, 1]] * 4,
        resolutions={"certification": 5})
    with pytest.raises(ValueError, match="frame is not finite"):
        sample_causal_elements(m, 4, 1)


def test_4d_sampling_certifies_on_its_grid():
    m4 = SpacetimeModel.minkowski(4, mass=1.0, box=[[-1.5, 1.5]] * 4,
                                  resolutions={"certification": 7})
    els = sample_causal_elements(m4, 2, 7)
    rep4 = make_representation(4)
    for el in els:
        assert pointwise_min_eigenvalues(el.pair, el.certified_grid, m4,
                                         rep4).min() >= -1e-9


# ---------------------------------------------------------------------------
# exact shrink against a bisection reference


def _bisected_shrink(min_eig, iters=20):
    """Largest dyadic s in [0, 1] with min_eig(s) >= 0, by plain bisection."""
    if min_eig(1.0) >= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if min_eig(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


# time column tilted off the frame's time axis: dT is not at rest, so the shrink
# boosts every point to the rest frame of dT
TILTED = SpacetimeModel.with_vielbein(
    [["1", "0.1*x", "0", "0"], ["0.5", "1 + 0.1*t", "0", "0"], ["0", "0", "1", "0"],
     ["0.2*t", "0", "0.1*y", "1 + 0.05*x"]], mass=0.8 + 0.6j, box=[[-2, 2]] * 4)


def _load(name):
    return TILTED if name == "tilted" else modelfile.load(os.path.join(MODELS, f"{name}.json"))


@pytest.mark.parametrize("name,per_axis,count", [
    ("flat2d", None, 6), ("conformal2d", None, 6), ("scalar2d", None, 6),
    ("flat4d", 7, 2), ("vielbein4d", 7, 2), ("tilted", 7, 2)])
def test_shrink_is_the_exact_root(name, per_axis, count):
    m = _at(_load(name), per_axis)
    rep = make_representation(m.dimension)
    grid = certification_grid(m)
    els = sample_causal_elements(m, count, 31)
    assert len(els) == count
    for el in els:
        c = el.construction
        s_exact = c["shrink"] / oracle.SAFETY_FACTOR
        bumps = tuple(c[key] for key in oracle.BUMP_KEYS)

        def min_eig(s):
            # independent route: the element field at shrink s, through cone.py
            pair = SimpleNamespace(a=oracle._bump_field(bumps, s * c["amp_a"]),
                                   b=oracle._bump_field(bumps, s * c["amp_b"]))
            return float(pointwise_min_eigenvalues(pair, grid, m, rep).min())

        gap = s_exact - _bisected_shrink(min_eig)
        assert 0.0 <= gap <= 2.0 ** -20 + 1e-12
        if s_exact < 1.0:
            scale = max(1.0, abs(min_eig(0.0)), abs(min_eig(1.0)))
            assert abs(min_eig(s_exact)) <= 1e-9 * scale
        assert min_eig(el.construction["shrink"]) >= -1e-9
        assert el.min_eigenvalue >= -1e-9


def _dense_grid_min(fa, fb, z):
    eigs = cone._min_eigenvalues(fa, fb, z)
    i = int(np.argmin(eigs))
    return float(eigs[i]), i


@pytest.mark.parametrize("name", ["flat4d", "vielbein4d", "tilted"])
def test_bracketed_sweep_matches_the_dense_sweep(name, monkeypatch):
    # 10^4 points, each sweep bracketed over the whole grid at once
    m = _at(_load(name), 10)
    bracketed = sample_causal_elements(m, 3, 1000)
    monkeypatch.setattr(oracle, "_grid_min", _dense_grid_min)
    dense = sample_causal_elements(m, 3, 1000)
    assert len(bracketed) == 3
    assert ([(el.construction["shrink"], el.min_eigenvalue) for el in bracketed]
            == [(el.construction["shrink"], el.min_eigenvalue) for el in dense])


# ---------------------------------------------------------------------------
# the per-axis factored draw against the point-by-bump draw


def _dense_draw(grid, c):
    """Sheet values (2, P) and coordinate gradients (2, P, n) of a draw's bumps at
    every grid point from the point-by-bump basis: the reference for the factored draw."""
    V, Gr = oracle._bump_basis(grid, *(c[key] for key in oracle.BUMP_KEYS), gradient=True)
    amps = (c["amp_a"], c["amp_b"])
    return [V @ a for a in amps], np.stack([np.einsum("pbk,b->pk", Gr, a) for a in amps])


def _close(x, ref, rtol=1e-13):
    assert np.max(np.abs(x - ref)) <= rtol * (1.0 + np.max(np.abs(ref)))


@pytest.mark.parametrize("name,per_axis", [("flat2d", None), ("scalar2d", None),
                                           ("vielbein4d", 7), ("tilted", None)])
def test_factored_draw_matches_the_dense_draw(name, per_axis):
    m = _at(_load(name), per_axis)
    ctx = oracle._GridContext(m)
    grid = certification_grid(m)
    # the factored draw's row order is the "ij" mesh of the axes: it must be the grid's
    mesh = np.stack(np.meshgrid(*ctx.axes, indexing="ij"), axis=-1).reshape(grid.shape)
    assert mesh.tobytes() == ctx.grid.tobytes() == grid.tobytes()
    for i in range(3):
        c = oracle._draw_construction(np.random.default_rng(i), m, 1.0)
        (va, vb), (ga, gb) = oracle._separable_draw(ctx.axes, c)
        (Va, Vb), (Ga, Gb) = _dense_draw(grid, c)
        _close(va, Va)
        _close(vb, Vb)
        _close(ga, Ga)
        _close(gb, Gb)
        _close(ctx.perturbation(c)[2], m.mass_at(grid) * (Va - Vb))


@pytest.mark.parametrize("name,count", [("flat2d", 6), ("scalar2d", 6), ("conformal2d", 6),
                                        ("flat4d", 2), ("vielbein4d", 2)])
def test_factored_shrinks_match_the_dense_draw(name, count, monkeypatch):
    m = _load(name)
    factored = sample_causal_elements(m, count, 17)
    grid = certification_grid(m)
    monkeypatch.setattr(oracle, "_separable_draw", lambda axes, c: _dense_draw(grid, c))
    dense = sample_causal_elements(m, count, 17)
    np.testing.assert_array_equal(factored.indices, dense.indices)
    np.testing.assert_allclose(factored.shrink, dense.shrink, rtol=1e-14, atol=0)
    np.testing.assert_allclose(factored.min_eigenvalue, dense.min_eigenvalue,
                               rtol=1e-14, atol=0)


@pytest.mark.parametrize("name", ["flat4d", "vielbein4d"])
def test_4d_bank_ignores_worker_count(name, monkeypatch):
    m = _at(_load(name), 7)
    monkeypatch.setenv("TWOSHEET_THREADS", "1")
    one = sample_causal_elements(m, 4, 23)
    monkeypatch.setenv("TWOSHEET_THREADS", "2")
    two = sample_causal_elements(m, 4, 23)
    for key in ("centers", "widths", "waves", "phases", "amps", "coef", "counts",
                "shrink", "indices", "min_eigenvalue"):
        assert getattr(one, key).tobytes() == getattr(two, key).tobytes(), key


# ---------------------------------------------------------------------------
# consistency checks


def test_identical_states_evaluate_to_exact_zero(model, elements):
    s = MixedState(np.array([0.37, -0.41]), 0.618)
    dec = decide(s, s, model)
    verdict = mc_check(s, s, elements, dec, model=model)
    assert verdict.kind == "consistent"
    assert verdict.min_value == 0.0
    assert verdict.checked == len(elements)


@pytest.mark.parametrize("name,count,per_axis", [
    ("box2", 40, None), ("flat2d", 40, None), ("vielbein4d", 24, 7)])
def test_batched_values_match_the_ordering_gap(model, name, count, per_axis):
    m = _at(model if name == "box2" else _load(name), per_axis)
    els = sample_causal_elements(m, count, 5)
    assert {len(el.construction["phases"]) for el in els} == {2, 3, 4}
    box = m.domain_box
    rng = np.random.default_rng(6)
    for _ in range(5):
        s1 = MixedState(rng.uniform(box[:, 0], box[:, 1]), float(rng.uniform()))
        s2 = MixedState(rng.uniform(box[:, 0], box[:, 1]), float(rng.uniform()))
        values = oracle._element_values(els, s1, s2)
        expect = [ordering_gap(el.pair, s1, s2) for el in els]
        np.testing.assert_allclose(values, expect, rtol=0.0, atol=1e-12)


def test_bank_slices_are_rows_of_the_bank(model, elements):
    assert isinstance(elements, ElementBank)
    s1, s2 = MixedState(np.array([-0.3, 0.2]), 0.25), MixedState(np.array([1.1, -0.4]), 0.7)
    whole = oracle._element_values(elements, s1, s2)
    for a, b in ((0, 5), (3, 12), (7, 8), (-4, None)):
        part = elements[a:b]
        assert isinstance(part, ElementBank) and part.grid is elements.grid
        np.testing.assert_array_equal(oracle._element_values(part, s1, s2), whole[a:b])
        assert ([el.construction["index"] for el in part]
                == [el.construction["index"] for el in elements][a:b])
    last = elements[-1]
    assert last.construction["index"] == elements[len(elements) - 1].construction["index"]
    with pytest.raises(IndexError):
        elements[len(elements)]


def test_view_pairs_hold_no_bank_and_no_grid(model):
    bank = sample_causal_elements(model, 4, 99)
    refs = [weakref.ref(bank.grid)] + [weakref.ref(getattr(bank, key))
                                       for key in oracle.BUMP_KEYS + ("coef",)]
    pairs = [el.pair for el in bank]
    del bank
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert pairs[0].description.startswith("sampled[")


def test_mc_check_without_elements(model, elements):
    s1, s2 = ((0.0, 0.0), 0.0), ((1.8, 0.1), 1.0)
    verdict = mc_check(s1, s2, elements[:0], decide(s1, s2, model), model=model)
    assert verdict.kind == "consistent"
    assert verdict.min_value == 0.0 and verdict.min_element is None
    assert verdict.checked == 0


def test_related_pair_is_consistent(model, elements):
    s1, s2 = ((0.0, 0.0), 0.0), ((1.8, 0.1), 1.0)
    dec = decide(s1, s2, model)
    assert dec.related
    verdict = mc_check(s1, s2, elements, dec, model=model)
    assert verdict.kind == "consistent" and verdict.consistent
    assert verdict.min_value >= -1e-9


def test_fabricated_related_decision_is_contradicted(model, elements):
    # past-directed pair: every monotone element strictly decreases
    s1, s2 = ((1.0, 0.0), 0.2), ((0.0, 0.0), 0.2)
    fake = SimpleNamespace(related=True, base_related=True)
    verdict = mc_check(s1, s2, elements, fake, model=model)
    assert verdict.kind == "contradiction"
    assert not verdict.consistent
    assert verdict.min_value < -0.5
    assert verdict.min_element is not None


def test_not_related_pair_gets_explicit_witness(model, elements):
    s1, s2 = ((0.0, 0.0), 0.0), ((1.0, 0.0), 1.0)  # too short for a full swap
    dec = decide(s1, s2, model)
    assert dec.base_related and not dec.related
    verdict = mc_check(s1, s2, elements, dec, model=model)
    assert verdict.kind == "witness_separates"
    assert verdict.witness_margin > 1e-6


def test_witness_unavailable_paths(model, elements):
    spacelike = decide(((0.0, 0.0), 0.1), ((0.2, 1.5), 0.9), model)
    v1 = mc_check(((0.0, 0.0), 0.1), ((0.2, 1.5), 0.9), elements, spacelike, model=model)
    assert v1.kind == "witness_unavailable"

    s1, s2 = ((0.0, 0.0), 0.0), ((1.0, 0.0), 1.0)
    v2 = mc_check(s1, s2, elements, decide(s1, s2, model))  # no model given
    assert v2.kind == "witness_unavailable"
    assert "model" in v2.note

    null = decide(((0.0, 0.0), 0.1), ((1.0, 1.0), 0.9), model)
    v3 = mc_check(((0.0, 0.0), 0.1), ((1.0, 1.0), 0.9), elements, null, model=model)
    assert v3.kind == "witness_unavailable"  # no timelike curve to build along


# ---------------------------------------------------------------------------
# worker cap


def test_thread_count_respects_env(monkeypatch):
    monkeypatch.setenv("TWOSHEET_THREADS", "3")
    assert thread_count(10) == 3
    assert thread_count(2) == 2
    monkeypatch.setenv("TWOSHEET_THREADS", "abc")
    with pytest.raises(ValueError):
        thread_count(4)
    monkeypatch.delenv("TWOSHEET_THREADS")
    assert thread_count(1) == 1
    assert thread_count(10**6) >= 1
