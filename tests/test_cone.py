"""Obstruction matrices, PSD certification, witnesses, spinors, saturation."""

import os
from fractions import Fraction

import numpy as np
import pytest

from twosheet import modelfile
from twosheet.clifford import make_representation
from twosheet.cone import (
    OBSTRUCTION_BLOCKS_4D,
    CausalElementPair,
    FunctionField,
    _assemble,
    _block_generators,
    _grid_min,
    certification_grid,
    charpoly_certificate,
    is_causal_element,
    is_psd,
    obstruction_matrices,
    ordering_gap,
    pair_field_data,
    pointwise_min_eigenvalues,
    saturation_vector,
    solve_spinor_system,
    verify_vector_noop,
    witness_certificate_2d,
    witness_certificate_4d,
    witness_element,
    witness_matrix_at,
    witness_tube_grid,
)
from twosheet.expressions import parse_expression
from twosheet.geometry import (MixedState, SpacetimeModel, max_weighted_length,
                               straight_curve)

REP2 = make_representation(2)
REP4 = make_representation(4)
MODELS = os.path.join(os.path.dirname(__file__), os.pardir, "models")


def flat2(mass=1.0):
    return SpacetimeModel.minkowski(2, mass=mass)


# ---------------------------------------------------------------------------
# obstruction assembly


def test_obstruction_is_hermitian_and_block_structured():
    m = flat2(mass=0.7 + 0.3j)
    pair = CausalElementPair.from_expressions("t + 0.2*x", "t - 0.1*x*x", 2)
    pts = np.random.default_rng(0).uniform(-1, 1, size=(20, 2))
    mats = obstruction_matrices(pair, pts, m, REP2)
    assert mats.shape == (20, 4, 4)
    assert np.abs(mats - np.conj(np.swapaxes(mats, -1, -2))).max() <= 1e-14


def test_equal_sheets_have_zero_coupling():
    m = flat2()
    pair = CausalElementPair.from_expressions("t", "t", 2)
    M = obstruction_matrices(pair, np.array([[0.3, -0.2]]), m, REP2)[0]
    assert np.abs(M[:2, 2:]).max() == 0.0
    assert np.abs(M - np.eye(4)).max() == 0.0  # time V is the identity


def test_dimension_mismatch_rejected():
    m = flat2()
    pair = CausalElementPair.from_expressions("t", "t", 2)
    with pytest.raises(ValueError):
        obstruction_matrices(pair, np.zeros((3, 4)), m, REP2)
    with pytest.raises(ValueError):
        obstruction_matrices(pair, np.zeros((3, 2)), m, REP4)


def test_nonfinite_gradient_rejected():
    m = flat2()
    pair = CausalElementPair.from_expressions("sqrt(t)", "t", 2)
    with pytest.raises(ValueError):
        pair_field_data(pair, np.array([[0.0, 0.0]]), m)


def test_frame_conversion_conformal():
    m = SpacetimeModel.conformal("2", mass=1.0, box=[[-3, 3], [-3, 3]])
    pair = CausalElementPair.from_expressions("t", "t", 2)
    _, _, fa, _, _ = pair_field_data(pair, np.array([[0.0, 0.0]]), m)
    np.testing.assert_allclose(fa[0], [2.0, 0.0])


# ---------------------------------------------------------------------------
# PSD certification


def test_is_psd_routes():
    assert is_psd(np.eye(4)).passed
    assert not is_psd(np.diag([1.0, -0.5, 2.0, 3.0])).passed
    with pytest.raises(ValueError):
        is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian


def test_charpoly_identity_coefficients():
    cert = charpoly_certificate(np.eye(4))
    np.testing.assert_allclose(cert.coefficients, [4.0, 6.0, 4.0, 1.0],
                               rtol=0, atol=1e-12)
    assert cert.passed


def test_charpoly_zero_matrix_passes():
    cert = charpoly_certificate(np.zeros((4, 4)))
    assert cert.passed
    assert cert.scale == 0.0


def test_charpoly_rejects_odd_sizes():
    with pytest.raises(ValueError):
        charpoly_certificate(np.eye(3))
    with pytest.raises(ValueError):
        charpoly_certificate(np.eye(6))


def test_charpoly_agrees_with_eigenvalue_route():
    rng = np.random.default_rng(17)
    for size in (4, 8):
        for _ in range(100):
            X = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
            H = (X + X.conj().T) / 2
            shift = rng.uniform(-1.0, 1.0)
            H += shift * np.eye(size)
            cert = charpoly_certificate(H)
            eig = is_psd(H)
            if eig.min_eigenvalue > 1e-9:
                assert cert.passed
            if eig.min_eigenvalue < -1e-6:
                assert not cert.passed


def test_witness_matrix_example_coefficients_are_rational():
    M = witness_matrix_at((1.0, 0.0, 0.0, 0.0), np.pi / 3, 1.0, REP4)
    cert = charpoly_certificate(M)
    want = [Fraction(32, 3), Fraction(384, 9), Fraction(2048, 27), Fraction(4096, 81)]
    for got, frac in zip(cert.coefficients[:4], want):
        assert got == pytest.approx(float(frac), abs=1e-12)
    assert np.abs(cert.unit_coefficients[4:]).max() <= 1e-12


def test_witness_closed_forms_2d():
    rng = np.random.default_rng(23)
    for _ in range(200):
        lam1, lam2 = np.exp(rng.uniform(-1.5, 1.5, 2))
        theta = rng.uniform(1e-3, np.pi / 2 - 1e-3)
        m = complex(rng.normal(), rng.normal()) or 0.5
        M = witness_matrix_at((lam1 + lam2, lam1 - lam2), theta, m, REP2)
        cert = charpoly_certificate(
            M, closed_form=witness_certificate_2d(lam1, lam2, theta, m))
        assert cert.closed_form_discrepancy <= 1e-10
        assert np.abs(cert.unit_coefficients[2:]).max() <= 1e-12
        assert np.linalg.eigvalsh(M)[0] / cert.scale >= -1e-10


def test_witness_closed_forms_4d():
    rng = np.random.default_rng(29)
    for _ in range(200):
        v = rng.normal(size=3)
        v *= rng.uniform(0, 0.95) / np.linalg.norm(v)
        w0 = np.exp(rng.uniform(-1.0, 1.2))
        w = np.concatenate(([w0], w0 * v))
        theta = rng.uniform(1e-3, np.pi / 2 - 1e-3)
        m = complex(rng.normal(), rng.normal()) or 0.5
        M = witness_matrix_at(w, theta, m, REP4)
        cert = charpoly_certificate(M, closed_form=witness_certificate_4d(w, theta, m))
        assert cert.closed_form_discrepancy <= 1e-9
        assert np.abs(cert.unit_coefficients[4:]).max() <= 1e-10
        assert np.all(cert.coefficients[:4] >= 0.0)


def test_witness_matrix_rejects_bad_tangents():
    with pytest.raises(ValueError):
        witness_matrix_at((1.0, 2.0), 0.5, 1.0, REP2)  # spacelike
    with pytest.raises(ValueError):
        witness_matrix_at((-1.0, 0.0), 0.5, 1.0, REP2)  # past-directed
    with pytest.raises(ValueError):
        witness_matrix_at((1.0, 0.0), 0.0, 1.0, REP2)  # degenerate angle


# ---------------------------------------------------------------------------
# grid membership


def test_certification_grid_shape():
    m = flat2()
    g = certification_grid(m, per_axis=11)
    assert g.shape == (121, 2)
    assert np.all(m.in_domain(g))


def test_time_pair_is_causal_element():
    m = flat2()
    pair = CausalElementPair.from_expressions("t", "t", 2)
    res = is_causal_element(pair, m, REP2, grid=certification_grid(m, per_axis=21))
    assert res.passed
    assert res.min_eigenvalue >= -1e-12


def test_steep_pair_is_not_causal_element():
    m = flat2()
    pair = CausalElementPair.from_expressions("t + 2*x", "t", 2)
    res = is_causal_element(pair, m, REP2, grid=certification_grid(m, per_axis=21))
    assert not res.passed
    assert res.min_eigenvalue < -1e-6
    assert res.worst_point is not None


def test_pointwise_min_eigenvalues_match_dense_eigsolver():
    rng = np.random.default_rng(31)
    for m in (SpacetimeModel.minkowski(2, mass=0.8 - 0.4j),
              SpacetimeModel.minkowski(4, mass=0.8 - 0.4j),
              modelfile.load(os.path.join(MODELS, "conformal2d.json")),
              modelfile.load(os.path.join(MODELS, "vielbein4d.json"))):
        dim = m.dimension
        rep = REP2 if dim == 2 else REP4
        pair = CausalElementPair.from_expressions(
            "t + 0.3*sin(x)", "t - 0.2*cos(x)", dim)
        pts = rng.uniform(-1, 1, size=(40, dim))
        fast = pointwise_min_eigenvalues(pair, pts, m, rep)
        dense = np.linalg.eigvalsh(obstruction_matrices(pair, pts, m, rep))[:, 0]
        np.testing.assert_allclose(fast, dense, atol=1e-12)


# ---------------------------------------------------------------------------
# bracketed grid minimum

G4 = _block_generators(REP4, OBSTRUCTION_BLOCKS_4D)


def _dense_grid_min(fa, fb, z):
    eigs = np.linalg.eigvalsh(_assemble(G4, fa, fb, z))[..., 0].min(axis=-1)
    i = int(np.argmin(eigs))
    return float(eigs[i]), i


def _random_blocks(rng, n, tilt=1.0):
    """Frame gradients of T + tilt * (random) and a random coupling at n points."""
    time = np.array([1.0, 0.0, 0.0, 0.0])
    fa, fb = time + tilt * rng.normal(size=(2, n, 4))
    z = tilt * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return fa, fb, z


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("tilt", [0.05, 0.3, 3.0])
def test_grid_min_matches_the_dense_sweep(seed, tilt):
    fa, fb, z = _random_blocks(np.random.default_rng(seed), 3000, tilt)
    assert _grid_min(fa, fb, z, G4) == _dense_grid_min(fa, fb, z)


def test_grid_min_with_zero_coupling():
    # z = 0 leaves B = 0, so the bracket is tight: lb = ub at every point
    fa, fb, _ = _random_blocks(np.random.default_rng(1), 2000, 0.3)
    z = np.zeros(2000, dtype=complex)
    assert _grid_min(fa, fb, z, G4) == _dense_grid_min(fa, fb, z)


def test_grid_min_takes_the_first_of_repeated_points():
    fa, fb, z = _random_blocks(np.random.default_rng(2), 500, 0.3)
    _, worst = _dense_grid_min(fa, fb, z)
    for k in (3, 17, min(worst + 5, 499)):  # copies of the worst point around it
        fa[k], fb[k], z[k] = fa[worst], fb[worst], z[worst]
    assert _grid_min(fa, fb, z, G4) == _dense_grid_min(fa, fb, z)
    assert _grid_min(fa, fb, z, G4)[1] == min(3, worst)
    same = [np.repeat(x[:1], 64, axis=0) for x in (fa, fb, z)]
    assert _grid_min(*same, G4) == (_dense_grid_min(*same)[0], 0)


@pytest.mark.parametrize("where", ["fa", "z"])
def test_grid_min_fails_closed_on_nan(where):
    # eigvalsh raises on NaN; the bracket reads the point as NaN instead
    fa, fb, z = _random_blocks(np.random.default_rng(3), 400, 0.3)
    {"fa": fa[:, 2], "z": z}[where][123] = np.nan
    value, index = _grid_min(fa, fb, z, G4)
    assert np.isnan(value) and index == 123


def test_grid_min_over_entries_from_1e_minus_8_to_1e4():
    rng = np.random.default_rng(4)
    fa, fb, z = _random_blocks(rng, 3000, 0.3)
    scale = 10.0 ** rng.uniform(-8, 4, size=(3, 3000))
    fa, fb, z = fa * scale[0, :, None], fb * scale[1, :, None], z * scale[2]
    assert _grid_min(fa, fb, z, G4) == _dense_grid_min(fa, fb, z)
    # the same spread with the large points kept PSD, so small points decide
    fa, fb, z = _random_blocks(rng, 3000, 0.1)
    fa, fb, z = fa * scale[0, :, None], fb * scale[0, :, None], z * scale[0]
    assert _grid_min(fa, fb, z, G4) == _dense_grid_min(fa, fb, z)


def test_is_causal_element_reports_the_dense_minimum():
    m = modelfile.load(os.path.join(MODELS, "vielbein4d.json"))
    pair = CausalElementPair.from_expressions(
        "t + 0.4*sin(x + y)", "t - 0.3*cos(x*z)", 4)
    grid = certification_grid(m, per_axis=9)
    res = is_causal_element(pair, m, REP4, grid=grid)
    eigs = pointwise_min_eigenvalues(pair, grid, m, REP4)
    assert res.min_eigenvalue == eigs.min()
    np.testing.assert_array_equal(res.worst_point, grid[np.argmin(eigs)])


# ---------------------------------------------------------------------------
# witness construction along curves


@pytest.mark.parametrize("xi,phi", [(1.0, 0.0), (0.0, 1.0), (0.02, 0.98), (0.9, 0.05)])
def test_witness_separates_and_certifies(xi, phi):
    m = flat2()
    curve = straight_curve([0.0, 0.0], [1.0, 0.2], n=65)
    wp = witness_element(curve, xi, phi, m)
    assert wp.separation() < 0.0
    tube = witness_tube_grid(curve, 0.15, per_sample=5)
    eigs = pointwise_min_eigenvalues(wp, tube, m, REP2)
    assert eigs.min() >= -1e-12
    # running angle stays inside the half-quadrant of its branch
    if wp.sigma > 0:
        assert np.all((wp.theta > 0) & (wp.theta < np.pi / 2))
    else:
        assert np.all((wp.theta > -np.pi / 2) & (wp.theta < 0))


def test_witness_on_conformal_model():
    m = SpacetimeModel.conformal("1 + 0.2*cos(x)", mass=1.2, box=[[-3, 3], [-3, 3]])
    curve = straight_curve([0.0, 0.0], [0.8, 0.1], n=65)
    wp = witness_element(curve, 0.1, 0.95, m)
    assert wp.separation() < 0.0
    tube = witness_tube_grid(curve, 0.1, per_sample=3)
    assert pointwise_min_eigenvalues(wp, tube, m, REP2).min() >= -1e-12


def test_witness_4d():
    m = SpacetimeModel.minkowski(4, mass=1.0)
    curve = straight_curve([0.0, 0.0, 0.0, 0.0], [1.0, 0.1, 0.1, 0.0], n=65)
    wp = witness_element(curve, 1.0, 0.0, m)
    assert wp.separation() < 0.0
    tube = witness_tube_grid(curve, 0.1, per_sample=3)
    assert pointwise_min_eigenvalues(wp, tube, m, REP4).min() >= -1e-12


def test_witness_on_vielbein_model():
    # the only witness whose frame gradients go back through the vielbein solve
    m = modelfile.load(os.path.join(MODELS, "vielbein4d.json"))
    _, curve = max_weighted_length((-0.2, 0.0, 0.0, 0.0), (0.3, 0.1, 0.05, 0.0), m,
                                   return_curve=True)
    wp = witness_element(curve, 1.0, 0.0, m)
    assert wp.separation() < 0.0
    tube = witness_tube_grid(curve, 0.1, per_sample=3)
    assert pointwise_min_eigenvalues(wp, tube, m, REP4).min() >= -1e-12


def test_witness_preconditions():
    m = flat2()
    curve = straight_curve([0.0, 0.0], [1.0, 0.0], n=65)
    with pytest.raises(ValueError):
        witness_element(curve, 0.5, 0.5, m)        # equal internal states
    with pytest.raises(ValueError):
        witness_element(curve, 0.45, 0.55, m)      # budget exceeds the gap
    spacelike = straight_curve([0.0, 0.0], [0.5, 2.0], n=65)
    with pytest.raises(ValueError):
        witness_element(spacelike, 1.0, 0.0, m)


@pytest.mark.parametrize("per_sample", [1, 2, 3, 4, 5])
def test_witness_tube_always_holds_the_curve(per_sample):
    curve = straight_curve([0.0, 0.0, 0.0, 0.0], [1.0, 0.2, 0.1, 0.0], n=5)
    tube = witness_tube_grid(curve, 0.1, per_sample=per_sample)
    for pt in curve.points:
        assert np.any(np.all(tube == pt, axis=1))
    # an even count or 1 spans [-r, r] without 0, so 0 joins as one more offset;
    # the 3 spatial axes share the zero shift, the curve itself
    offsets = per_sample + (per_sample % 2 == 0 or per_sample == 1)
    assert len(tube) == (3 * (offsets - 1) + 1) * len(curve.points)


def test_witness_tube_rejects_bad_input():
    curve = straight_curve([0.0, 0.0], [1.0, 0.2], n=5)
    for radius in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="radius must be finite"):
            witness_tube_grid(curve, radius)
    for per_sample in (0, -3):
        with pytest.raises(ValueError, match="per_sample must be >= 1"):
            witness_tube_grid(curve, 0.1, per_sample=per_sample)


def test_ordering_gap_is_exactly_zero_for_identical_states():
    m = flat2()
    pair = CausalElementPair.from_expressions("t + 0.1*sin(x)", "t - 0.3*x", 2)
    s = MixedState(np.array([0.37, -1.21]), 0.642)
    assert ordering_gap(pair, s, s) == 0.0


# ---------------------------------------------------------------------------
# spinor expectations and saturation


@pytest.mark.parametrize("dim,rep", [(2, REP2), (4, REP4)])
def test_spinor_system_residuals(dim, rep):
    rng = np.random.default_rng(37)
    worst = 0.0
    for i in range(300):
        if i % 10 == 0:
            w = np.concatenate(([1.3], np.zeros(dim - 1)))
        elif dim == 4 and i % 7 == 0:
            w = np.array([1.0, 0.0, 0.0, 0.6])  # spatial part along the last axis
        else:
            v = rng.normal(size=dim - 1)
            v *= rng.uniform(0, 0.95) / np.linalg.norm(v)
            w0 = np.exp(rng.uniform(-1.0, 1.0))
            w = np.concatenate(([w0], w0 * v))
        sol = solve_spinor_system(w, rep)
        worst = max(worst, sol.residual)
        np.testing.assert_allclose(sol.target, w)
    assert worst <= 1e-10


def test_spinor_system_rejects_nontimelike():
    with pytest.raises(ValueError):
        solve_spinor_system([1.0, 1.0], REP2)
    with pytest.raises(ValueError):
        solve_spinor_system([-2.0, 0.0], REP2)


@pytest.mark.parametrize("dim,rep", [(2, REP2), (4, REP4)])
def test_saturation_attains_the_mixing_bound(dim, rep):
    rng = np.random.default_rng(41)
    model = SpacetimeModel.minkowski(dim, mass=0.9 + 0.5j)
    pair = CausalElementPair.from_expressions("t + 0.2*x", "t - 0.3*x", dim)
    pt = np.zeros(dim)
    pt[0], pt[1] = 0.5, 0.4  # sheet values differ here, so the coupling is live
    a, b, fa, fb, z = pair_field_data(pair, pt[None, :], model)
    M = obstruction_matrices(pair, pt[None], model, rep)[0]
    for _ in range(25):
        v = rng.normal(size=dim - 1)
        v *= rng.uniform(0, 0.9) / np.linalg.norm(v)
        w0 = rng.uniform(0.5, 2.0)
        w = np.concatenate(([w0], w0 * v))
        sol = solve_spinor_system(w, rep)
        chi = rng.uniform(0.0, 1.0)
        sat = saturation_vector(chi, sol, model.mass, float(a[0] - b[0]))
        quad = float(np.real(sat.vector.conj() @ M @ sat.vector))
        want = (chi * float(fa[0] @ w) + (1 - chi) * float(fb[0] @ w)
                - sat.bound)
        assert sat.bound > 0.0
        assert quad == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_saturation_bound_formula():
    sol = solve_spinor_system([2.0, 0.6], REP2)
    sat = saturation_vector(0.25, sol, 1.0 + 1.0j, 0.8)
    G = 4.0 - 0.36
    assert sat.bound == pytest.approx(2 * np.sqrt(0.25 * 0.75) * np.sqrt(2) * 0.8 * np.sqrt(G))
    with pytest.raises(ValueError):
        saturation_vector(1.5, sol, 1.0, 0.5)


# ---------------------------------------------------------------------------
# vector-potential no-op


def test_vector_term_commutes_exactly():
    m = SpacetimeModel.minkowski(2, mass=1.0, vector_potentials=(
        tuple(parse_expression(s) for s in ("0.3*t", "0.1*x")),
        tuple(parse_expression(s) for s in ("x", "0.2")),
    ))
    pair = CausalElementPair.from_expressions("t + 0.1*x", "t - 0.2*x", 2)
    grid = certification_grid(m, per_axis=31)
    assert verify_vector_noop(m, pair, grid) == 0.0
    assert verify_vector_noop(m, pair, grid, misplace=True) > 1e-3


def test_vector_noop_requires_potentials():
    m = flat2()
    pair = CausalElementPair.from_expressions("t", "t", 2)
    with pytest.raises(ValueError):
        verify_vector_noop(m, pair, np.zeros((1, 2)))
