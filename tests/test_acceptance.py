"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (visible under pytest -s / -rA) and
asserts the stated tolerance; runtime-limited checks assert their budget too.
"""

import time

import numpy as np
import pytest

from twosheet.causality import decide, fluctuate, future_cone
from twosheet.clifford import make_representation, verify_representation
from twosheet.cone import (
    certification_grid,
    charpoly_certificate,
    pair_field_data,
    solve_spinor_system,
    verify_vector_noop,
    witness_certificate_2d,
    witness_certificate_4d,
    witness_matrix_at,
    CausalElementPair,
)
from twosheet.expressions import parse_expression
from twosheet.geometry import CausalCurve, SpacetimeModel, straight_curve, weighted_length
from twosheet.oracle import mc_check, sample_causal_elements

REP2 = make_representation(2)
REP4 = make_representation(4)


def report(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}: {name} — {detail}")
    assert ok, f"{name}: {detail}"


def bisect_flip(model, lo, hi, *, method, resolution, xi=1.0, phi=0.0, x=0.0):
    """Smallest t with ((0,0),xi) -> ((t,x),phi) related, to within `resolution`."""
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if decide(((0.0, 0.0), xi), ((mid, x), phi), model, method=method).related:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------


def test_criterion_01_pure_state_threshold():
    t0 = time.monotonic()
    m = SpacetimeModel.minkowski(2, mass=1.0)
    assert not decide(((0.0, 0.0), 1.0), ((1.0, 0.0), 0.0), m).related
    assert decide(((0.0, 0.0), 1.0), ((2.0, 0.0), 0.0), m).related
    flip_closed = bisect_flip(m, 1.0, 2.0, method="closed", resolution=1e-7)
    flip_dp = bisect_flip(m, 1.0, 2.0, method="dp", resolution=1e-4)
    elapsed = time.monotonic() - t0
    err_c = abs(flip_closed - np.pi / 2)
    err_d = abs(flip_dp - np.pi / 2)
    report("criterion 1 (pure-state threshold)",
           err_c <= 1e-6 and err_d <= 2e-3 and elapsed <= 10.0,
           f"closed flip err {err_c:.2e} (tol 1e-6), dp flip err {err_d:.2e} "
           f"(tol 2e-3), {elapsed:.1f}s (budget 10s)")


def test_criterion_02_cone_surface():
    t0 = time.monotonic()
    m = SpacetimeModel.minkowski(2, mass=1.0, box=[[0, 2], [-2, 2]])
    axes = (np.linspace(0, 2, 201), np.linspace(-2, 2, 201))
    closed = future_cone(((0.0, 0.0), 0.0), m, grid=axes, method="closed")
    assert closed.validation is not None and closed.validation["passed"] == 1.0
    dp = future_cone(((0.0, 0.0), 0.0), m, grid=axes, method="dp")

    dt = closed.points[:, 0]
    r = np.abs(closed.points[:, 1])
    tau = np.sqrt(np.clip(dt * dt - r * r, 0.0, None))
    want = np.sin(np.minimum(np.pi / 2, tau)) ** 2

    err_c = float(np.abs(closed.phi_max[closed.reachable]
                         - want[closed.reachable]).max())
    err_d = float(np.abs(dp.phi_max[dp.reachable] - want[dp.reachable]).max())
    outside_ok = bool(np.all(np.isnan(closed.phi_max[~closed.reachable])))
    elapsed = time.monotonic() - t0
    report("criterion 2 (cone surface 201x201)",
           err_c <= 1e-6 and err_d <= 2e-3 and outside_ok and elapsed <= 60.0,
           f"closed err {err_c:.2e} (tol 1e-6), dp err {err_d:.2e} (tol 2e-3), "
           f"validated {closed.validation['checked']:.0f} targets, "
           f"{elapsed:.1f}s (budget 60s)")


def test_criterion_03_certificate_2d():
    rng = np.random.default_rng(20260301)
    disc = tail = 0.0
    min_norm_eig = np.inf
    for _ in range(1000):
        lam1, lam2 = np.exp(rng.uniform(-2.0, 2.0, 2))
        theta = rng.uniform(1e-3, np.pi / 2 - 1e-3)
        mass = complex(rng.normal(), rng.normal()) or 1.0
        M = witness_matrix_at((lam1 + lam2, lam1 - lam2), theta, mass, REP2)
        cert = charpoly_certificate(
            M, closed_form=witness_certificate_2d(lam1, lam2, theta, mass))
        disc = max(disc, cert.closed_form_discrepancy)
        tail = max(tail, float(np.abs(cert.unit_coefficients[2:]).max()))
        min_norm_eig = min(min_norm_eig,
                           float(np.linalg.eigvalsh(M)[0]) / cert.scale)
    report("criterion 3 (2d certificate, 1000 draws)",
           disc <= 1e-10 and tail <= 1e-12 and min_norm_eig >= -1e-10,
           f"c1..c4 discrepancy {disc:.2e} (tol 1e-10), |c3|,|c4| {tail:.2e} "
           f"(tol 1e-12), min eig {min_norm_eig:.2e} (floor -1e-10)")


def test_criterion_04_certificate_4d():
    rng = np.random.default_rng(20260402)
    disc = tail = 0.0
    min_coeff = np.inf
    for _ in range(1000):
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, 0.95) / np.linalg.norm(v)
        w0 = np.exp(rng.uniform(-1.2, 1.5))
        w = np.concatenate(([w0], w0 * v))
        theta = rng.uniform(1e-3, np.pi / 2 - 1e-3)
        mass = complex(rng.normal(), rng.normal()) or 1.0
        M = witness_matrix_at(w, theta, mass, REP4)
        cert = charpoly_certificate(M,
                                    closed_form=witness_certificate_4d(w, theta, mass))
        disc = max(disc, cert.closed_form_discrepancy)
        tail = max(tail, float(np.abs(cert.unit_coefficients[4:]).max()))
        min_coeff = min(min_coeff, float(cert.unit_coefficients[:4].min()))
    report("criterion 4 (4d certificate, 1000 draws)",
           disc <= 1e-9 and tail <= 1e-10 and min_coeff >= -1e-10,
           f"c1..c4 discrepancy {disc:.2e} (tol 1e-9), |c5..c8| {tail:.2e} "
           f"(tol 1e-10), min leading coeff {min_coeff:.2e}")


def test_criterion_05_spinor_system():
    rng = np.random.default_rng(20260505)
    worst = 0.0
    for i in range(1000):
        if i % 10 == 0:
            w = np.array([np.exp(rng.uniform(-1, 1)), 0.0, 0.0, 0.0])
        elif i % 10 == 5:
            w0 = np.exp(rng.uniform(-1, 1))  # w1 = 0 with spatial part present
            yz = rng.uniform(-0.6, 0.6, 2) * w0
            w = np.array([w0, 0.0, yz[0], yz[1]])
            if w0 * w0 - yz @ yz <= 0:
                continue
        else:
            v = rng.normal(size=3)
            v *= rng.uniform(0.0, 0.95) / np.linalg.norm(v)
            w0 = np.exp(rng.uniform(-1.2, 1.5))
            w = np.concatenate(([w0], w0 * v))
        worst = max(worst, solve_spinor_system(w, REP4).residual)
    report("criterion 5 (spinor residuals, 1000 draws)", worst <= 1e-10,
           f"max residual {worst:.2e} (tol 1e-10), w1=0 branch included")


def test_criterion_06_diagonal_internal_operator():
    m = SpacetimeModel.minkowski(2, mass=1.0, box=[[-4, 4], [-4, 4]], mass_kind="diagonal")
    rng = np.random.default_rng(20260606)
    agree = 0
    for _ in range(1000):
        p = rng.uniform(-4, 4, 2)
        q = rng.uniform(-4, 4, 2)
        xi = rng.uniform(0, 1)
        phi = xi if rng.uniform() < 0.5 else rng.uniform(0, 1)
        dec = decide((p, xi), (q, phi), m)
        dt, dx = q[0] - p[0], abs(q[1] - p[1])
        expected = (xi == phi) and (dt >= 0.0) and (dt >= dx)
        agree += dec.related == expected
    report("criterion 6 (diagonal decisions, 1000 draws)", agree == 1000,
           f"{agree}/1000 agree with xi == phi AND p before q (exact)")


def test_criterion_07_vector_fluctuation_noop():
    rng = np.random.default_rng(20260707)
    base = SpacetimeModel.minkowski(2, mass=1.0, box=[[-2, 2], [-2, 2]])
    grid = certification_grid(base, per_axis=101)
    worst = 0.0
    for _ in range(10):
        c = rng.uniform(-1, 1, 8)
        model = fluctuate(base, "1",
                          A=(f"{c[0]}*t + {c[1]}*x", f"{c[2]}*sin(t)"),
                          B=(f"{c[3]}*cos(x)", f"{c[4]} + {c[5]}*t"))
        pair = CausalElementPair.from_expressions(
            f"t + {0.2 * c[6]}*sin(x)", f"t + {0.2 * c[7]}*cos(x)", 2)
        worst = max(worst, verify_vector_noop(model, pair, grid))
    report("criterion 7 (vector-term commutation, 10 draws)", worst <= 1e-13,
           f"max deviation {worst:.2e} over a 101x101 grid (tol 1e-13)")


def test_criterion_08_scalar_fluctuation_threshold():
    box = [[0, 3], [-3, 3]]
    base = SpacetimeModel.minkowski(2, mass=1.0, box=box)
    growing = fluctuate(base, "1 + t")
    flip = bisect_flip(growing, 0.5, 2.0, method="dp", resolution=1e-4,
                       xi=0.0, phi=1.0)
    target = np.sqrt(1.0 + np.pi) - 1.0
    err = abs(flip - target)

    constant = fluctuate(base, "1")
    flip_base = bisect_flip(base, 1.0, 2.0, method="dp", resolution=1e-4)
    flip_const = bisect_flip(constant, 1.0, 2.0, method="dp", resolution=1e-4,
                             xi=1.0, phi=0.0)
    report("criterion 8 (scalar-weight threshold)",
           err <= 2e-3 and flip_const == flip_base,
           f"1+t flip err {err:.2e} vs sqrt(1+pi)-1 (tol 2e-3); "
           f"constant weight reproduces the constant-mass flip exactly "
           f"({flip_const:.6f})")


def test_criterion_09_oracle_consistency():
    t0 = time.monotonic()
    m = SpacetimeModel.minkowski(2, mass=1.0, box=[[-2, 2], [-2, 2]])
    elements = sample_causal_elements(m, 10_000, 20260909)
    rng = np.random.default_rng(20260910)

    related, unrelated = [], []
    while len(related) < 100 or len(unrelated) < 100:
        p = rng.uniform(-2, 2, 2)
        q = rng.uniform(-2, 2, 2)
        if q[0] < p[0]:
            p, q = q, p
        xi, phi = rng.uniform(0, 1, 2)
        dec = decide((p, xi), (q, phi), m)
        if not dec.base_related:
            continue
        if dec.related and not dec.marginal and len(related) < 100:
            related.append(((p, xi), (q, phi), dec))
        elif (not dec.related and dec.slack < -1e-4 and xi != phi
              and len(unrelated) < 100):
            unrelated.append(((p, xi), (q, phi), dec))

    contradictions = 0
    for s1, s2, dec in related:
        verdict = mc_check(s1, s2, elements, dec, model=m)
        contradictions += verdict.kind == "contradiction"

    margins = []
    for s1, s2, dec in unrelated:
        verdict = mc_check(s1, s2, elements, dec, model=m)
        assert verdict.kind == "witness_separates", verdict.note
        margins.append(verdict.witness_margin)
    elapsed = time.monotonic() - t0
    report("criterion 9 (oracle, 10^4 elements x 10^2 pairs)",
           contradictions == 0 and min(margins) > 1e-6 and elapsed <= 300.0,
           f"{contradictions} contradictions, min witness margin "
           f"{min(margins):.2e} (floor 1e-6), {elapsed:.0f}s (budget 300s)")


def test_criterion_10_property_suites():
    # Clifford identities
    resid = max(verify_representation(REP2).max_residual,
                verify_representation(REP4).max_residual)

    # reparameterization invariance of the weighted length functional
    m = SpacetimeModel.conformal("1 + 0.2*cos(x)", mass=1.3, box=[[-3, 3], [-3, 3]])

    def gamma(u):  # smooth timelike path with its exact velocity
        pts = np.stack([2.0 * u, 0.4 * np.sin(np.pi * u)], axis=-1)
        vel = np.stack([2.0 * np.ones_like(u), 0.4 * np.pi * np.cos(np.pi * u)], -1)
        return pts, vel

    ts = np.linspace(0.0, 1.0, 401)
    p_a, v_a = gamma(ts)
    warped = ts * (0.6 + 0.4 * ts)  # same path traversed at non-uniform speed
    p_b, v_b = gamma(warped)
    v_b *= (0.6 + 0.8 * ts)[:, None]
    reparam_err = abs(weighted_length(CausalCurve.from_samples(ts, p_a, tangents=v_a), m)
                      - weighted_length(CausalCurve.from_samples(ts, p_b, tangents=v_b), m))
    chord_a = straight_curve([0.0, 0.0], [2.0, 0.7], n=301)
    warped_samples = np.linspace(0, 1, 301) ** 2
    chord_b = CausalCurve.from_samples(
        warped_samples, np.stack([2.0 * warped_samples, 0.7 * warped_samples], -1))
    flat_for_chord = SpacetimeModel.minkowski(2, mass=1.3)
    reparam_err = max(reparam_err, abs(weighted_length(chord_a, flat_for_chord)
                                       - weighted_length(chord_b, flat_for_chord)))

    # partial-order axioms over random triples
    flat = SpacetimeModel.minkowski(2, mass=1.0, box=[[-5, 5], [-5, 5]])
    rng = np.random.default_rng(20261010)
    order_ok = True
    for _ in range(40):
        a = rng.uniform(-3, -1, 2) * [1, 0.3]
        step1 = np.array([rng.uniform(0.4, 1.6), 0.0])
        step1[1] = rng.uniform(-0.9, 0.9) * step1[0]
        b = a + step1
        step2 = np.array([rng.uniform(0.4, 1.6), 0.0])
        step2[1] = rng.uniform(-0.9, 0.9) * step2[0]
        c = b + step2
        u = np.sort(rng.uniform(0, np.pi / 2, 3))
        xs = np.sin(u) ** 2
        sa, sb, sc = (a, xs[0]), (b, xs[1]), (c, xs[2])
        ref = decide(sa, sa, flat)
        order_ok &= ref.related  # reflexivity
        dab, dbc, dac = (decide(x, y, flat) for x, y in ((sa, sb), (sb, sc), (sa, sc)))
        if dab.related and dbc.related:
            order_ok &= dac.related  # transitivity, exact route
        pab, pbc, pac = (decide(x, y, flat, method="dp")
                         for x, y in ((sa, sb), (sb, sc), (sa, sc)))
        if pab.related and pbc.related:
            order_ok &= pac.related or pac.slack >= -(pac.band + 1e-9)

    # gradient causality of sampled elements
    melem = SpacetimeModel.minkowski(2, mass=1.0, box=[[-2, 2], [-2, 2]])
    elements = sample_causal_elements(melem, 300, 20261011)
    grid = elements[0].certified_grid
    max_quad, min_f0 = -np.inf, np.inf
    for el in elements:
        _, _, fa, fb, _ = pair_field_data(el.pair, grid, melem)
        for f in (fa, fb):
            max_quad = max(max_quad, float((np.sum(f[:, 1:] ** 2, 1) - f[:, 0] ** 2).max()))
            min_f0 = min(min_f0, float(f[:, 0].min()))

    ok = (resid <= 1e-14 and reparam_err <= 1e-8 and order_ok
          and max_quad <= 1e-9 and min_f0 >= -1e-9)
    report("criterion 10 (property suites)", ok,
           f"clifford residual {resid:.2e} (tol 1e-14), reparam err "
           f"{reparam_err:.2e} (tol 1e-8), order axioms {'ok' if order_ok else 'VIOLATED'}, "
           f"gradient causality max eta {max_quad:.2e} / min f0 {min_f0:.2e}")
