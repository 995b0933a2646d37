"""Metamorphic check: conformal2d is Minkowski with the scalar weight |m| / Omega.

The conformal factor keeps the flat light cone.  The integrand is
(|m| / Omega) sqrt(-eta(v, v)), and the obstruction matrix is the flat one with
coupling m / Omega: Omega times M_flat(fa, fb, z / Omega) for the frame e_a = Omega d_a,
and a unitary congruence (the phase of m) away from the matrix of the real weight
|m| / Omega.  So models/conformal2d.json (|m| = 1, so its decide budgets are the same
numbers in either form) and the weighted Minkowski model below must agree on
relations, weighted lengths, cone surfaces, oracle shrinks and witnesses, up to
rounding.

Tolerances:
- decide and distance: 1e-12 relative (measured: below 2e-16).
- dp cone surface: the same reachable set; phi_max and the weighted lengths within
  1e-7.  A chord near the null boundary computes sqrt(dt^2 - dx^2) after a
  cancellation, which keeps only about half the digits: an absolute error up to
  sqrt(eps) * dt, about 4.5e-8 for dt <= 3 (measured: 7.5e-9 with the frame-scaled
  conformal model).
- sampled elements: the same kept indices, shrinks within 1e-12 relative (measured:
  one ulp).
- witness: the same CSV, length and separation to 1e-12; both certified, with tube
  minimum eigenvalues within 1e-12 of each other (both round-off around 0).
"""

import json
import os

import numpy as np
import pytest

from twosheet import modelfile
from twosheet.causality import decide, future_cone
from twosheet.cli import main
from twosheet.expressions import parse_expression
from twosheet.geometry import NotRelatedError, SpacetimeModel, max_weighted_length
from twosheet.oracle import sample_causal_elements

MODELS = os.path.join(os.path.dirname(__file__), os.pardir, "models")
REL = 1e-12
CONE_ATOL = 1e-7

CONFORMAL = modelfile.load(os.path.join(MODELS, "conformal2d.json"))
WEIGHTED = SpacetimeModel(dimension=2, metric_kind="minkowski", mass_kind="scalar",
                          mass_field=parse_expression("1/(1 + 0.2*sin(t)*cos(x))"),
                          domain_box=CONFORMAL.domain_box,
                          resolutions=dict(CONFORMAL.resolutions))


def _pairs(count, seed):
    """Seeded point pairs in the box, the earlier point first; some are unrelated."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        p, q = rng.uniform(-2.8, 2.8, size=(2, 2))
        if p[0] > q[0]:
            p, q = q, p
        pairs.append((p, q, *rng.uniform(0.0, 1.0, size=2)))
    return pairs


def test_the_conformal_mass_has_unit_magnitude():
    # the premise that lets constant-mass budgets equal the scalar weight's
    assert abs(CONFORMAL.mass) == 1.0


def test_decide_agrees():
    related = 0
    for p, q, xi, phi in _pairs(24, 19):
        a = decide((p, xi), (q, phi), CONFORMAL)
        b = decide((p, xi), (q, phi), WEIGHTED)
        assert (a.related, a.base_related, a.marginal, a.method, a.band) == \
            (b.related, b.base_related, b.marginal, b.method, b.band)
        for key in ("required", "achieved", "slack"):
            assert getattr(a, key) == pytest.approx(getattr(b, key), rel=REL, abs=REL)
        related += a.base_related
    assert 0 < related < 24  # both answers are exercised


def test_distance_agrees():
    for p, q, _, _ in _pairs(16, 23):
        try:
            want = max_weighted_length(p, q, WEIGHTED)
        except NotRelatedError:
            with pytest.raises(NotRelatedError):
                max_weighted_length(p, q, CONFORMAL)
            continue
        assert max_weighted_length(p, q, CONFORMAL) == pytest.approx(want, rel=REL, abs=REL)


def test_dp_cone_surface_agrees():
    grid = (np.linspace(-3.0, 3.0, 61), np.linspace(-3.0, 3.0, 61))
    a, b = (future_cone(([0.0, 0.0], 0.2), m, grid, method="dp")
            for m in (CONFORMAL, WEIGHTED))
    assert a.reachable.tobytes() == b.reachable.tobytes() and a.reachable.any()
    for key in ("weighted", "phi_max"):
        np.testing.assert_allclose(getattr(a, key), getattr(b, key), rtol=0, atol=CONE_ATOL)


def test_sampled_elements_agree():
    a, b = (sample_causal_elements(m, 16, 3) for m in (CONFORMAL, WEIGHTED))
    assert a.indices.tolist() == b.indices.tolist()
    np.testing.assert_allclose(a.shrink, b.shrink, rtol=REL, atol=0)


def _witness_runs(tmp_path):
    """(exit code, CSV table, report) of `twosheet witness` on both models, along the
    conformal2d witness golden's curve."""
    ts = np.linspace(0.0, 0.6, 33)
    pts = np.array([-0.5, 0.2]) + ts[:, None] * np.array([1.0, -0.4])
    curve = tmp_path / "curve.csv"
    curve.write_text("t,x0,x1\n" + "".join(",".join(map(repr, row)) + "\n"
                                           for row in np.column_stack([ts, pts]).tolist()))
    weighted = tmp_path / "weighted.json"
    weighted.write_text(modelfile.dumps(WEIGHTED))
    runs = []
    for label, path in (("conformal", os.path.join(MODELS, "conformal2d.json")),
                        ("weighted", str(weighted))):
        out, report = tmp_path / f"{label}.csv", tmp_path / f"{label}.json"
        code = main(["witness", "--model", path, "--curve", str(curve), "--xi", "0.2",
                     "--phi", "0.9", "--out", str(out), "--report", str(report)])
        runs.append((code, np.loadtxt(out, delimiter=",", skiprows=1),
                     json.loads(report.read_text())))
    return runs


def test_witness_report_agrees(tmp_path):
    (_, table_a, a), (_, table_b, b) = _witness_runs(tmp_path)
    np.testing.assert_allclose(table_a, table_b, rtol=REL, atol=REL)
    assert a["tube_points"] == b["tube_points"]
    for key in ("gap", "weighted_length", "epsilon", "separation"):
        assert a[key] == pytest.approx(b[key], rel=REL, abs=REL)


def test_witness_certifies_on_a_weight_that_varies_in_space(tmp_path):
    # the slab gradients carry the weight at each query point, as the coupling does;
    # gradients that kept the sample's weight left the weighted model's tube at a
    # minimum eigenvalue of -2.1e-3 (exit 2)
    (code_a, _, a), (code_b, _, b) = _witness_runs(tmp_path)
    assert code_a == code_b == 0
    assert a["certified"] is b["certified"] is True
    assert abs(a["tube_min_eigenvalue"] - b["tube_min_eigenvalue"]) <= REL
