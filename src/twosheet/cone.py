"""Causal-cone membership: obstruction matrices, certificates, witnesses, spinors.

A candidate cone element is a pair of real scalar fields (a, b), one per sheet.  At
every point the pair produces a Hermitian obstruction matrix

    [[ sum_a V^a a_{,a} ,  -iV * m (a - b) ],
     [ iV * conj(m) (a-b),  sum_a V^a b_{,a} ]]

with frame derivatives a_{,a} = e_a^mu d_mu a, m = `SpacetimeModel.mass_at` (m / Omega
on conformal2d) and the constant matrices V^a, iV of the spin representation.  The
pair is a cone element iff this matrix is positive semidefinite everywhere.
Certification runs two routes: direct Hermitian eigenvalues, and characteristic-
polynomial coefficients via trace-power (Newton) identities, with closed forms
available for the explicit cot/tan witness family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .clifford import SpinRepresentation
from .expressions import Expression, parse_expression
from .geometry import (
    CausalCurve,
    InvalidCurveError,
    MixedState,
    SpacetimeModel,
    _cumulative_length,
)

__all__ = [
    "ScalarField",
    "ExpressionField",
    "FunctionField",
    "CausalElementPair",
    "PsdResult",
    "CertificateResult",
    "ConeMembership",
    "SpinorSolution",
    "SaturationResult",
    "WitnessPair",
    "obstruction_matrices",
    "pointwise_min_eigenvalues",
    "is_psd",
    "charpoly_certificate",
    "is_causal_element",
    "witness_element",
    "witness_certificate_2d",
    "witness_certificate_4d",
    "solve_spinor_system",
    "saturation_vector",
    "verify_vector_noop",
    "ordering_gap",
    "certification_grid",
    "witness_tube_grid",
]

PSD_TOL = 1e-9          # smallest-eigenvalue tolerance (witness matrices are singular)
HERMITIAN_TOL = 1e-12
# index sets of the two invariant 4x4 blocks of the 4D (8x8) obstruction matrix
OBSTRUCTION_BLOCKS_4D = ((0, 1, 6, 7), (2, 3, 4, 5))
# relative slack of the 4D eigenvalue bracket in `_grid_min`: far above the rounding
# of the closed-form bounds and of `eigvalsh` (a few ulps of max|M|), far below the
# gaps that let it prune
BRACKET_MARGIN = 1e-10
CERTIFY_BLOCK_POINTS = 8192  # 4D points per `_grid_min` eigensolve batch; bounds its memory


# ---------------------------------------------------------------------------
# scalar fields and pairs


class ScalarField:
    """Interface: real value and coordinate gradient, vectorized over points."""

    def value(self, points: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def gradient(self, points: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError


class ExpressionField(ScalarField):
    def __init__(self, expr: str | Expression, dimension: int):
        self.expr = expr if isinstance(expr, Expression) else parse_expression(expr)
        self.dimension = dimension

    def value(self, points):
        return self.expr(np.asarray(points, dtype=float))

    def gradient(self, points):
        return self.expr.gradient(np.asarray(points, dtype=float), self.dimension)

    def __repr__(self):
        return f"ExpressionField({self.expr.source!r})"


class FunctionField(ScalarField):
    """Adapter for arbitrary vectorized callables (tests, sampled elements)."""

    def __init__(self, value_fn: Callable, gradient_fn: Callable):
        self._value = value_fn
        self._gradient = gradient_fn

    def value(self, points):
        return np.asarray(self._value(np.asarray(points, dtype=float)), dtype=float)

    def gradient(self, points):
        return np.asarray(self._gradient(np.asarray(points, dtype=float)), dtype=float)


@dataclass
class CausalElementPair:
    """Candidate diag(a, b) element: one scalar field per sheet plus a label."""

    a: ScalarField
    b: ScalarField
    description: str = "user"

    @classmethod
    def from_expressions(cls, a: str, b: str, dimension: int,
                         description: str = "user") -> "CausalElementPair":
        return cls(a=ExpressionField(a, dimension), b=ExpressionField(b, dimension),
                   description=description)


def pair_field_data(pair: CausalElementPair, points: np.ndarray, model: SpacetimeModel):
    """Values, frame gradients, and mass coupling of a pair on a batch of points.

    Returns (a, b, fa, fb, z) with fa/fb the flat-frame derivative stacks
    (..., n) and z = `model.mass_at` * (a - b) (m / Omega on conformal2d).
    """
    pts = np.asarray(points, dtype=float)
    a = pair.a.value(pts)
    b = pair.b.value(pts)
    ga = pair.a.gradient(pts)
    gb = pair.b.gradient(pts)
    if not (np.all(np.isfinite(ga)) and np.all(np.isfinite(gb))):
        raise ValueError("pair has non-finite gradients on the requested points")
    fa, fb = model.to_frame(pts, np.stack([ga, gb]))
    z = model.mass_at(pts) * (a - b)
    return a, b, fa, fb, z


def _block_generators(rep: SpinRepresentation, blocks=None) -> np.ndarray:
    """Constant matrices G_c with obstruction matrix = sum_c coef_c G_c.

    coef = (fa, fb, z, conj z).  Shape (2n + 2, 2k, 2k): the V^a of each sheet and
    the -iV / iV couplings.  With `blocks` (index sets such as
    OBSTRUCTION_BLOCKS_4D), each G_c is restricted to those invariant blocks:
    shape (2n + 2, len(blocks), b, b).
    """
    n, k = rep.dimension, rep.spinor_size
    full = np.zeros((2 * n + 2, 2 * k, 2 * k), dtype=complex)
    for a, Va in enumerate(rep.v_ops.vs):
        full[a, :k, :k] = Va
        full[n + a, k:, k:] = Va
    full[2 * n, :k, k:] = -rep.v_ops.iV
    full[2 * n + 1, k:, :k] = rep.v_ops.iV
    if blocks is None:
        return full
    return np.stack([full[(np.s_[:], *np.ix_(blk, blk))] for blk in blocks], axis=1)


def _assemble(generators: np.ndarray, fa: np.ndarray, fb: np.ndarray,
              z: np.ndarray) -> np.ndarray:
    """Obstruction matrices (or blocks) at every point: one product with the generators.

    Generator entries are 0, +-1 or +-i and each output entry sums at most two
    nonzero terms, so the product is exact up to one rounding per entry.
    """
    coef = np.concatenate([fa, fb, z[..., None], np.conj(z)[..., None]], axis=-1)
    flat = coef @ generators.reshape(len(generators), -1)
    return flat.reshape(coef.shape[:-1] + generators.shape[1:])


def _blocks_2d(fa: np.ndarray, fb: np.ndarray, z: np.ndarray):
    """The two invariant 2x2 blocks of the 2D matrix as (x, y, |coupling|^2), x and y
    the diagonal entries."""
    z2 = np.abs(z) ** 2
    return ((fa[..., 0] + fa[..., 1], fb[..., 0] - fb[..., 1], z2),
            (fa[..., 0] - fa[..., 1], fb[..., 0] + fb[..., 1], z2))


def _min_eig_2x2(x: np.ndarray, y: np.ndarray, z2: np.ndarray) -> np.ndarray:
    return 0.5 * (x + y) - np.sqrt(0.25 * (x - y) ** 2 + z2)


def _min_eigenvalues(fa: np.ndarray, fb: np.ndarray, z: np.ndarray,
                     generators: Optional[np.ndarray] = None) -> np.ndarray:
    """Smallest obstruction eigenvalue per point from the invariant-block split.

    2D: closed form on the 2x2 blocks.  4D: `generators` restricted to
    OBSTRUCTION_BLOCKS_4D, and a Hermitian eigensolve per 4x4 block.
    """
    if fa.shape[-1] == 2:
        return np.minimum(*(_min_eig_2x2(*blk) for blk in _blocks_2d(fa, fb, z)))
    return np.linalg.eigvalsh(_assemble(generators, fa, fb, z))[..., 0].min(axis=-1)


def _bracket_4d(fa: np.ndarray, fb: np.ndarray, z: np.ndarray):
    """Closed-form (lb, ub, scale) per point of (N, 4) frame gradients, with
    lb <= lambda_min(M) <= ub for both 4x4 obstruction blocks M and scale >= max|M|.

    Each block is M = [[A, -+z I], [-+conj(z) I, C]] with A = fa_0 I + sum_j +-fa_j
    sigma_j (Pauli matrices) and C the same in fb, so lambda_min(A) = a = fa_0 -
    |fa_vec| and lambda_min(C) = c = fb_0 - |fb_vec|.  Cauchy interlacing gives
    ub = min(a, c), and x^H M x >= a|u|^2 + c|v|^2 - 2|z||u||v| gives lb, the
    smaller eigenvalue of [[a, |z|], [|z|, c]].
    """
    ra, rb = (np.sqrt(np.einsum("ij,ij->i", f[:, 1:], f[:, 1:])) for f in (fa, fb))
    rz = np.abs(z)
    a, c = fa[:, 0] - ra, fb[:, 0] - rb
    scale = np.maximum(np.maximum(np.abs(fa[:, 0]) + ra, np.abs(fb[:, 0]) + rb), rz)
    return _min_eig_2x2(a, c, rz ** 2), np.minimum(a, c), scale


def _grid_min(fa: np.ndarray, fb: np.ndarray, z: np.ndarray,
              generators: Optional[np.ndarray] = None) -> Tuple[float, int]:
    """Smallest obstruction eigenvalue over points (N, n), and the first point
    holding it: the minimum and argmin of `_min_eigenvalues`, bit for bit.

    2D reads the closed form at every point.  4D brackets every point with
    `_bracket_4d`, which needs no matrix.  A point whose lb exceeds the grid's
    smallest ub by more than the rounding margin BRACKET_MARGIN * (1 + max scale)
    cannot hold the minimum, so `_assemble` and `eigvalsh` run only on the others
    (well under 1% of a sampled element's grid), CERTIFY_BLOCK_POINTS at a time.  A
    NaN bound compares false, so its point stays a candidate, and a point with a
    non-finite entry reads NaN: the minimum fails closed instead of raising.
    """
    if fa.shape[-1] == 2:
        vals = _min_eigenvalues(fa, fb, z)
    else:
        lb, ub, scale = _bracket_4d(fa, fb, z)
        cand = np.flatnonzero(~(lb > np.min(ub) + BRACKET_MARGIN * (1.0 + np.max(scale))))
        vals = np.full(len(fa), np.inf)
        for sub in np.split(cand, range(CERTIFY_BLOCK_POINTS, len(cand), CERTIFY_BLOCK_POINTS)):
            M = _assemble(generators, fa[sub], fb[sub], z[sub])
            finite = np.isfinite(M).all(axis=(-3, -2, -1))
            vals[sub] = np.nan
            vals[sub[finite]] = np.linalg.eigvalsh(M[finite])[..., 0].min(axis=-1)
    i = int(np.argmin(vals))
    return float(vals[i]), i


def obstruction_matrices(pair: CausalElementPair, points, model: SpacetimeModel,
                         rep: SpinRepresentation) -> np.ndarray:
    """Stacked Hermitian obstruction matrices, shape (..., 2k, 2k)."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != model.dimension or model.dimension != rep.dimension:
        raise ValueError("model, representation, and points must share one dimension")
    _, _, fa, fb, z = pair_field_data(pair, pts, model)
    return _assemble(_block_generators(rep), fa, fb, z)


# ---------------------------------------------------------------------------
# PSD certification


@dataclass
class PsdResult:
    passed: bool
    min_eigenvalue: float


def _require_hermitian(M: np.ndarray):
    scale = max(1.0, float(np.max(np.abs(M))) if M.size else 1.0)
    defect = float(np.max(np.abs(M - M.conj().T)))
    if defect > HERMITIAN_TOL * scale:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")


def is_psd(M: np.ndarray, tol: float = PSD_TOL) -> PsdResult:
    """Eigenvalue route: PSD iff the smallest eigenvalue is >= -tol."""
    mat = np.asarray(M)
    _require_hermitian(mat)
    eigs = np.linalg.eigvalsh(mat)
    mn = float(eigs[0])
    return PsdResult(passed=mn >= -tol, min_eigenvalue=mn)


@dataclass
class CertificateResult:
    """Characteristic-polynomial certificate.

    coefficients follow det(A - x I) = x^k - c1 x^(k-1) + c2 x^(k-2) - ...; for a
    Hermitian matrix PSD is equivalent to all c_i >= 0.  unit_coefficients are the
    same numbers for the spectrally normalized matrix (scale-free tolerances);
    closed_form_discrepancy is the max relative gap against supplied closed forms.
    """

    coefficients: np.ndarray
    unit_coefficients: np.ndarray
    scale: float
    passed: bool
    closed_form_discrepancy: Optional[float] = None


def charpoly_certificate(M: np.ndarray,
                         closed_form: Optional[Sequence[float]] = None,
                         tol: float = PSD_TOL) -> CertificateResult:
    """Coefficient route via trace-power (Newton) identities.

    The recursion runs on M / scale with scale ~ the RMS eigenvalue magnitude, which
    keeps the alternating sums from drowning the small high-order coefficients; the
    reported coefficients are rescaled back.
    """
    mat = np.asarray(M)
    k = mat.shape[0]
    if mat.shape != (k, k) or k not in (4, 8):
        raise ValueError(f"unsupported matrix size {mat.shape}; expected 4x4 or 8x8")
    _require_hermitian(mat)

    scale = float(np.linalg.norm(mat, "fro")) / np.sqrt(k)
    if scale == 0.0:
        zeros = np.zeros(k)
        return CertificateResult(coefficients=zeros, unit_coefficients=zeros.copy(),
                                 scale=0.0, passed=True,
                                 closed_form_discrepancy=_cf_gap(zeros, closed_form, 1.0))

    N = mat / scale
    P = N.copy()
    traces = []
    for _ in range(k):
        traces.append(complex(np.trace(P)))
        P = P @ N
    e = [1.0 + 0j]
    for j in range(1, k + 1):
        acc = 0.0 + 0j
        for i in range(1, j + 1):
            acc += (-1) ** (i - 1) * e[j - i] * traces[i - 1]
        e.append(acc / j)
    unit = np.array([x.real for x in e[1:]])
    coeffs = unit * scale ** np.arange(1, k + 1)
    passed = bool(np.all(unit >= -tol))
    return CertificateResult(coefficients=coeffs, unit_coefficients=unit, scale=scale,
                             passed=passed,
                             closed_form_discrepancy=_cf_gap(coeffs, closed_form, scale))


def _cf_gap(coeffs: np.ndarray, closed_form, scale: float) -> Optional[float]:
    # compared on the normalized matrix: c_j and the closed form both divided by
    # scale^j, the only footing where a fixed tolerance is meaningful for every
    # draw (raw c_j span many orders of magnitude across theta)
    if closed_form is None:
        return None
    cf = np.asarray(closed_form, dtype=float)
    m = min(len(cf), len(coeffs))
    down = np.maximum(scale, 1e-300) ** np.arange(1, m + 1)
    return float(np.max(np.abs(coeffs[:m] - cf[:m]) / down))


# closed-form witness certificates ------------------------------------------------


def witness_matrix_at(w, theta: float, m: complex, rep: SpinRepresentation) -> np.ndarray:
    """Obstruction matrix of the cot/tan witness at one point, from its parameters.

    w is the future-timelike frame tangent and theta the running mixing angle; the
    blocks are built from the witness gradients k (w^0, -w_i) with
    k_a = |m| csc^2(theta) / (2 sqrt(G)), k_b the sec^2 analogue, and mass coupling
    m (a - b) = -m / sin(2 theta).  In 2D the eigenvalue pair (lam1, lam2) of the
    closed-form coefficients corresponds to w = (lam1 + lam2, lam1 - lam2).
    """
    w = np.asarray(w, dtype=float).reshape(-1)
    if w.shape[0] != rep.dimension:
        raise ValueError("w must have one component per coordinate")
    G = w[0] * w[0] - float(np.sum(w[1:] ** 2))
    if w[0] <= 0 or G <= 0:
        raise ValueError("w must be future-directed timelike")
    s2t = np.sin(2.0 * theta)
    if abs(s2t) < 1e-12:
        raise ValueError("theta must stay away from multiples of pi/2")
    fa, fb = _witness_gradients(w, theta, abs(m), G)
    z = np.asarray(-m / s2t, dtype=complex)
    return _assemble(_block_generators(rep), fa, fb, z)


def _witness_gradients(w, theta, weight, G):
    """Witness frame gradients (k_a, k_b) (w^0, -w_i) at frame tangents w (..., n), with
    k_a = weight / (2 sin^2(theta) sqrt(G)), k_b = weight / (2 cos^2(theta) sqrt(G))."""
    k_a = np.asarray(weight / (2.0 * np.sin(theta) ** 2 * np.sqrt(G)))
    k_b = np.asarray(weight / (2.0 * np.cos(theta) ** 2 * np.sqrt(G)))
    flip = np.concatenate([w[..., :1], -w[..., 1:]], axis=-1)
    return k_a[..., None] * flip, k_b[..., None] * flip


def witness_certificate_2d(lam1: float, lam2: float, theta: float, m: complex) -> np.ndarray:
    """Coefficients c1..c4 of the 2D witness obstruction matrix (c3 = c4 = 0)."""
    am = abs(m)
    s2 = np.sin(2.0 * theta)
    csc2 = 1.0 / (s2 * s2)
    r = np.sqrt(lam2 / lam1) + np.sqrt(lam1 / lam2)
    c1 = 2.0 * am * r * csc2
    c2 = am * am * ((lam1 - lam2) ** 2 + 4.0 * lam1 * lam2 * csc2) * csc2 / (lam1 * lam2)
    return np.array([c1, c2, 0.0, 0.0])


def witness_certificate_4d(w: Sequence[float], theta: float, m: complex) -> np.ndarray:
    """Coefficients c1..c8 of the 4D witness obstruction matrix (c5..c8 = 0)."""
    w = np.asarray(w, dtype=float)
    am = abs(m)
    w0 = w[0]
    ws2 = float(np.sum(w[1:] ** 2))
    G = w0 * w0 - ws2
    s2 = np.sin(2.0 * theta)
    csc2 = 1.0 / (s2 * s2)
    cos4 = np.cos(4.0 * theta)
    q = 2.0 * w0 * w0 - ws2 - ws2 * cos4
    c1 = 8.0 * am * w0 * csc2 / np.sqrt(G)
    c2 = 4.0 * am ** 2 * (6.0 * w0 * w0 - ws2 - ws2 * cos4) * csc2 ** 2 / G
    c3 = 16.0 * am ** 3 * w0 * q * csc2 ** 3 / G ** 1.5
    c4 = 4.0 * am ** 4 * q * q * csc2 ** 4 / G ** 2
    return np.array([c1, c2, c3, c4, 0.0, 0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# grid certification


def certification_grid(model: SpacetimeModel, per_axis: Optional[int] = None) -> np.ndarray:
    """Regular (N, n) grid over the model box, `indexing="ij"` order: per_axis points
    per axis, by default the model's `resolutions.certification`."""
    per_axis = per_axis or int(model.resolutions["certification"])
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in model.domain_box]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, model.dimension)


def pointwise_min_eigenvalues(pair: CausalElementPair, points, model: SpacetimeModel,
                              rep: SpinRepresentation) -> np.ndarray:
    """Smallest obstruction eigenvalue per point, using the invariant-block split.

    The 2D matrix splits into 2x2 blocks on index pairs (0,3) and (1,2) — closed
    form.  The 8x8 splits into 4x4 blocks on indices (0,1,6,7) and (2,3,4,5).
    """
    _, _, fa, fb, z = pair_field_data(pair, points, model)
    gens = None if model.dimension == 2 else _block_generators(rep, OBSTRUCTION_BLOCKS_4D)
    return _min_eigenvalues(fa, fb, z, gens)


@dataclass
class ConeMembership:
    passed: bool
    min_eigenvalue: float
    worst_point: np.ndarray
    tol: float


def is_causal_element(pair: CausalElementPair, model: SpacetimeModel,
                      rep: SpinRepresentation, grid=None, tol: float = PSD_TOL) -> ConeMembership:
    """PSD sweep over a grid; reports the point with the most negative eigenvalue.

    The sweep is `_grid_min`: in 4D only points whose closed-form eigenvalue bracket
    reaches the grid minimum are eigensolved, with the dense sweep's minimum and
    first worst point.  A non-finite matrix entry reads NaN and fails the test.
    """
    pts = certification_grid(model) if grid is None else np.asarray(grid, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.size == 0:
        raise ValueError("empty certification grid")
    pts = pts.reshape(-1, model.dimension)
    _, _, fa, fb, z = pair_field_data(pair, pts, model)
    gens = None if model.dimension == 2 else _block_generators(rep, OBSTRUCTION_BLOCKS_4D)
    mn, worst = _grid_min(fa, fb, z, gens)
    return ConeMembership(passed=mn >= -tol, min_eigenvalue=mn, worst_point=pts[worst], tol=tol)


# ---------------------------------------------------------------------------
# explicit witness family


@dataclass
class WitnessPair(CausalElementPair):
    """Cot/tan pair (a, b) = (-cot(theta)/2, tan(theta)/2) along one timelike curve.

    Values are constant on each sample's time slab; the frame gradients are the
    sample's, scaled to the weight at each point, not derived from the values.  The
    pair is checked only on a tube around the curve.  It separates the curve's end
    states but does not prove them unrelated: another curve may still join them.
    """

    curve: CausalCurve = None
    xi: float = 0.0
    phi: float = 0.0
    sigma: float = 1.0
    epsilon: float = 0.0
    gap: float = 0.0
    lengths: np.ndarray = None
    theta: np.ndarray = None
    a_samples: np.ndarray = None
    b_samples: np.ndarray = None

    def separation(self) -> float:
        """Ordering functional at the endpoints; negative = states separated."""
        return ordering_gap(self, MixedState(self.curve.start, self.xi),
                            MixedState(self.curve.end, self.phi))


def ordering_gap(pair: CausalElementPair, state1, state2) -> float:
    """phi a(q) + (1-phi) b(q) - xi a(p) - (1-xi) b(p) for the pair.

    Grouped as sheet-wise differences so identical states give exactly 0.
    """
    p = np.asarray(state1.point, dtype=float)[None, :]
    q = np.asarray(state2.point, dtype=float)[None, :]
    xi, phi = float(state1.xi), float(state2.xi)
    aq, bq, ap, bp = (float(f.value(x)[0]) for x in (q, p) for f in (pair.a, pair.b))
    return (phi * aq - xi * ap) + ((1.0 - phi) * bq - (1.0 - xi) * bp)


def witness_element(curve: CausalCurve, xi: float, phi: float,
                    model: SpacetimeModel) -> WitnessPair:
    """Construct the cot/tan pair along a timelike curve, separating its end states.

    Preconditions: xi != phi, the curve is future-directed timelike, and its
    weighted length is strictly below |arcsin(sqrt(phi)) - arcsin(sqrt(xi))|.  The
    pair does not show that the states are unrelated (see WitnessPair).
    """
    xi, phi = float(xi), float(phi)
    if not (0.0 <= xi <= 1.0 and 0.0 <= phi <= 1.0):
        raise ValueError("xi and phi must lie in [0, 1]")
    if xi == phi:
        raise ValueError("equal internal states need no witness")

    r_xi, r_phi = np.arcsin(np.sqrt(xi)), np.arcsin(np.sqrt(phi))
    gap = abs(r_phi - r_xi)
    sigma = 1.0 if r_phi > r_xi else -1.0

    lengths, w, eta, defect = _cumulative_length(curve, model)
    total = float(lengths[-1])
    if total >= gap - 1e-12:
        raise ValueError(
            f"curve weighted length {total:.6g} reaches the internal threshold {gap:.6g}; "
            "no separating element exists"
        )

    interior = 0.0 < xi < 1.0 and 0.0 < phi < 1.0
    epsilon = 0.0 if interior else 0.5 * (gap - total)

    theta = sigma * r_xi + lengths + epsilon
    if sigma > 0:
        if not (np.all(theta > 0.0) and np.all(theta < 0.5 * np.pi)):
            raise ValueError("witness angle left (0, pi/2); curve violates the slack bound")
    else:
        if not (np.all(theta > -0.5 * np.pi) and np.all(theta < 0.0)):
            raise ValueError("witness angle left (-pi/2, 0); curve violates the slack bound")

    # the lengths' check rejected spacelike and past-directed samples; not null ones
    if np.any(defect >= -1e-12):
        raise InvalidCurveError("witness construction needs a future-directed timelike curve")

    weight = model.weight(curve.points)
    fa, fb = _witness_gradients(w, theta, weight, -eta)
    a_samples, b_samples = -0.5 / np.tan(theta), 0.5 * np.tan(theta)
    times = curve.points[:, 0]

    def slab(points):  # nearest curve sample by coordinate time
        t = points[..., 0]
        idx = np.clip(np.searchsorted(times, t), 1, len(times) - 1)
        return np.where(np.abs(t - times[idx - 1]) <= np.abs(times[idx] - t), idx - 1, idx)

    def side(values, frame):
        def gradient(pts):  # the coupling reads the weight at pts: scale to match it
            k = slab(pts)
            ratio = np.divide(model.weight(pts), weight[k], out=np.ones(k.shape), where=weight[k] != 0)
            return model.from_frame(pts, frame[k] * ratio[..., None])
        return FunctionField(lambda pts: values[slab(pts)], gradient)

    return WitnessPair(
        a=side(a_samples, fa), b=side(b_samples, fb), description="witness",
        curve=curve, xi=xi, phi=phi, sigma=sigma, epsilon=epsilon, gap=gap,
        lengths=lengths, theta=theta, a_samples=a_samples, b_samples=b_samples,
    )


def witness_tube_grid(curve: CausalCurve, radius: float, per_sample: int = 5) -> np.ndarray:
    """Points covering a spatial tube around the curve (certification scope): the
    curve shifted along each spatial axis by `per_sample` offsets spanning
    [-radius, radius], and by 0, so the curve itself is always in the tube."""
    if not np.isfinite(radius):
        raise ValueError(f"tube radius must be finite, got {radius}")
    if per_sample < 1:
        raise ValueError(f"per_sample must be >= 1, got {per_sample}")
    offsets = np.union1d(np.linspace(-radius, radius, per_sample), [0.0])
    pts = []
    dim = curve.dimension
    for off in offsets:
        for axis in range(1, dim):
            shifted = curve.points.copy()
            shifted[:, axis] += off
            pts.append(shifted)
    return np.unique(np.concatenate(pts, axis=0), axis=0)


# ---------------------------------------------------------------------------
# spinor expectation system


@dataclass
class SpinorSolution:
    """psi with psi* V^a psi = w^a, plus the free parameters fixing the branch."""

    psi: np.ndarray
    free_params: Dict[str, float]
    target: np.ndarray
    residual: float


def solve_spinor_system(w, rep: SpinRepresentation) -> SpinorSolution:
    """Solve the expectation system for a future-directed timelike frame tangent."""
    w = np.asarray(w, dtype=float).reshape(-1)
    if w.shape[0] != rep.dimension:
        raise ValueError(f"tangent has {w.shape[0]} components, representation wants {rep.dimension}")
    eta = -w[0] ** 2 + float(np.sum(w[1:] ** 2))
    if w[0] <= 0 or eta >= 0:
        raise ValueError("spinor system needs a future-directed timelike tangent")

    if rep.dimension == 2:
        lam1 = 0.5 * (w[0] + w[1])
        lam2 = 0.5 * (w[0] - w[1])
        psi = np.array([np.sqrt(lam1), np.sqrt(lam2)], dtype=complex)
        params = {"delta": 0.0}
    else:
        w0, w1, w2, w3 = w
        g3 = w0 * w0 - w3 * w3
        c = np.sqrt((w1 * w1 + w2 * w2) / g3)
        c = min(c, 1.0)
        beta = 0.5 * np.arccos(c)  # beta1 = beta2 in [0, pi/4]
        theta = np.arctan2(w2, w1) if (w1 != 0.0 or w2 != 0.0) else 0.5 * np.pi
        alpha = 0.5 * np.pi  # the maximizing branch
        r = np.array([
            np.sqrt(0.5 * (w0 - w3)) * np.sin(beta),
            np.sqrt(0.5 * (w0 + w3)) * np.sin(beta),
            np.sqrt(0.5 * (w0 + w3)) * np.cos(beta),
            np.sqrt(0.5 * (w0 - w3)) * np.cos(beta),
        ])
        phases = np.array([0.0, theta, alpha, theta + alpha])
        psi = r * np.exp(1j * phases)
        params = {"beta1": beta, "beta2": beta, "theta": theta, "alpha": alpha, "delta": 0.0}

    expect = np.array([np.real(psi.conj() @ v @ psi) for v in rep.v_ops.vs])
    residual = float(np.max(np.abs(expect - w)))
    return SpinorSolution(psi=psi, free_params=params, target=w, residual=residual)


@dataclass
class SaturationResult:
    vector: np.ndarray
    bound: float
    delta: float


def saturation_vector(chi: float, solution: SpinorSolution, massphase: complex,
                      gap: float) -> SaturationResult:
    """Doubled vector attaining the mixing bound 2 sqrt(chi(1-chi)) |m||a-b| sqrt(G).

    chi splits the vector across the sheets; the relative phase delta rotates the
    cross term onto the negative real axis so the quadratic form subtracts exactly
    the bound.
    """
    chi = float(chi)
    if not 0.0 <= chi <= 1.0:
        raise ValueError("chi must lie in [0, 1]")
    m = complex(massphase)
    gap = float(gap)
    w = solution.target
    G = w[0] ** 2 - float(np.sum(w[1:] ** 2))
    z = m * gap
    psi = solution.psi
    n = len(w)
    if n == 2:
        delta = -np.angle(z) if z != 0 else 0.0
        lower = np.array([-psi[0], psi[1]]) * np.exp(1j * delta)
    else:
        delta = (-np.angle(z) - 0.5 * np.pi) if z != 0 else 0.0
        lower = psi * np.exp(1j * delta)
    vec = np.concatenate([np.sqrt(chi) * psi, np.sqrt(1.0 - chi) * lower])
    bound = 2.0 * np.sqrt(chi * (1.0 - chi)) * abs(m) * abs(gap) * np.sqrt(G)
    return SaturationResult(vector=vec, bound=float(bound), delta=float(delta))


# ---------------------------------------------------------------------------
# vector-potential no-op


def verify_vector_noop(model: SpacetimeModel, pair: CausalElementPair, grid,
                       rep: Optional[SpinRepresentation] = None,
                       misplace: bool = False) -> float:
    """Max |[vector term, diag(a,b)]| over the grid.

    The vector term is gamma~^mu (x) diag(A_mu, B_mu); block-diagonal scalars commute
    with it identically, so the deviation contract is <= 1e-13 (it is exactly 0 in
    floating point).  misplace=True moves the potentials into the off-diagonal
    internal slots — a negative control that must report a nonzero deviation.
    """
    if model.vector_potentials is None:
        raise ValueError("model carries no vector potentials")
    from .clifford import make_representation

    rep = rep or make_representation(model.dimension)
    pts = np.asarray(grid, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    # (..., n) coordinate components of A and B
    A, B = (np.stack([e(pts) for e in exprs], axis=-1) for exprs in model.vector_potentials)
    # curved gamma~^mu A_mu = gamma^a (e_a^mu A_mu)
    alpha, beta = model.to_frame(pts, np.stack([A, B]))
    gam = np.stack(rep.gammas)
    Xa = np.einsum("...a,aij->...ij", alpha, gam)
    Xb = np.einsum("...a,aij->...ij", beta, gam)
    a = pair.a.value(pts)[..., None, None]
    b = pair.b.value(pts)[..., None, None]
    if not misplace:
        # X D - D X blockwise: diagonal blocks scale by the same scalar on both sides
        dev_tl = Xa * a - a * Xa
        dev_br = Xb * b - b * Xb
        return float(max(np.max(np.abs(dev_tl)), np.max(np.abs(dev_br))))
    # off-diagonal insertion: top-right block picks up (b - a) * Xa
    dev_tr = Xa * b - a * Xa
    dev_bl = Xb * a - b * Xb
    return float(max(np.max(np.abs(dev_tr)), np.max(np.abs(dev_bl))))
