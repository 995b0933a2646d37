"""Space-time models, causal curves, and weighted proper-time maximization.

A model is flat (minkowski), 2D conformally flat (inverse metric Omega^2 * eta), or
4D with user vielbeins e_a^mu (inverse metric e_a^mu e_b^nu eta^ab).  The weight of
a curve segment is |m| (constant mass) or |Phi| (scalar-fluctuated models); the
weighted length of a causal curve is

    integral  weight(gamma(s)) * sqrt(-g(gamma', gamma')) ds.

`max_weighted_length` approximates the supremum of that functional over causal
curves between two points: closed form where available, otherwise a causal-lattice
dynamic program followed by deterministic polyline refinement.  Refinement first
replaces dyadic spans by straight chords, in batches of chords that share no
segment, then moves single nodes sideways in red/black sweeps (all odd nodes, then
all even ones).  The refined value is a certified lower bound that converges as
the lattice refines; a pure lattice path systematically underestimates off-axis
targets because of velocity quantization, which is why the refinement stage is not
optional.

Every stage evaluates segments in wide `_segment_values` calls: the lattice sweep
takes a block of rows per call, and refinement one batch of chords or one colour
of nodes per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .expressions import Expression, parse_expression

__all__ = [
    "SpacetimeModel",
    "CausalCurve",
    "MixedState",
    "CurveReport",
    "DomainError",
    "InvalidCurveError",
    "NotRelatedError",
    "weighted_length",
    "cumulative_weighted_length",
    "is_causally_related",
    "max_weighted_length",
    "validate_curve",
    "straight_curve",
    "single_source_field",
]

CONE_TOL = 1e-12        # inclusive cone-boundary comparisons
CURVE_TOL = 1e-9        # causality tolerance on normalized tangents
MIN_CURVE_SAMPLES = 17  # composite Simpson needs a real grid (16 intervals)
LATTICE_BLOCK_SEGMENTS = 2048  # lattice edges per segment call; bounds the sweep's memory

DEFAULT_RESOLUTIONS = {
    "time_steps": 401,       # lattice rows for the dynamic program
    "space_steps": 401,      # target lattice columns per spatial axis
    "certification": None,   # cone-certification grid, per-axis (dimension dependent)
    "quadrature": 8,         # midpoint subsamples per polyline segment
}


class DomainError(ValueError):
    """A point or parameter left the model's coordinate box."""


class InvalidCurveError(ValueError):
    """A curve violated causality or future-direction beyond tolerance."""


class NotRelatedError(ValueError):
    """No future-directed causal curve joins the two points."""


def _as_point(p, dimension: int) -> np.ndarray:
    arr = np.asarray(p, dtype=float).reshape(-1)
    if arr.shape != (dimension,):
        raise DomainError(f"expected a {dimension}-component point, got shape {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# models


@dataclass
class SpacetimeModel:
    """Geometry + mass data for a two-sheeted space-time over a coordinate box.

    metric_kind: 'minkowski' | 'conformal2d' | 'vielbein4d'
    mass_kind:   'constant'  | 'scalar'      | 'diagonal'

    The diagonal kind means the internal operator has no off-diagonal part, so no
    inter-sheet weight exists; decision logic special-cases it and the weighted
    functionals refuse to run.
    """

    dimension: int
    metric_kind: str = "minkowski"
    mass_kind: str = "constant"
    mass: complex = 1.0 + 0j
    conformal_factor: Optional[Expression] = None
    vielbein: Optional[Tuple[Tuple[Expression, ...], ...]] = None  # e[a][mu]
    mass_field: Optional[Expression] = None
    vector_potentials: Optional[Tuple[Sequence[Expression], Sequence[Expression]]] = None
    domain_box: Optional[np.ndarray] = None  # (n, 2) rows (lo, hi)
    resolutions: Dict[str, Optional[int]] = field(default_factory=dict)
    source: Optional[dict] = None  # raw model-file dict, kept for canonical dumps

    def __post_init__(self):
        if self.dimension not in (2, 4):
            raise ValueError(f"unsupported dimension {self.dimension!r}")
        if self.metric_kind not in ("minkowski", "conformal2d", "vielbein4d"):
            raise ValueError(f"unknown metric kind {self.metric_kind!r}")
        if self.mass_kind not in ("constant", "scalar", "diagonal"):
            raise ValueError(f"unknown mass kind {self.mass_kind!r}")
        if self.metric_kind == "conformal2d" and self.dimension != 2:
            raise ValueError("conformal2d metric requires dimension 2")
        if self.metric_kind == "vielbein4d" and self.dimension != 4:
            raise ValueError("vielbein4d metric requires dimension 4")
        if self.metric_kind == "conformal2d" and self.conformal_factor is None:
            raise ValueError("conformal2d metric needs a conformal factor expression")
        if self.metric_kind == "vielbein4d" and self.vielbein is None:
            raise ValueError("vielbein4d metric needs 16 frame expressions")
        if self.mass_kind == "scalar" and self.mass_field is None:
            raise ValueError("scalar mass needs a field expression")
        if self.domain_box is None:
            self.domain_box = np.array([[-5.0, 5.0]] * self.dimension)
        else:
            self.domain_box = np.asarray(self.domain_box, dtype=float).reshape(self.dimension, 2)
            if np.any(self.domain_box[:, 0] >= self.domain_box[:, 1]):
                raise ValueError("domain box must have lo < hi on every axis")
        merged = dict(DEFAULT_RESOLUTIONS)
        merged.update(self.resolutions)
        if merged["certification"] is None:
            merged["certification"] = 101 if self.dimension == 2 else 17
        self.resolutions = merged

    # -- constructors -------------------------------------------------------

    @classmethod
    def minkowski(cls, dimension: int = 2, mass: complex = 1.0, box=None, **kw) -> "SpacetimeModel":
        return cls(dimension=dimension, metric_kind="minkowski", mass=complex(mass),
                   domain_box=box, **kw)

    @classmethod
    def conformal(cls, omega: str | Expression, mass: complex = 1.0, box=None, **kw) -> "SpacetimeModel":
        expr = omega if isinstance(omega, Expression) else parse_expression(omega)
        return cls(dimension=2, metric_kind="conformal2d", conformal_factor=expr,
                   mass=complex(mass), domain_box=box, **kw)

    @classmethod
    def with_vielbein(cls, frame: Sequence[Sequence[str | Expression]], mass: complex = 1.0,
                      box=None, **kw) -> "SpacetimeModel":
        rows = tuple(
            tuple(e if isinstance(e, Expression) else parse_expression(e) for e in row)
            for row in frame
        )
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("vielbein needs a 4x4 table of expressions")
        return cls(dimension=4, metric_kind="vielbein4d", vielbein=rows,
                   mass=complex(mass), domain_box=box, **kw)

    # -- pointwise fields ----------------------------------------------------

    def in_domain(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        lo = self.domain_box[:, 0] - 1e-9
        hi = self.domain_box[:, 1] + 1e-9
        return np.all((pts >= lo) & (pts <= hi), axis=-1)

    def require_in_domain(self, *points):
        for p in points:
            arr = _as_point(p, self.dimension)
            if not bool(self.in_domain(arr)):
                raise DomainError(f"point {arr.tolist()} is outside the domain box")

    def omega(self, points) -> np.ndarray:
        """Conformal factor; identically 1 for non-conformal metrics."""
        pts = np.asarray(points, dtype=float)
        if self.metric_kind == "conformal2d":
            return self.conformal_factor(pts)
        return np.ones(pts.shape[:-1])

    def weight(self, points) -> np.ndarray:
        """Inter-sheet weight |m| or |Phi| at the given points."""
        pts = np.asarray(points, dtype=float)
        if self.mass_kind == "constant":
            return np.full(pts.shape[:-1], abs(self.mass))
        if self.mass_kind == "scalar":
            return np.abs(self.mass_field(pts))
        raise ValueError("a diagonal internal operator carries no inter-sheet weight")

    def mass_at(self, points) -> np.ndarray:
        """Complex off-diagonal mass entry (identically 0 for the diagonal kind)."""
        pts = np.asarray(points, dtype=float)
        if self.mass_kind == "constant":
            return np.full(pts.shape[:-1], self.mass, dtype=complex)
        if self.mass_kind == "scalar":
            return self.mass_field(pts).astype(complex)
        return np.zeros(pts.shape[:-1], dtype=complex)

    def frame_matrices(self, points) -> np.ndarray:
        """Vielbein tables E[..., a, mu] with v^mu = sum_a w^a E[a, mu]."""
        pts = np.asarray(points, dtype=float)
        if self.metric_kind == "vielbein4d":
            rows = [[self.vielbein[a][mu](pts) for mu in range(4)] for a in range(4)]
            return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)
        eye = np.eye(self.dimension)
        out = np.broadcast_to(eye, pts.shape[:-1] + eye.shape).copy()
        if self.metric_kind == "conformal2d":
            out = out * self.omega(pts)[..., None, None]
        return out

    def frame_components(self, points, velocities) -> np.ndarray:
        """Flat-frame components w^a of coordinate velocities v^mu at points."""
        pts = np.asarray(points, dtype=float)
        v = np.asarray(velocities, dtype=float)
        if self.metric_kind == "minkowski":
            return np.broadcast_to(v, pts.shape).copy()
        if self.metric_kind == "conformal2d":
            return v / self.omega(pts)[..., None]
        E = self.frame_matrices(pts)
        vt = np.broadcast_to(v, pts.shape)
        return np.linalg.solve(np.swapaxes(E, -1, -2), vt[..., None])[..., 0]

    def to_frame(self, points, grads) -> np.ndarray:
        """Flat-frame derivatives f_a = e_a^mu g_mu of coordinate gradients g at points.

        grads may carry extra leading axes (e.g. two stacked gradients) that
        broadcast against the points.
        """
        g = np.asarray(grads, dtype=float)
        if self.metric_kind == "minkowski":
            return g
        if self.metric_kind == "conformal2d":
            return self.omega(points)[..., None] * g
        return np.einsum("...am,...m->...a", self.frame_matrices(points), g)

    def from_frame(self, points, f) -> np.ndarray:
        """Coordinate gradients g with to_frame(points, g) = f (the inverse map)."""
        f = np.asarray(f, dtype=float)
        if self.metric_kind == "minkowski":
            return f
        if self.metric_kind == "conformal2d":
            return f / self.omega(points)[..., None]
        return np.linalg.solve(self.frame_matrices(points), f[..., None])[..., 0]

    def frame_norm2(self, w) -> np.ndarray:
        """eta(w, w) on flat-frame components (negative for timelike)."""
        w = np.asarray(w)
        return -w[..., 0] ** 2 + np.sum(w[..., 1:] ** 2, axis=-1)

    # -- sampled sanity checks ----------------------------------------------

    def validate(self, samples_per_axis: int = 9) -> Dict[str, float]:
        """Sampled positivity/invertibility/signature checks; raises on failure."""
        axes = [np.linspace(lo, hi, samples_per_axis) for lo, hi in self.domain_box]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.dimension)
        report: Dict[str, float] = {}
        if self.metric_kind == "conformal2d":
            om = self.omega(mesh)
            report["min_conformal_factor"] = float(np.min(om))
            if not np.all(np.isfinite(om)) or report["min_conformal_factor"] <= 0:
                raise ValueError("conformal factor must be positive on the sampled domain")
        if self.metric_kind == "vielbein4d":
            E = self.frame_matrices(mesh)
            dets = np.linalg.det(E)
            report["min_abs_frame_det"] = float(np.min(np.abs(dets)))
            if report["min_abs_frame_det"] < 1e-10:
                raise ValueError("vielbein is singular at a sampled point")
            eta = np.diag([-1.0, 1.0, 1.0, 1.0])
            g_inv = np.einsum("...am,ab,...bn->...mn", E, eta, E)
            eig = np.linalg.eigvalsh(g_inv)
            neg = np.sum(eig < 0, axis=-1)
            if not np.all(neg == 1):
                raise ValueError("metric signature is not (-,+,+,+) at a sampled point")
            report["signature_ok"] = 1.0
        if self.mass_kind == "scalar":
            vals = np.abs(self.mass_field(mesh))
            report["min_abs_weight"] = float(np.min(vals))
            if not np.all(np.isfinite(vals)):
                raise ValueError("weight field is not finite on the sampled domain")
        return report


@dataclass
class MixedState:
    """A localized state: base point plus internal weight xi in [0, 1]."""

    point: np.ndarray
    xi: float

    def __post_init__(self):
        self.point = np.asarray(self.point, dtype=float).reshape(-1)
        self.xi = float(self.xi)
        if not 0.0 <= self.xi <= 1.0:
            raise ValueError(f"xi must lie in [0, 1], got {self.xi}")


# ---------------------------------------------------------------------------
# curves


@dataclass
class CausalCurve:
    """Sampled parametrized curve with tangents.

    Tangents default to central finite differences on interior samples and one-sided
    differences at the endpoints.
    """

    ts: np.ndarray
    points: np.ndarray
    tangents: np.ndarray

    @classmethod
    def from_samples(cls, ts, points, tangents=None) -> "CausalCurve":
        ts = np.asarray(ts, dtype=float).reshape(-1)
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] != ts.shape[0]:
            raise InvalidCurveError("points must be an (N, dim) array matching the parameter grid")
        if ts.shape[0] < 2 or np.any(np.diff(ts) <= 0):
            raise InvalidCurveError("parameter grid must be strictly increasing with >= 2 samples")
        if tangents is None:
            tangents = np.empty_like(points)
            tangents[1:-1] = (points[2:] - points[:-2]) / (ts[2:] - ts[:-2])[:, None]
            tangents[0] = (points[1] - points[0]) / (ts[1] - ts[0])
            tangents[-1] = (points[-1] - points[-2]) / (ts[-1] - ts[-2])
        else:
            tangents = np.asarray(tangents, dtype=float)
            if tangents.shape != points.shape:
                raise InvalidCurveError("tangents must match the points array")
        return cls(ts=ts, points=points, tangents=tangents)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def start(self) -> np.ndarray:
        return self.points[0]

    @property
    def end(self) -> np.ndarray:
        return self.points[-1]


def straight_curve(p, q, n: int = 129) -> CausalCurve:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    ts = np.linspace(0.0, 1.0, n)
    pts = p[None, :] + ts[:, None] * (q - p)[None, :]
    return CausalCurve.from_samples(ts, pts)


@dataclass
class CurveReport:
    causal_flags: np.ndarray
    future_flags: np.ndarray
    worst_violation: float
    worst_index: int

    @property
    def passed(self) -> bool:
        return bool(np.all(self.causal_flags) and np.all(self.future_flags))


def _curve_frame_data(curve: CausalCurve, model: SpacetimeModel):
    """Frame tangents, normalized causality defect, and future flags per sample."""
    w = model.frame_components(curve.points, curve.tangents)
    norm2 = np.sum(curve.tangents ** 2, axis=-1)
    eta = model.frame_norm2(w)
    defect = eta / np.maximum(norm2, 1e-300)  # eta on the (Euclid-)normalized tangent
    future = w[..., 0] > 0
    return w, eta, defect, future


def validate_curve(curve: CausalCurve, model: SpacetimeModel) -> CurveReport:
    """Per-sample causality/future-direction report; never raises."""
    _, _, defect, future = _curve_frame_data(curve, model)
    causal = defect <= CURVE_TOL
    worst = int(np.argmax(defect))
    return CurveReport(causal_flags=causal, future_flags=future,
                       worst_violation=float(defect[worst]), worst_index=worst)


def weighted_length(curve: CausalCurve, model: SpacetimeModel, upto: Optional[float] = None) -> float:
    """Composite-Simpson value of the weighted proper-time functional up to `upto`."""
    if curve.ts.shape[0] < MIN_CURVE_SAMPLES:
        raise InvalidCurveError(
            f"curves need at least {MIN_CURVE_SAMPLES} samples for the quadrature, "
            f"got {curve.ts.shape[0]}"
        )
    w, eta, defect, future = _curve_frame_data(curve, model)
    if np.any(defect > CURVE_TOL):
        idx = int(np.argmax(defect))
        raise InvalidCurveError(
            f"spacelike tangent at sample {idx} (normalized defect {defect[idx]:.3e})"
        )
    if not np.all(future):
        idx = int(np.argmin(future))
        raise InvalidCurveError(f"tangent is not future-directed at sample {idx}")
    # scipy.integrate is imported here, not at module level: it dominates the
    # package's start-up, and only the two quadrature routines need it
    from scipy.integrate import cumulative_simpson, simpson

    integrand = model.weight(curve.points) * np.sqrt(np.clip(-eta, 0.0, None))
    if upto is None:
        return float(simpson(integrand, x=curve.ts))
    upto = float(upto)
    if upto < curve.ts[0] - 1e-12 or upto > curve.ts[-1] + 1e-12:
        raise DomainError(f"parameter {upto} outside [{curve.ts[0]}, {curve.ts[-1]}]")
    cum = cumulative_simpson(integrand, x=curve.ts, initial=0.0)
    return float(np.interp(upto, curve.ts, cum))


def cumulative_weighted_length(curve: CausalCurve, model: SpacetimeModel) -> np.ndarray:
    """Running weighted length at every curve sample (starts at 0)."""
    _, eta, defect, future = _curve_frame_data(curve, model)
    if np.any(defect > CURVE_TOL) or not np.all(future):
        raise InvalidCurveError("curve must be future-directed and causal")
    integrand = model.weight(curve.points) * np.sqrt(np.clip(-eta, 0.0, None))
    if curve.ts.shape[0] >= 3:
        from scipy.integrate import cumulative_simpson

        return np.asarray(cumulative_simpson(integrand, x=curve.ts, initial=0.0))
    mids = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(curve.ts)
    return np.concatenate([[0.0], np.cumsum(mids)])


# ---------------------------------------------------------------------------
# causal order between points


def is_causally_related(p, q, model: SpacetimeModel) -> bool:
    """True iff a future-directed causal curve joins p to q."""
    p = _as_point(p, model.dimension)
    q = _as_point(q, model.dimension)
    model.require_in_domain(p, q)
    dt = q[0] - p[0]
    if model.metric_kind in ("minkowski", "conformal2d"):
        # conformal factors preserve the cone order, so both cases are flat cones
        return bool(dt >= -CONE_TOL and np.linalg.norm(q[1:] - p[1:]) <= dt + CONE_TOL)
    if dt < -CONE_TOL:
        return False
    if np.linalg.norm(q[1:] - p[1:]) <= 1e-14 and abs(dt) <= 1e-14:
        return True
    # curved 4D: accept if the straight chord is causal, else ask the lattice
    _, ok = _segment_values(model, p[None, :], q[None, :], nsub=16, need_mask=True)
    if bool(ok[0]):
        return True
    value = _lattice_best(model, p, q)[0]
    return bool(np.isfinite(value))


# ---------------------------------------------------------------------------
# segment quadrature (shared by the lattice, chords, and polyline refinement)


def _segment_values(model: SpacetimeModel, a, b, nsub: int = 8, need_mask: bool = False):
    """Weighted lengths of straight segments a->b via midpoint composite quadrature.

    a, b: (..., n) endpoint arrays.  Returns values (and optionally a causal+future
    admissibility mask evaluated on the subsample points).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    delta = b - a
    fr = (np.arange(nsub) + 0.5) / nsub
    pts = a[..., None, :] + fr[:, None] * delta[..., None, :]
    vel = np.broadcast_to(delta[..., None, :], pts.shape)
    w = model.frame_components(pts, vel)
    eta = model.frame_norm2(w)
    speed = np.sqrt(np.clip(-eta, 0.0, None))
    vals = np.mean(model.weight(pts) * speed, axis=-1)
    if not need_mask:
        return vals
    norm2 = np.maximum(np.sum(delta * delta, axis=-1), 1e-300)
    causal = np.all(eta <= CURVE_TOL * norm2[..., None], axis=-1)
    future = np.all(w[..., 0] > 0, axis=-1) | (norm2 <= 1e-28)
    return vals, causal & future


# ---------------------------------------------------------------------------
# causal lattice dynamic program


@dataclass
class LatticeField:
    """Single-source table of best accumulated weighted lengths on a causal lattice.

    Nodes are (t_i, sigma_j) with sigma a 1-D spatial coordinate, embedded into the
    model's coordinates by `embed`.  `back[i, j]` stores the shift taken to reach
    node (i, j); -inf values are unreachable.
    """

    model: SpacetimeModel
    ts: np.ndarray
    sigmas: np.ndarray
    value: np.ndarray
    back: np.ndarray
    embed: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def node_index(self, t: float, sigma: float) -> Tuple[int, int]:
        ht = self.ts[1] - self.ts[0] if len(self.ts) > 1 else 1.0
        i = int(np.clip(round((t - self.ts[0]) / ht), 0, len(self.ts) - 1))
        hx = self.sigmas[1] - self.sigmas[0] if len(self.sigmas) > 1 else 1.0
        j = int(np.clip(round((sigma - self.sigmas[0]) / hx), 0, len(self.sigmas) - 1))
        return i, j

    def value_at(self, t: float, sigma: float) -> float:
        i, j = self.node_index(t, sigma)
        return float(self.value[i, j])

    def extract_path(self, i: int, j: int) -> np.ndarray:
        """Coordinates of the best path into node (i, j), shape (i+1, n)."""
        sig = [self.sigmas[j]]
        jj = j
        for row in range(i, 0, -1):
            jj -= int(self.back[row, jj])
            sig.append(self.sigmas[jj])
        sig = np.array(sig[::-1])
        return self.embed(self.ts[: i + 1], sig)


def _build_lattice(model: SpacetimeModel, p: np.ndarray, t_end: float,
                   sigma_lo: float, sigma_hi: float, *, nt: int,
                   target_columns: int, target_sigma: Optional[float] = None,
                   direction: Optional[np.ndarray] = None) -> LatticeField:
    """Run the forward sweep from p up to t_end over the sigma window."""
    n = model.dimension
    if direction is None and n != 2:
        raise ValueError("lattices above 2D need an embedding direction")

    def embed(ts, sigmas):
        # sigma is measured from the source: sigma = 0 embeds to p's spatial position
        ts = np.asarray(ts, dtype=float)
        sigmas = np.asarray(sigmas, dtype=float)
        if n == 2:
            return np.stack(np.broadcast_arrays(ts, p[1] + sigmas), axis=-1)
        ts, sigmas = np.broadcast_arrays(ts, sigmas)
        out = np.empty(ts.shape + (4,))
        out[..., 0] = ts
        out[..., 1:] = p[1:] + sigmas[..., None] * direction
        return out

    ts = np.linspace(p[0], t_end, nt)
    ht = ts[1] - ts[0]
    hx = min((sigma_hi - sigma_lo) / max(target_columns - 1, 1), ht)
    if target_sigma is not None and abs(target_sigma) > 1e-12:
        k = max(1, int(round(abs(target_sigma) / hx)))
        hx = abs(target_sigma) / k
    lo_idx = int(np.ceil((sigma_lo - 0.0) / hx - 1e-9))
    hi_idx = int(np.floor((sigma_hi - 0.0) / hx + 1e-9))
    sigmas = np.arange(lo_idx, hi_idx + 1) * hx
    j0 = -lo_idx  # sigma = 0 is the source column
    smax = max(1, int(np.floor(ht / hx + 1e-12)))

    J = len(sigmas)
    value = np.full((nt, J), -np.inf)
    back = np.zeros((nt, J), dtype=np.int32)
    value[0, j0] = 0.0
    flat_cone = model.metric_kind in ("minkowski", "conformal2d")
    shift_list = [s for s in range(-smax, smax + 1) if abs(s) * hx <= ht + 1e-12]
    shifts = np.array(shift_list)

    # Row i can only be live on the columns j0 +- smax*i, so each (row, shift) pair
    # needs the edges leaving that window.  Edge values do not depend on the sweep,
    # so the edges of consecutive pairs, taken row by row, share one _segment_values
    # call of at most LATTICE_BLOCK_SEGMENTS edges (or of one pair's edges).
    rows = np.arange(nt - 1)[:, None]
    src_lo = np.maximum(j0 - smax * rows, np.maximum(0, -shifts)).ravel()
    src_hi = np.minimum(j0 + smax * rows + 1, np.minimum(J, J - shifts)).ravel()
    counts = np.maximum(src_hi - src_lo, 0)
    ends = np.cumsum(counts)  # edges of pairs 0..g, inclusive
    bounds = np.stack([src_lo, src_hi], axis=1).tolist()
    n_shifts = len(shift_list)

    g0 = 0
    while g0 < len(counts):
        done = ends[g0 - 1] if g0 else 0
        g1 = max(g0 + 1, int(np.searchsorted(ends, done + LATTICE_BLOCK_SEGMENTS,
                                             side="right")))
        offsets = np.concatenate([[0], np.cumsum(counts[g0:g1])])
        # edge e of pair g leaves column src_lo[g] + e
        pair = np.repeat(np.arange(g0, g1), counts[g0:g1])
        col = src_lo[pair] + np.arange(offsets[-1]) - offsets[pair - g0]
        row = pair // n_shifts
        a_pts = embed(ts[row], sigmas[col])
        b_pts = embed(ts[row + 1], sigmas[col + shifts[pair % n_shifts]])
        if flat_cone:
            ev = _segment_values(model, a_pts, b_pts, nsub=1)
        else:
            ev, ok = _segment_values(model, a_pts, b_pts, nsub=1, need_mask=True)
            ev = np.where(ok, ev, -np.inf)

        # the pairs of row r update row r + 1 in shift order; row r is final by then
        offsets = offsets.tolist()
        for g in range(g0, g1):
            e0, e1 = offsets[g - g0], offsets[g - g0 + 1]
            if e1 == e0:
                continue
            r, k = divmod(g, n_shifts)
            (lo, hi), s = bounds[g], shift_list[k]
            cand = value[r, lo:hi] + ev[e0:e1]
            view_v = value[r + 1, lo + s:hi + s]
            better = cand > view_v
            np.copyto(view_v, cand, where=better)
            np.copyto(back[r + 1, lo + s:hi + s], s, where=better)
        g0 = g1

    return LatticeField(model=model, ts=ts, sigmas=sigmas, value=value, back=back, embed=embed)


def _plane_frame(p: np.ndarray, q: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
    """In-plane spatial unit vector p->q plus an orthonormal completion."""
    d = q[1:] - p[1:]
    norm = np.linalg.norm(d)
    u = d / norm if norm > 1e-14 else np.array([1.0] + [0.0] * (len(p) - 2))
    dirs = [u]
    for e in np.eye(len(u)):
        v = e - sum(np.dot(e, w) * w for w in dirs)
        if np.linalg.norm(v) > 1e-8:
            dirs.append(v / np.linalg.norm(v))
    return u, dirs


def _lattice_best(model: SpacetimeModel, p: np.ndarray, q: np.ndarray,
                  nt: Optional[int] = None) -> Tuple[float, Optional[np.ndarray]]:
    """Lattice value and raw best path p->q (value -inf when the lattice can't reach q)."""
    dt = q[0] - p[0]
    if dt <= 1e-9:
        return -np.inf, None
    nt = nt or int(model.resolutions["time_steps"])
    cols = int(model.resolutions["space_steps"])
    if model.dimension == 2:
        direction = None
        sigma_target = q[1] - p[1]
        lo = max(model.domain_box[1, 0] - p[1], min(0.0, sigma_target) - dt)
        hi = min(model.domain_box[1, 1] - p[1], max(0.0, sigma_target) + dt)
    else:
        direction, _ = _plane_frame(p, q)
        sigma_target = float(np.linalg.norm(q[1:] - p[1:]))
        lo, hi = min(0.0, sigma_target) - dt, max(0.0, sigma_target) + dt
        # keep the embedded plane inside the coordinate box
        for axis, ui in enumerate(direction, start=1):
            if abs(ui) > 1e-12:
                b0 = (model.domain_box[axis, 0] - p[axis]) / ui
                b1 = (model.domain_box[axis, 1] - p[axis]) / ui
                lo = max(lo, min(b0, b1))
                hi = min(hi, max(b0, b1))
    latt = _build_lattice(model, p, q[0], lo, hi, nt=nt, target_columns=cols,
                          target_sigma=sigma_target if sigma_target else None,
                          direction=direction)
    i, j = latt.node_index(q[0], sigma_target)
    val = float(latt.value[i, j])
    if not np.isfinite(val):
        return val, None
    return val, latt.extract_path(i, j)


# ---------------------------------------------------------------------------
# polyline refinement


def _refine_polyline(model: SpacetimeModel, nodes: np.ndarray, hx: float,
                     nsub: int, passes: int = 2) -> Tuple[float, np.ndarray]:
    """Deterministic improvement of a causal polyline; returns (value, nodes).

    Two moves, each batched over nodes whose segments do not overlap, so one
    `_segment_values` call serves a whole batch:

    - Chord replacement: replace a dyadic span of nodes by the straight chord
      between its endpoints (repairs the lattice's velocity quantization).  Spans
      halve from the whole polyline down to 2; the chords of one span start every
      span // 2 nodes and are tried in groups of segment-disjoint chords.  Only the
      interior nodes of a chord move, so its endpoints stay exact.
    - Node moves: shift single interior nodes sideways (polishes the local
      profile), in red/black sweeps: all odd nodes, then all even ones.  Each node
      tries every direction, then the steps hx and hx/4, then both signs, starting
      from wherever its last accepted move left it.  At most `passes` sweeps run,
      and they stop early when a sweep improves nothing.

    A move is accepted when every new segment is causal and future-directed and
    the value gains more than 1e-15, so the value is always a certified lower bound.
    """
    nodes = np.array(nodes, dtype=float)
    L = len(nodes)
    seg = _segment_values(model, nodes[:-1], nodes[1:], nsub=nsub)

    span = L - 1
    while span >= 2:
        step = max(1, span // 2)
        starts = np.arange(0, L - span, step)
        stride = -(-span // step)  # chords stride * step apart share no segment
        for first in range(min(stride, len(starts))):
            _replace_chords(model, nodes, seg, starts[first::stride], span, nsub)
        span //= 2

    if model.dimension == 2:
        directions = [np.array([0.0, 1.0])]
    else:
        u, dirs = _plane_frame(nodes[0], nodes[-1])
        directions = [np.concatenate([[0.0], d]) for d in dirs]

    colours = [np.arange(first, L - 1, 2) for first in (1, 2)]
    for _ in range(passes):
        improved = False
        for ks in colours:
            if len(ks) == 0:
                continue
            for d in directions:
                for step in (hx, 0.25 * hx):
                    for sign in (1.0, -1.0):
                        improved |= _move_nodes(model, nodes, seg, ks, sign * step * d, nsub)
        if not improved:
            break

    return float(np.sum(seg)), nodes


def _replace_chords(model, nodes, seg, starts, span, nsub) -> None:
    """Try the chords [i, i + span] for segment-disjoint starts i, in place."""
    _, ok = _segment_values(model, nodes[starts], nodes[starts + span], nsub=nsub,
                            need_mask=True)
    starts = starts[ok]
    if len(starts) == 0:
        return
    idx = starts[:, None] + np.arange(span + 1)
    a, b = nodes[starts], nodes[starts + span]
    frac = (nodes[idx, 0] - a[:, :1]) / np.maximum(b[:, :1] - a[:, :1], 1e-300)
    straight = a[:, None, :] + frac[..., None] * (b - a)[:, None, :]
    straight[:, -1] = b  # a + 1 * (b - a) can miss b by an ulp
    new_vals = _segment_values(model, straight[:, :-1], straight[:, 1:], nsub=nsub)
    better = np.sum(new_vals, axis=-1) > np.sum(seg[idx[:, :-1]], axis=-1) + 1e-15
    nodes[idx[better, 1:-1]] = straight[better, 1:-1]
    seg[idx[better, :-1]] = new_vals[better]


def _move_nodes(model, nodes, seg, ks, shift, nsub) -> bool:
    """Shift the nodes ks (no two adjacent) by `shift` where that gains; in place."""
    n = len(ks)
    cand = nodes[ks] + shift
    vals, ok = _segment_values(model, np.concatenate([nodes[ks - 1], cand]),
                               np.concatenate([cand, nodes[ks + 1]]),
                               nsub=nsub, need_mask=True)
    va, vb = vals[:n], vals[n:]
    better = ok[:n] & ok[n:] & (va + vb > seg[ks - 1] + seg[ks] + 1e-15)
    moved = ks[better]
    nodes[moved] = cand[better]
    seg[moved - 1] = va[better]
    seg[moved] = vb[better]
    return bool(np.any(better))


def _polyline_to_curve(nodes: np.ndarray, subdivide: int = 4) -> CausalCurve:
    """Resample a polyline into a CausalCurve (extra nodes keep tangents near the chords)."""
    pts = [nodes[0]]
    for a, b in zip(nodes[:-1], nodes[1:]):
        for k in range(1, subdivide + 1):
            pts.append(a + (b - a) * k / subdivide)
    pts = np.array(pts)
    # parametrize by row index scaled to [0, 1]; tangent direction is what matters
    ts = np.linspace(0.0, 1.0, len(pts))
    degenerate = np.linalg.norm(pts[-1] - pts[0]) <= 1e-14
    if degenerate:
        tangents = np.zeros_like(pts)
        tangents[:, 0] = 1.0  # arbitrary future-directed filler
        return CausalCurve(ts=ts, points=pts, tangents=tangents)
    return CausalCurve.from_samples(ts, pts)


def _resolve_method(model: SpacetimeModel, method: str) -> str:
    """'closed' or 'dp' for a requested method ('auto', 'closed' or 'dp')."""
    if method not in ("auto", "closed", "dp"):
        raise ValueError(f"unknown method {method!r}")
    closed_available = model.metric_kind == "minkowski" and model.mass_kind == "constant"
    if method == "auto":
        return "closed" if closed_available else "dp"
    if method == "closed" and not closed_available:
        raise ValueError("closed form needs a flat metric with constant mass")
    return method


def max_weighted_length(p, q, model: SpacetimeModel, *, time_steps: Optional[int] = None,
                        refine: bool = True, return_curve: bool = False,
                        method: str = "auto"):
    """Supremal weighted length over future-directed causal curves p -> q.

    Closed form on flat constant-mass models; causal-lattice DP plus polyline
    refinement otherwise (a certified lower bound).  method='dp' forces the lattice
    even where the closed form applies; 'closed' demands it.  Raises NotRelatedError
    when no causal curve exists.
    """
    p = _as_point(p, model.dimension)
    q = _as_point(q, model.dimension)
    if not is_causally_related(p, q, model):
        raise NotRelatedError(f"{p.tolist()} does not precede {q.tolist()}")

    dt = q[0] - p[0]
    if _resolve_method(model, method) == "closed":
        val = abs(model.mass) * float(np.sqrt(max(0.0, dt * dt - np.sum((q[1:] - p[1:]) ** 2))))
        if return_curve:
            return val, straight_curve(p, q, n=129)
        return val

    nsub = int(model.resolutions["quadrature"])
    if dt <= 1e-12:  # related with no time extent: p == q (or numerically so)
        if return_curve:
            return 0.0, _polyline_to_curve(np.stack([p, q]))
        return 0.0

    candidates: List[Tuple[float, np.ndarray]] = []
    _, chord_ok = _segment_values(model, p[None, :], q[None, :], nsub=max(nsub, 16),
                                  need_mask=True)
    if chord_ok[0]:
        k = max(int(model.resolutions["time_steps"]) // 2, 32)
        fr = np.linspace(0.0, 1.0, k)[:, None]
        chord_nodes = p[None, :] + fr * (q - p)[None, :]
        chord_val = float(np.sum(_segment_values(model, chord_nodes[:-1], chord_nodes[1:],
                                                 nsub=nsub)))
        candidates.append((chord_val, chord_nodes))

    lat_val, lat_path = _lattice_best(model, p, q, nt=time_steps)
    if lat_path is not None:
        lat_path[-1] = q  # snap the terminal node onto the exact target
        lat_poly_val = float(np.sum(_segment_values(model, lat_path[:-1], lat_path[1:],
                                                    nsub=nsub)))
        candidates.append((lat_poly_val, lat_path))

    if not candidates:
        raise NotRelatedError(f"no admissible lattice path from {p.tolist()} to {q.tolist()}")

    hx = min(abs(dt) / max((time_steps or int(model.resolutions["time_steps"])) - 1, 1), 0.05)
    best_val, best_nodes = -np.inf, None
    for val, nodes in candidates:
        if refine:
            val, nodes = _refine_polyline(model, nodes, hx=max(hx, 1e-4), nsub=nsub)
        if val > best_val:
            best_val, best_nodes = val, nodes

    if return_curve:
        return best_val, _polyline_to_curve(best_nodes)
    return best_val


# ---------------------------------------------------------------------------
# single-source field for cone surfaces


def single_source_field(model: SpacetimeModel, p, t_max: float,
                        *, time_steps: Optional[int] = None) -> LatticeField:
    """One forward sweep from p covering the whole spatial box up to t_max (2D models).

    Cone-surface generation reads node values from this field and tops them up with
    per-target straight-chord candidates; both are lower bounds on the supremum.
    """
    p = _as_point(p, model.dimension)
    model.require_in_domain(p)
    nt = time_steps or int(model.resolutions["time_steps"])
    lo = model.domain_box[1, 0] - p[1]
    hi = model.domain_box[1, 1] - p[1]
    return _build_lattice(model, p, float(t_max), lo, hi, nt=nt,
                          target_columns=int(model.resolutions["space_steps"]))
