"""Space-time models, causal curves, and weighted proper-time maximization.

A model is flat (minkowski), 2D conformally flat (inverse metric Omega^2 * eta), or
4D with user vielbeins e_a^mu (inverse metric e_a^mu e_b^nu eta^ab).  The weight of
a curve segment is |m| (constant mass) or |Phi| (scalar-fluctuated models); the
weighted length of a causal curve is

    integral  weight(gamma(s)) * sqrt(-g(gamma', gamma')) ds.

On conformal2d sqrt(-g(v, v)) = sqrt(-eta(v, v)) / Omega, so the frame stays the
identity and Omega divides the weight and the coupling instead.  Curves (Simpson)
and straight segments (midpoint rule) sample one integrand, `_integrand`: one
frame map, eta from `frame_norm2` (factored in 2D, so near-null chords keep their
digits), one causal test and one check for a non-finite frame or weight.

`max_weighted_length` approximates the supremum of that functional over causal
curves between two points: closed form where available, otherwise a causal-lattice
dynamic program followed by deterministic polyline refinement.  The lattice runs
in null coordinates u = t + sigma, v = t - sigma of the flat reference cone over
the diamond J+(p) ∩ J-(q), so p and q are nodes and the chord p -> q is its
diagonal (longest chains on a causal lattice approximate proper time: Brightwell
& Gregory, PRL 66 (1991) 260).  Refinement has one move, new interior nodes for
segment-disjoint spans (straight chords, then sideways shifts), and one rule: every
new segment has eta(w, w) <= 0 at every sample.  A rejected move only gives up a
gain, so that test is strict; the relation, the vielbein4d lattice masks and the
cone chords keep CURVE_TOL, so that no pair on the null boundary reads unrelated.
The refined value is a certified lower bound that converges as the lattice refines;
a pure lattice path underestimates (velocity quantization), so refinement is not optional.
Whether p precedes q is decided once per pair, at the lattice resolution in use:
on vielbein4d a non-causal chord leaves it to the diamond lattice, whose path
then seeds the refinement, so `max_weighted_length(time_steps=N)` decides at N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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
    "ModelValidationError",
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

DEFAULT_RESOLUTIONS = {
    "time_steps": 401,       # lattice diamond: time_steps // 2 steps per null axis
    "space_steps": 401,      # default cone grid points per spatial axis
    "certification": None,   # cone-certification grid, per-axis (dimension dependent)
    "quadrature": 8,         # midpoint subsamples per polyline segment
}


class DomainError(ValueError):
    """A point or parameter left the model's coordinate box."""


class InvalidCurveError(ValueError):
    """A curve violated causality or future-direction beyond tolerance."""


class NotRelatedError(ValueError):
    """No future-directed causal curve joins the two points."""


class ModelValidationError(ValueError):
    """A sampled model check failed; `field` names the SpacetimeModel field at fault."""

    def __init__(self, message: str, field: str):
        super().__init__(message)
        self.field = field


def _checked_band(band) -> float:
    """A marginal decision band as a float; ValueError unless positive and finite."""
    if not 0 < band < np.inf:
        raise ValueError(f"decision band must be positive and finite, got {band!r}")
    return float(band)


def _time_steps(model: "SpacetimeModel", time_steps: Optional[int]) -> int:
    """The lattice resolution in use: time_steps, else the model's; ValueError below 1."""
    if time_steps is not None and not time_steps >= 1:
        raise ValueError(f"time_steps must be >= 1, got {time_steps!r}")
    return int(model.resolutions["time_steps"] if time_steps is None else time_steps)


def _as_point(p, dimension: int) -> np.ndarray:
    arr = np.asarray(p, dtype=float).reshape(-1)
    if arr.shape != (dimension,):
        raise DomainError(f"expected a {dimension}-component point, got shape {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# models


@dataclass(frozen=True)
class SpacetimeModel:
    """Geometry + mass data for a two-sheeted space-time over a coordinate box.

    metric_kind: 'minkowski' | 'conformal2d' | 'vielbein4d'
    mass_kind:   'constant'  | 'scalar'      | 'diagonal'

    minkowski and conformal2d share the identity frame, and the conformal factor
    Omega divides `weight` and `mass_at`: that scales the obstruction matrix of the
    frame e_a^mu = Omega delta_a^mu by 1 / Omega and keeps its weighted lengths.
    vielbein4d reads the user's 4x4 table e[a][mu].  Construction splits the table
    once into a constant array and the entries that vary, so `frame_matrices` and
    `time_frame` evaluate only the varying expressions per point (2 of the 16 in
    models/vielbein4d.json, none of its time column).

    The diagonal kind means the internal operator has no off-diagonal part, so no
    inter-sheet weight exists; decision logic special-cases it and the weighted
    functionals refuse to run.  decision_band, when set, is the marginal band that
    `decide` uses unless its caller passes one; it must be positive and finite.
    Models are immutable: domain_box is a read-only array and resolutions a
    read-only mapping.
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
    resolutions: Mapping[str, Optional[int]] = field(default_factory=dict)
    decision_band: Optional[float] = None

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
        if self.decision_band is not None:
            object.__setattr__(self, "decision_band", _checked_band(self.decision_band))
        box = [[-5.0, 5.0]] * self.dimension if self.domain_box is None else self.domain_box
        box = np.array(box, dtype=float).reshape(self.dimension, 2)  # a private copy
        if np.any(box[:, 0] >= box[:, 1]):
            raise ValueError("domain box must have lo < hi on every axis")
        box.flags.writeable = False
        merged = dict(DEFAULT_RESOLUTIONS)
        merged.update(self.resolutions)
        if merged["certification"] is None:
            merged["certification"] = 101 if self.dimension == 2 else 17
        object.__setattr__(self, "domain_box", box)
        object.__setattr__(self, "resolutions", MappingProxyType(merged))
        # the frame table, split once: constant entries in a read-only array (0 where
        # an entry varies), and the (a, mu, expression) entries that vary; not a
        # field, so equality, dataclasses.replace and the model file see only the
        # expressions
        table, varying = np.eye(self.dimension), ()
        if self.metric_kind == "vielbein4d":
            table = np.array([[e.constant_value() if e.is_constant() else 0.0 for e in row]
                              for row in self.vielbein])
            varying = tuple((a, mu, e) for a, row in enumerate(self.vielbein)
                            for mu, e in enumerate(row) if not e.is_constant())
        table.flags.writeable = False
        object.__setattr__(self, "_frame_table", (table, varying))

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

    def weight(self, points) -> np.ndarray:
        """Inter-sheet weight |m| or |Phi| at the given points, over Omega on conformal2d."""
        pts = np.asarray(points, dtype=float)
        if self.mass_kind == "diagonal":
            raise ValueError("a diagonal internal operator carries no inter-sheet weight")
        w = (np.abs(self.mass_field(pts)) if self.mass_kind == "scalar"
             else np.full(pts.shape[:-1], abs(self.mass)))
        return w / self.conformal_factor(pts) if self.metric_kind == "conformal2d" else w

    def mass_at(self, points) -> np.ndarray:
        """Complex off-diagonal coupling m or Phi, over Omega on conformal2d
        (identically 0 for the diagonal kind)."""
        pts = np.asarray(points, dtype=float)
        if self.mass_kind == "diagonal":
            return np.zeros(pts.shape[:-1], dtype=complex)
        m = (self.mass_field(pts).astype(complex) if self.mass_kind == "scalar"
             else np.full(pts.shape[:-1], self.mass, dtype=complex))
        return m / self.conformal_factor(pts) if self.metric_kind == "conformal2d" else m

    def frame_matrices(self, points) -> np.ndarray:
        """Vielbein tables E[..., a, mu] with v^mu = sum_a w^a E[a, mu]."""
        pts = np.asarray(points, dtype=float)
        table, varying = self._frame_table
        E = np.empty(pts.shape[:-1] + table.shape)
        E[...] = table
        for a, mu, e in varying:
            E[..., a, mu] = e(pts)
        return E

    def frame_components(self, points, velocities) -> np.ndarray:
        """Flat-frame components w^a of coordinate velocities v^mu at points."""
        pts = np.asarray(points, dtype=float)
        v = np.broadcast_to(np.asarray(velocities, dtype=float), pts.shape)
        if self.metric_kind == "vielbein4d":
            E = self.frame_matrices(pts)
            return np.linalg.solve(np.swapaxes(E, -1, -2), v[..., None])[..., 0]
        return v

    def to_frame(self, points, grads) -> np.ndarray:
        """Flat-frame derivatives f_a = e_a^mu g_mu of coordinate gradients g at points.

        grads may carry extra leading axes (e.g. two stacked gradients) that
        broadcast against the points.
        """
        g = np.asarray(grads, dtype=float)
        if self.metric_kind == "vielbein4d":
            return np.einsum("...am,...m->...a", self.frame_matrices(points), g)
        return g

    def time_frame(self, points) -> np.ndarray:
        """Flat-frame derivative f_a = e_a^0 of the time function T(x) = x^0: the
        frame's time column, evaluating only its varying entries."""
        pts = np.asarray(points, dtype=float)
        table, varying = self._frame_table
        f = np.empty(pts.shape)
        f[...] = table[:, 0]
        for a, mu, e in varying:
            if mu == 0:
                f[..., a] = e(pts)
        return f

    def from_frame(self, points, f) -> np.ndarray:
        """Coordinate gradients g with to_frame(points, g) = f (the inverse map)."""
        f = np.asarray(f, dtype=float)
        if self.metric_kind == "vielbein4d":
            return np.linalg.solve(self.frame_matrices(points), f[..., None])[..., 0]
        return f

    def frame_norm2(self, w) -> np.ndarray:
        """eta(w, w) on flat-frame components (negative for timelike).  In 2D it is
        (|w1| - w0)(w0 + |w1|), where near the light cone |w1| - w0 is exact; in 4D
        a computed |w| would round as much as the squares do."""
        w = np.asarray(w)
        if self.dimension == 2:
            r = np.abs(w[..., 1])
            return (r - w[..., 0]) * (w[..., 0] + r)
        return -w[..., 0] ** 2 + np.sum(w[..., 1:] ** 2, axis=-1)

    # -- sampled sanity checks ----------------------------------------------

    @np.errstate(all="ignore")  # non-finite samples fail the checks; numpy need not warn
    def validate(self, samples_per_axis: int = 9) -> Dict[str, float]:
        """Sampled positivity/invertibility/signature checks; raises ModelValidationError."""
        axes = [np.linspace(lo, hi, samples_per_axis) for lo, hi in self.domain_box]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.dimension)
        report: Dict[str, float] = {}
        field_name = "conformal_factor"  # the field under check, named on failure
        try:
            if self.metric_kind == "conformal2d":
                om = self.conformal_factor(mesh)
                report["min_conformal_factor"] = float(np.min(om))
                if not np.all(np.isfinite(om)) or report["min_conformal_factor"] <= 0:
                    raise ValueError("conformal factor must be positive on the sampled domain")
            field_name = "vielbein"
            if self.metric_kind == "vielbein4d":
                E = self.frame_matrices(mesh)
                if not np.all(np.isfinite(E)):
                    raise ValueError("vielbein is not finite at a sampled point")
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
            field_name = "mass_field"
            if self.mass_kind == "scalar":
                vals = np.abs(self.mass_field(mesh))
                report["min_abs_weight"] = float(np.min(vals))
                if not np.all(np.isfinite(vals)):
                    raise ValueError("weight field is not finite on the sampled domain")
        except ValueError as exc:
            raise ModelValidationError(str(exc), field_name) from exc
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


def _integrand(model: SpacetimeModel, samples, velocities, weigh: bool = True):
    """(w, eta, defect, mean) of coordinate velocities v (..., 1, n) at samples (..., k, n).

    w are the frame tangents and eta = eta(w, w), mapped at every sample, or at the
    first of each row on an identity frame.  v is causal where the defect
    eta / |v|^2 is <= CURVE_TOL, and future-directed where w^0 > 0.  mean averages
    the integrand weight * sqrt(-eta) over the k samples (None unless weigh).  A
    non-finite norm or weight at a sample inside the box raises ValueError, where a
    NaN would silently fail the causal test; lattice nodes may leave the box.
    """
    w = model.frame_components(samples if model.metric_kind == "vielbein4d"
                               else samples[..., :1, :], velocities)
    eta = model.frame_norm2(w)
    defect = eta / np.maximum((velocities * velocities).sum(-1), 1e-300)
    if not weigh:
        return w, eta, defect, None
    vals = (model.weight(samples) * np.sqrt(np.clip(-eta, 0.0, None))).mean(-1)
    if not (np.isfinite(vals).all() and np.max(eta, initial=-np.inf) < np.inf):
        bad = ~(np.isfinite(eta) & np.isfinite(model.weight(samples))) & model.in_domain(samples)
        if bad.any():
            raise ValueError(f"the frame or the weight is not finite at "
                             f"{samples[bad][0].tolist()} inside the domain box")
    return w, eta, defect, vals


def validate_curve(curve: CausalCurve, model: SpacetimeModel) -> CurveReport:
    """Per-sample causality/future-direction report; never raises."""
    w, _, defect, _ = _integrand(model, curve.points[:, None], curve.tangents[:, None],
                                 weigh=False)
    worst = int(np.argmax(defect[:, 0]))
    return CurveReport(causal_flags=defect[:, 0] <= CURVE_TOL, future_flags=w[:, 0, 0] > 0,
                       worst_violation=float(defect[worst, 0]), worst_index=worst)


@np.errstate(all="ignore")  # a non-finite frame or weight fails `_integrand`'s check
def _checked_integrand(curve: CausalCurve, model: SpacetimeModel):
    """(integrand, w, eta, defect) per sample of a future-directed causal curve, as
    `_integrand` gives them.  Raises InvalidCurveError naming the sample with the
    worst causality defect, else the first past-directed one."""
    w, eta, defect, integrand = _integrand(model, curve.points[:, None], curve.tangents[:, None])
    w, eta, defect = w[:, 0], eta[:, 0], defect[:, 0]
    if not np.all(defect <= CURVE_TOL):
        idx = int(np.argmax(defect))
        raise InvalidCurveError(
            f"spacelike tangent at sample {idx} (normalized defect {defect[idx]:.3e})"
        )
    if not np.all(w[:, 0] > 0):
        idx = int(np.argmin(w[:, 0] > 0))
        raise InvalidCurveError(f"tangent is not future-directed at sample {idx}")
    return integrand, w, eta, defect


def weighted_length(curve: CausalCurve, model: SpacetimeModel) -> float:
    """Composite-Simpson value of the weighted proper-time functional along the curve.

    The curve needs MIN_CURVE_SAMPLES samples, and every tangent must be causal
    and future-directed (InvalidCurveError names the failing sample).
    """
    if curve.ts.shape[0] < MIN_CURVE_SAMPLES:
        raise InvalidCurveError(
            f"curves need at least {MIN_CURVE_SAMPLES} samples for the quadrature, "
            f"got {curve.ts.shape[0]}"
        )
    integrand = _checked_integrand(curve, model)[0]
    # scipy.integrate is imported here, not at module level: it dominates the
    # package's start-up, and only the two quadrature routines need it
    from scipy.integrate import simpson

    return float(simpson(integrand, x=curve.ts))


def cumulative_weighted_length(curve: CausalCurve, model: SpacetimeModel) -> np.ndarray:
    """Running weighted length at every curve sample (starts at 0)."""
    return _cumulative_length(curve, model)[0]


def _cumulative_length(curve: CausalCurve, model: SpacetimeModel):
    """(running weighted length, w, eta, defect): the lengths with the frame tangents,
    their eta(w, w) and causality defects of `_checked_integrand`."""
    integrand, w, eta, defect = _checked_integrand(curve, model)
    if curve.ts.shape[0] >= 3:
        from scipy.integrate import cumulative_simpson

        lengths = np.asarray(cumulative_simpson(integrand, x=curve.ts, initial=0.0))
    else:
        mids = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(curve.ts)
        lengths = np.concatenate([[0.0], np.cumsum(mids)])
    return lengths, w, eta, defect


# ---------------------------------------------------------------------------
# causal order between points


def _in_reference_cone(dt, r):
    """Displacements (dt, spatial length r) in the closed flat cone, to CONE_TOL."""
    return (dt >= -CONE_TOL) & (r <= dt + CONE_TOL)


def _relation(model: SpacetimeModel, p: np.ndarray, q: np.ndarray,
              steps: int) -> Tuple[bool, Optional[np.ndarray]]:
    """(p precedes q, lattice path p -> q) at `steps` lattice steps per null axis.

    Identity frames keep the flat cone; vielbein4d accepts a causal straight chord,
    else sweeps the diamond.  A relation without a path is the chord's.
    """
    dt = q[0] - p[0]
    r = np.linalg.norm(q[1:] - p[1:])
    if model.metric_kind != "vielbein4d":
        return bool(_in_reference_cone(dt, r)), None
    if dt < -CONE_TOL:
        return False, None
    if r <= 1e-14 and abs(dt) <= 1e-14:
        return True, None
    if _segment_values(model, p[None, :], q[None, :], nsub=16)[1][0] <= CURVE_TOL:
        return True, None
    path = _diamond_path(model, p, q, steps)
    return path is not None, path


@np.errstate(all="ignore")  # a non-finite frame fails an explicit check; numpy need not warn
def is_causally_related(p, q, model: SpacetimeModel) -> bool:
    """True iff a future-directed causal curve joins p to q."""
    p = _as_point(p, model.dimension)
    q = _as_point(q, model.dimension)
    model.require_in_domain(p, q)
    return _relation(model, p, q, max(int(model.resolutions["time_steps"]) // 2, 1))[0]


# ---------------------------------------------------------------------------
# segment quadrature (shared by the lattice, chords, and polyline refinement)


def _segment_values(model: SpacetimeModel, a, b, nsub: int = 8):
    """Weighted lengths of straight segments a->b via midpoint composite quadrature.

    a, b: (..., n) endpoint arrays.  Returns (`_integrand`'s means, each segment's
    worst causality defect over its samples, +inf where a sample is past-directed);
    a segment of length <= 1e-14 counts as future-directed.  Callers threshold the
    defect: CURVE_TOL for the relation, 0 for refinement moves.
    """
    a = np.asarray(a, dtype=float)
    delta = np.asarray(b, dtype=float) - a
    fr = (np.arange(nsub) + 0.5) / nsub
    pts = a[..., None, :] + fr[:, None] * delta[..., None, :]
    w, _, defect, vals = _integrand(model, pts, delta[..., None, :])
    future = (w[..., 0] > 0).all(-1) | ((delta * delta).sum(-1) <= 1e-28)
    return vals, np.where(future, defect.max(-1), np.inf)


# ---------------------------------------------------------------------------
# causal-diamond lattice in null coordinates

# Lattice edges (a, b): a steps along u = t + sigma and b along v = t - sigma, out
# of row i - a.  The moves within a row chain (0, 1) steps.
DIAMOND_EDGES = tuple((a, b) for a in (1, 2) for b in (0, 1, 2))
_PAD = 2  # the longest edge: -inf rows above and columns left of the padded tables


@dataclass
class DiamondField:
    """Best accumulated weighted lengths from a source s on a causal lattice.

    Node (i, j) sits at u = i * hu, v = j * hv, with u = (t - t_s) + sigma and
    v = (t - t_s) - sigma, and sigma measured along the unit vector `direction`.
    `value` is -inf at unreachable nodes and outside the domain; `pred` holds the
    flat index of each node's predecessor on its best path.
    """

    source: np.ndarray
    direction: np.ndarray
    hu: float
    hv: float
    value: np.ndarray
    pred: np.ndarray

    def points(self, i, j) -> np.ndarray:
        """Coordinates of the nodes (i, j); i and j broadcast."""
        u, v = np.broadcast_arrays(np.multiply(i, self.hu), np.multiply(j, self.hv))
        out = np.empty(u.shape + self.source.shape)
        out[..., 0] = self.source[0] + 0.5 * (u + v)
        out[..., 1:] = self.source[1:] + (0.5 * (u - v))[..., None] * self.direction
        return out

    def node_below(self, points) -> Tuple[np.ndarray, np.ndarray]:
        """Node (floor(u / hu), floor(v / hv)) of each point: in the point's causal past."""
        pts = np.asarray(points, dtype=float)
        dt = pts[..., 0] - self.source[0]
        sigma = (pts[..., 1:] - self.source[1:]) @ self.direction
        return tuple(np.clip(np.floor(x / h), 0, n - 1).astype(int) for x, h, n in
                     zip((dt + sigma, dt - sigma), (self.hu, self.hv), self.value.shape))

    def extract_path(self, i: int, j: int) -> np.ndarray:
        """Coordinates of the best path from the source into node (i, j)."""
        k = int(i) * self.value.shape[1] + int(j)
        chain = [k]
        while k:
            k = int(self.pred.flat[k])
            chain.append(k)
        ii, jj = np.divmod(np.array(chain[::-1]), self.value.shape[1])
        return self.points(ii, jj)


def _edge_tails(padded: np.ndarray, shape: Tuple[int, int]) -> np.ndarray:
    """View w[i, a - 1, b, j] = padded node (i - a, j - b), for every edge (a, b)."""
    s_row, s_col = padded.strides
    return np.lib.stride_tricks.as_strided(
        padded[_PAD - 1:, _PAD:], shape=(shape[0], 2, 3, shape[1]),
        strides=(s_row, -s_row, -s_col, s_col), writeable=False)


def _sweep(model: SpacetimeModel, p: np.ndarray, direction: np.ndarray, hu: float,
           hv: float, shape: Tuple[int, int], t_max: float = np.inf) -> DiamondField:
    """Forward DP from the source p (node (0, 0)) over the nodes of `shape`.

    A row's nodes inside the domain box and no later than t_max form one run; the
    rest hold -inf.  A row takes the best of its DIAMOND_EDGES candidates in one
    array operation, then chains its own (0, 1) steps, which carry 0.  On an
    identity frame every edge is causal with speed sqrt(du dv), so its value is the
    trapezoid rule of the weight at its ends, and the in-row moves are one
    `np.maximum.accumulate`.  On vielbein4d one `_segment_values` call per row
    masks the edges, and only admissible in-row steps chain.
    """
    nu, nv = shape
    padded = np.full((nu + _PAD, nv + _PAD), -np.inf)
    fld = DiamondField(source=p, direction=direction, hu=hu, hv=hv,
                       value=padded[_PAD:, _PAD:], pred=np.zeros(shape, dtype=np.int32))
    value, pred = fld.value, fld.pred
    cols = np.arange(nv)
    pts = fld.points(np.arange(nu)[:, None], cols)
    inside = model.in_domain(pts) & (pts[..., 0] <= t_max)
    lo = np.argmax(inside, axis=1)
    hi = np.where(inside.any(axis=1), nv - np.argmax(inside[:, ::-1], axis=1), 0)
    tails = _edge_tails(padded, shape)
    # node (i, j) takes edge k from the flat index i * nv + j - back[k]
    back = np.array([a * nv + b for a, b in DIAMOND_EDGES])

    flat_cone = model.metric_kind != "vielbein4d"
    if flat_cone:
        f = np.zeros((nu + _PAD, nv + _PAD))  # the weight; 0 off the domain
        f[_PAD:, _PAD:][inside] = model.weight(pts[inside])
        f_tails = _edge_tails(f, shape)
        half_speed = 0.5 * np.sqrt(np.outer([1, 2], [0, 1, 2]) * hu * hv)[..., None]

    for i in range(nu):
        if flat_cone:
            edges = half_speed * (f_tails[i] + f[_PAD + i, _PAD:])
            runs = [lo[i], hi[i]]
        else:
            edges, steps_ok = _masked_edges(model, pts, lo, hi, i)
            runs = [lo[i], *(lo[i] + 1 + np.flatnonzero(~steps_ok)).tolist(), hi[i]]
        cand = (tails[i] + edges).reshape(6, nv)
        row, prow = value[i], pred[i]
        row[:] = cand.max(axis=0)
        prow[:] = i * nv + cols - back[cand.argmax(axis=0)]
        row[:lo[i]] = row[hi[i]:] = -np.inf
        if i == 0 and inside[0, 0]:
            row[0] = 0.0

        # moves within the row: null on the reference cone, so they carry 0
        for s, e in zip(runs[:-1], runs[1:]):
            acc = np.maximum.accumulate(row[s:e])
            moved = acc > row[s:e]
            if moved.any():
                src = np.maximum.accumulate(np.where(moved, s, cols[s:e]))
                prow[s:e][moved] = i * nv + src[moved]
                row[s:e] = acc
    return fld


def _masked_edges(model: SpacetimeModel, pts: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  i: int) -> Tuple[np.ndarray, np.ndarray]:
    """Edge values into row i (-inf where not causal) and its in-row step mask.

    Only edges between nodes inside the domain are evaluated.
    """
    nv = pts.shape[1]
    edges = np.full((2, 3, nv), -np.inf)
    spans = [(a, b, max(lo[i], lo[i - a] + b), min(hi[i], hi[i - a] + b))
             for a, b in DIAMOND_EDGES if a <= i]
    spans = [s for s in spans if s[3] > s[2]]
    run = pts[i, lo[i]:hi[i]]
    starts = [pts[i - a, c0 - b:c1 - b] for a, b, c0, c1 in spans] + [run[:-1]]
    ends = [pts[i, c0:c1] for _, _, c0, c1 in spans] + [run[1:]]
    vals, defect = _segment_values(model, np.concatenate(starts), np.concatenate(ends), nsub=1)
    ok = defect <= CURVE_TOL
    vals = np.where(ok, vals, -np.inf)
    e0 = 0
    for a, b, c0, c1 in spans:
        edges[a - 1, b, c0:c1] = vals[e0:e0 + c1 - c0]
        e0 += c1 - c0
    return edges, ok[e0:]


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


def _diamond_path(model: SpacetimeModel, p: np.ndarray, q: np.ndarray,
                  steps: int) -> Optional[np.ndarray]:
    """Best lattice path p -> q over the flat reference cone's diamond J+(p) ∩ J-(q).

    `steps` steps per null axis (none along an axis of zero length); in 4D the
    diamond lies in the plane of the time axis and the direction p -> q.  None
    when q is outside the reference cone or no lattice path reaches it.
    """
    direction, _ = _plane_frame(p, q)
    sigma = float(np.linalg.norm(q[1:] - p[1:]))
    dt = q[0] - p[0]
    if not _in_reference_cone(dt, sigma):
        return None
    extent = np.maximum([dt + sigma, dt - sigma], 0.0)
    nu, nv = np.where(extent > 0, max(steps, 1), 0)
    fld = _sweep(model, p, direction, extent[0] / max(nu, 1), extent[1] / max(nv, 1),
                 (nu + 1, nv + 1))
    if not np.isfinite(fld.value[nu, nv]):
        return None
    path = fld.extract_path(nu, nv)
    path[0], path[-1] = p, q  # the corner nodes, without rounding
    return path


# ---------------------------------------------------------------------------
# polyline refinement


def _refine_polyline(model: SpacetimeModel, nodes: np.ndarray, hx: float,
                     nsub: int) -> Tuple[float, np.ndarray]:
    """Deterministic improvement of a causal polyline; returns (value, nodes).

    One move, `_move_spans`, gives spans that share no segment new interior nodes,
    one `_segment_values` call per batch, in two phases:

    - Chords: the straight chord between a dyadic span's end nodes, at its interior
      nodes' times (repairs the lattice's velocity quantization).  Spans halve from
      the whole polyline down to 2; the chords of one span start every span // 2
      nodes and are tried in groups of segment-disjoint chords.
    - Node shifts: single interior nodes moved sideways (polishes the local
      profile), in red/black sweeps: all odd nodes, then all even ones.  Each node
      tries every direction, then the steps hx and hx/4, then both signs, starting
      from wherever its last accepted move left it.  At most two sweeps run, and
      they stop early when a sweep improves nothing.

    A move is kept only where every new segment is future-directed with
    eta(w, w) <= 0 at every sample and the value gains more than 1e-15; end nodes
    never move.  A segment spacelike by an ulp, within the relation's CURVE_TOL,
    would lift the value above the supremum near the null cone, while a rejected
    move only gives up a gain: so the value is a certified lower bound.
    """
    nodes = np.array(nodes, dtype=float)
    L = len(nodes)
    seg = _segment_values(model, nodes[:-1], nodes[1:], nsub=nsub)[0]

    span = L - 1
    while span >= 2:
        step = max(1, span // 2)
        starts = np.arange(0, L - span, step)
        stride = -(-span // step)  # chords stride * step apart share no segment
        for first in range(min(stride, len(starts))):
            i = starts[first::stride]
            a, b = nodes[i, None], nodes[i + span, None]
            t = nodes[i[:, None] + np.arange(1, span), :1]
            frac = (t - a[..., :1]) / np.maximum(b[..., :1] - a[..., :1], 1e-300)
            _move_spans(model, nodes, seg, i, a + frac * (b - a), nsub)
        span //= 2

    if model.dimension == 2:
        directions = [np.array([0.0, 1.0])]
    else:
        u, dirs = _plane_frame(nodes[0], nodes[-1])
        directions = [np.concatenate([[0.0], d]) for d in dirs]

    colours = [np.arange(first, L - 1, 2) for first in (1, 2)]
    for _ in range(2):
        improved = False
        for ks in colours:
            if len(ks) == 0:
                continue
            for d in directions:
                for step in (hx, 0.25 * hx):
                    for sign in (1.0, -1.0):
                        shifted = nodes[ks, None] + sign * step * d
                        improved |= _move_spans(model, nodes, seg, ks - 1, shifted, nsub)
        if not improved:
            break

    return float(np.sum(seg)), nodes


def _move_spans(model, nodes, seg, starts, interior, nsub) -> bool:
    """Give the spans [i, i + span] (starts i, no two sharing a segment) the interior
    nodes `interior` (B, span - 1, n) where `_refine_polyline`'s rule accepts them;
    in place.  Returns whether any span moved."""
    span = interior.shape[1] + 1
    idx = starts[:, None] + np.arange(span + 1)
    path = np.concatenate([nodes[starts, None], interior, nodes[starts + span, None]], axis=1)
    vals, defect = _segment_values(model, path[:, :-1], path[:, 1:], nsub=nsub)
    better = (defect <= 0.0).all(-1) & (vals.sum(-1) > seg[idx[:, :-1]].sum(-1) + 1e-15)
    nodes[idx[better, 1:-1]] = interior[better]
    seg[idx[better, :-1]] = vals[better]
    return bool(better.any())


def _polyline_to_curve(nodes: np.ndarray) -> CausalCurve:
    """Resample a polyline into a CausalCurve, four samples per segment (the extra
    nodes keep tangents near the chords)."""
    a = nodes[:-1, None, :]
    steps = a + (nodes[1:, None, :] - a) * (np.arange(1, 5)[:, None] / 4)
    pts = np.concatenate([nodes[:1], steps.reshape(-1, nodes.shape[1])])
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


@np.errstate(all="ignore")  # a non-finite frame fails an explicit check; numpy need not warn
def max_weighted_length(p, q, model: SpacetimeModel, *, time_steps: Optional[int] = None,
                        return_curve: bool = False, method: str = "auto"):
    """Supremal weighted length over future-directed causal curves p -> q.

    Closed form on flat constant-mass models; causal-lattice DP plus polyline
    refinement otherwise (a certified lower bound).  method='dp' forces the lattice
    even where the closed form applies; 'closed' demands it.  Raises NotRelatedError
    when p does not precede q, as decided at time_steps (>= 1, default the model's).
    """
    p = _as_point(p, model.dimension)
    q = _as_point(q, model.dimension)
    model.require_in_domain(p, q)
    nt = _time_steps(model, time_steps)
    steps = max(nt // 2, 1)
    related, nodes = _relation(model, p, q, steps)
    if not related:
        raise NotRelatedError(f"{p.tolist()} does not precede {q.tolist()}")

    dt = q[0] - p[0]
    if _resolve_method(model, method) == "closed":
        val = abs(model.mass) * float(np.sqrt(max(0.0, -model.frame_norm2(q - p))))
        if return_curve:
            return val, straight_curve(p, q, n=129)
        return val

    nsub = int(model.resolutions["quadrature"])
    if dt <= 1e-12:  # related with no time extent: p == q (or numerically so)
        if return_curve:
            return 0.0, _polyline_to_curve(np.stack([p, q]))
        return 0.0

    if nodes is None:
        nodes = _diamond_path(model, p, q, steps)
    if nodes is None:
        # the relation came from the causal straight chord: start from the diagonal
        nodes = p + np.linspace(0.0, 1.0, steps + 1)[:, None] * (q - p)
        nodes[-1] = q
    hx = min(abs(dt) / max(nt - 1, 1), 0.05)
    value, nodes = _refine_polyline(model, nodes, hx=max(hx, 1e-4), nsub=nsub)

    if return_curve:
        return value, _polyline_to_curve(nodes)
    return value


# ---------------------------------------------------------------------------
# single-source field for cone surfaces


@np.errstate(all="ignore")  # a non-finite frame fails an explicit check; numpy need not warn
def single_source_field(model: SpacetimeModel, p, t_max: float,
                        *, time_steps: Optional[int] = None) -> DiamondField:
    """One forward sweep from p over the box part of its diamond up to t_max (2D models).

    Node spacing is 2 * (t_max - t_p) / (time_steps - 1) along both null axes, so
    the nodes take time_steps levels of t from t_p to t_max (time_steps >= 1,
    default the model's), and each axis needs at most time_steps nodes.
    Cone-surface generation reads the node below each target and tops it up with a
    straight-chord candidate; both are lower bounds on the supremum.
    """
    p = _as_point(p, model.dimension)
    model.require_in_domain(p)
    nt = _time_steps(model, time_steps)
    span = float(t_max) - p[0]
    h = 2.0 * span / max(nt - 1, 1)
    lo, hi = model.domain_box[1] - p[1]
    shape = tuple(min(int(np.ceil((span + x) / h)) + 1, max(nt, 2)) for x in (hi, -lo))
    return _sweep(model, p, np.array([1.0]), h, h, shape, t_max=float(t_max))
