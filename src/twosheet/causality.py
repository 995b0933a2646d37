"""Causal-relation decisions between mixed states on a two-sheeted space-time.

A mixed state sits at a space-time point with an internal coordinate xi in [0, 1].
Moving between internal coordinates costs weighted proper time: the states are
related iff the base points are causally related and the maximal weighted length
of a connecting curve reaches |arcsin(sqrt(phi)) - arcsin(sqrt(xi))|.  Decisions
report both legs, the achieved/required budget, and the comparison method.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .expressions import Expression, parse_expression
from .geometry import (
    DomainError,
    MixedState,
    NotRelatedError,
    SpacetimeModel,
    _checked_band,
    _in_reference_cone,
    _resolve_method,
    _segment_values,
    _time_steps,
    is_causally_related,
    max_weighted_length,
    single_source_field,
)

__all__ = [
    "CausalDecision",
    "ConeSurface",
    "COMPARISON_TOL",
    "CLOSED_DECISION_TOL",
    "DP_DECISION_TOL",
    "internal_gap",
    "required_proper_time",
    "decide",
    "future_cone",
    "fluctuate",
]

COMPARISON_TOL = 1e-9       # inclusive threshold comparison: float-noise slack only
CLOSED_DECISION_TOL = 1e-9  # marginal band around the threshold, closed-form values
DP_DECISION_TOL = 2e-3      # marginal band for lattice lower bounds
_CHORD_BLOCK_SAMPLES = 1 << 16  # chord samples per quadrature call: ~1 MB temporaries


@dataclass
class CausalDecision:
    """Outcome of a relation query between two mixed states.

    required/achieved are proper times for constant mass and weighted lengths for
    scalar weights; related is the inclusive comparison AND the base relation.
    Lattice achieved values are certified lower bounds, so the comparison itself
    only absorbs float noise; marginal flags decisions whose margin is inside the
    method's uncertainty band and therefore could sit on either side in truth.
    """

    related: bool
    base_related: bool
    required: float
    achieved: float
    slack: float
    method: str
    marginal: bool = False
    band: float = CLOSED_DECISION_TOL


def _as_state(state) -> MixedState:
    if isinstance(state, MixedState):
        return state
    point, xi = state
    return MixedState(point=point, xi=xi)


def internal_gap(xi: float, phi: float) -> float:
    """|arcsin(sqrt(phi)) - arcsin(sqrt(xi))| — the internal budget to spend."""
    for v in (xi, phi):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"internal coordinate {v!r} outside [0, 1]")
    return float(abs(np.arcsin(np.sqrt(phi)) - np.arcsin(np.sqrt(xi))))


def required_proper_time(xi: float, phi: float, model: SpacetimeModel) -> float:
    """Minimal budget between internal coordinates xi and phi under the model.

    Constant mass m: gap / |m| (proper time); m = 0 with xi != phi means the sheets
    never communicate — infinite threshold.  Scalar weight: the gap itself, to be
    compared with the weighted length.  Diagonal internal operator: 0 when xi == phi,
    infinite otherwise.
    """
    gap = internal_gap(xi, phi)
    if model.mass_kind == "diagonal":
        return 0.0 if xi == phi else np.inf
    if model.mass_kind == "scalar":
        return gap
    am = abs(model.mass)
    if am == 0.0:
        return 0.0 if gap == 0.0 else np.inf
    return gap / am


def decide(state1, state2, model: SpacetimeModel, *, method: str = "auto",
           tol: Optional[float] = None) -> CausalDecision:
    """Is state1 in the causal past of state2?

    related = base relation on the manifold AND achieved budget >= required budget
    (inclusive, within the method tolerance).  Null-separated points achieve 0, so
    distinct internal coordinates across a null gap are never related.  The
    marginal band is tol (positive and finite), else model.decision_band, else the
    method's default.  A diagonal internal operator is decided exactly (related iff
    xi == phi and p precedes q); method and a valid tol are then unused.
    """
    if tol is not None:
        tol = _checked_band(tol)
    s1 = _as_state(state1)
    s2 = _as_state(state2)
    model.require_in_domain(s1.point, s2.point)
    if model.mass_kind == "diagonal":
        return _diagonal_decision(s1, s2, is_causally_related(s1.point, s2.point, model))

    used = _resolve_method(model, method)
    default = CLOSED_DECISION_TOL if used == "closed" else DP_DECISION_TOL
    band = next(b for b in (tol, model.decision_band, default) if b is not None)
    required = required_proper_time(s1.xi, s2.xi, model)

    try:  # the base relation is max_weighted_length's first step
        achieved, base = max_weighted_length(s1.point, s2.point, model, method=used), True
    except NotRelatedError:
        achieved, base = 0.0, False
    if model.mass_kind == "constant":
        am = abs(model.mass)
        achieved = achieved / am if am > 0 else 0.0

    related = bool(base and achieved >= required - COMPARISON_TOL)
    marginal = bool(base and np.isfinite(required) and abs(achieved - required) <= band)
    return CausalDecision(related=related, base_related=base, required=float(required),
                          achieved=float(achieved), slack=float(achieved - required),
                          method=used, marginal=marginal, band=band)


def _diagonal_decision(s1: MixedState, s2: MixedState, base: bool) -> CausalDecision:
    required = 0.0 if s1.xi == s2.xi else np.inf
    related = bool(base and s1.xi == s2.xi)
    return CausalDecision(related=related, base_related=base, required=required,
                          achieved=0.0, slack=-required if required > 0 else 0.0,
                          method="diagonal", marginal=False, band=0.0)


# ---------------------------------------------------------------------------
# cone surfaces


@dataclass
class ConeSurface:
    """phi_max over a grid of target points: the largest reachable internal coordinate.

    Unreachable targets carry phi_max = nan and reachable = False.  validation is the
    record of the closed-form-vs-decide confirmation (closed method only).
    """

    state: MixedState
    points: np.ndarray         # (N, n)
    weighted: np.ndarray       # (N,) best weighted length to each target
    phi_max: np.ndarray        # (N,)
    reachable: np.ndarray      # (N,) bool
    method: str
    grid_shape: Optional[Tuple[int, ...]] = None
    validation: Optional[Dict[str, float]] = None


def _phi_max_from_budget(xi: float, weighted: np.ndarray) -> np.ndarray:
    u = np.minimum(0.5 * np.pi, np.arcsin(np.sqrt(xi)) + weighted)
    return np.sin(u) ** 2


def _target_grid(model: SpacetimeModel, grid) -> Tuple[np.ndarray, Optional[Tuple[int, ...]]]:
    if grid is None:
        nt = int(model.resolutions["time_steps"])
        nx = int(model.resolutions["space_steps"])
        axes = [np.linspace(*model.domain_box[0], nt)]
        axes += [np.linspace(*model.domain_box[k], nx) for k in range(1, model.dimension)]
    elif isinstance(grid, (tuple, list)) and np.asarray(grid[0]).ndim == 1:
        axes = [np.asarray(a, dtype=float) for a in grid]
        if len(axes) != model.dimension:
            raise ValueError(f"grid needs {model.dimension} axes")
    else:
        pts = np.asarray(grid, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != model.dimension:
            raise ValueError("grid must be axes or an (N, n) point array")
        return pts, None
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    shape = mesh.shape[:-1]
    return mesh.reshape(-1, model.dimension), shape


def _chord_budget(model: SpacetimeModel, p: np.ndarray,
                  pts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Straight-chord weighted lengths p -> target, with admissibility mask.

    Every chord is one segment with the exact velocity target - p, so a null
    target gets exactly 0.
    """
    nsub = 32 * int(model.resolutions["quadrature"])
    block = max(1, _CHORD_BLOCK_SAMPLES // nsub)
    vals = np.empty(len(pts))
    ok = np.empty(len(pts), dtype=bool)
    for s in range(0, len(pts), block):
        vals[s:s + block], ok[s:s + block] = _segment_values(model, p[None, :],
                                                             pts[s:s + block], nsub=nsub)
    return vals, ok


def _dp_cone_budget(model: SpacetimeModel, p: np.ndarray, pts: np.ndarray,
                    reach: np.ndarray, time_steps: int) -> np.ndarray:
    """Best of the lattice node below and the straight chord, at least 0, at each
    target in reach; -inf elsewhere."""
    if model.dimension != 2:
        raise NotImplementedError(
            "cone surfaces need a 1+1 lattice; evaluate decide per target in 4D")
    chord_vals, chord_ok = _chord_budget(model, p, pts)
    weighted = np.where(reach & chord_ok, chord_vals, -np.inf)

    t_max = float(np.max(pts[:, 0]))
    if t_max > p[0] + 1e-9:
        fld = single_source_field(model, p, t_max, time_steps=time_steps)
        node_vals = fld.value[fld.node_below(pts)]
        weighted = np.maximum(weighted, np.where(reach, node_vals, -np.inf))

    return np.where(reach, np.maximum(weighted, 0.0), weighted)


def _validate_closed_cone(state: MixedState, model: SpacetimeModel, pts: np.ndarray,
                          weighted: np.ndarray, reach: np.ndarray,
                          samples: int) -> Dict[str, float]:
    """Conjecture check: the inverted formula must agree with decide at the surface.

    For a deterministic subsample of strictly timelike reachable targets, decide must
    say related just below phi_max and not related just above it (when phi_max < 1).
    """
    u_xi = float(np.arcsin(np.sqrt(state.xi)))
    idx = np.flatnonzero(reach & (weighted > 1e-6))
    if len(idx) == 0:
        return {"checked": 0.0, "passed": 1.0}
    sel = idx[np.linspace(0, len(idx) - 1, min(samples, len(idx))).astype(int)]
    checked = 0
    for k in np.unique(sel):
        q = pts[k]
        u = min(0.5 * np.pi, u_xi + weighted[k])
        below = np.sin(max(u - 1e-7, 0.0)) ** 2
        dec = decide(state, MixedState(q, below), model, method="closed")
        if not dec.related:
            raise RuntimeError(
                f"cone conjecture failed at {q.tolist()}: phi just below "
                f"{np.sin(u) ** 2:.12g} not reachable per decide")
        if u < 0.5 * np.pi - 1e-6:
            above = np.sin(u + 1e-6) ** 2
            dec = decide(state, MixedState(q, above), model, method="closed")
            if dec.related:
                raise RuntimeError(
                    f"cone conjecture failed at {q.tolist()}: phi above the surface "
                    "still reachable per decide")
        checked += 1
    return {"checked": float(checked), "passed": 1.0, "probe": 1e-6}


@np.errstate(all="ignore")  # a non-finite frame fails an explicit check; numpy need not warn
def future_cone(state, model: SpacetimeModel, grid=None, *, method: str = "auto",
                validate: int = 12, time_steps: Optional[int] = None) -> ConeSurface:
    """Largest reachable internal coordinate over a grid of target points.

    For each target q with p preceding q, phi_max = sin^2(min(pi/2, arcsin(sqrt(xi))
    + best weighted length)); on the null boundary the budget is 0, so phi_max = xi.
    The closed form is confirmed against decide on a subsample before being returned.
    time_steps (>= 1, default the model's) sets the dp lattice; it is checked on
    every path.
    """
    st = _as_state(state)
    model.require_in_domain(st.point)
    nt = _time_steps(model, time_steps)
    if model.mass_kind == "diagonal":
        raise ValueError("a diagonal internal operator admits no internal motion; "
                         "the surface is phi = xi on the base cone")
    pts, shape = _target_grid(model, grid)
    if not bool(np.all(model.in_domain(pts))):
        raise DomainError("cone grid extends outside the model domain box")

    used = _resolve_method(model, method)
    p = st.point
    reach = _in_reference_cone(pts[:, 0] - p[0], np.linalg.norm(pts[:, 1:] - p[1:], axis=-1))
    if used == "closed":
        weighted = abs(model.mass) * np.sqrt(np.clip(-model.frame_norm2(pts - p), 0.0, None))
    else:
        weighted = _dp_cone_budget(model, p, pts, reach, nt)
        reach = reach & np.isfinite(weighted)

    phi = np.where(reach, _phi_max_from_budget(st.xi, np.where(reach, weighted, 0.0)), np.nan)
    validation = None
    if used == "closed" and validate:
        validation = _validate_closed_cone(st, model, pts, weighted, reach, validate)
    return ConeSurface(state=st, points=pts, weighted=np.where(reach, weighted, np.nan),
                       phi_max=phi, reachable=reach, method=used, grid_shape=shape,
                       validation=validation)


# ---------------------------------------------------------------------------
# fluctuations


def fluctuate(model: SpacetimeModel, Phi: Union[str, Expression],
              A: Optional[Sequence[Union[str, Expression]]] = None,
              B: Optional[Sequence[Union[str, Expression]]] = None) -> SpacetimeModel:
    """Model with the constant mass promoted to a scalar weight field Phi.

    Optional vector potentials A, B (one expression per coordinate) are recorded for
    the commutation no-op check; they never influence decisions.  A Phi that
    vanishes somewhere on the domain triggers a warning: regions of the domain stop
    contributing budget and some internal thresholds may become unreachable.
    """
    phi_expr = Phi if isinstance(Phi, Expression) else parse_expression(Phi)

    def _vec(exprs):
        if exprs is None:
            return None
        out = tuple(e if isinstance(e, Expression) else parse_expression(e) for e in exprs)
        if len(out) != model.dimension:
            raise ValueError(f"vector potential needs {model.dimension} components")
        return out

    Av, Bv = _vec(A), _vec(B)
    if (Av is None) != (Bv is None):
        raise ValueError("vector potentials come in pairs (one per sheet)")

    fluct = replace(model, mass_kind="scalar", mass_field=phi_expr,
                    vector_potentials=(Av, Bv) if Av is not None else None)
    report = fluct.validate(samples_per_axis=33 if model.dimension == 2 else 9)
    if report["min_abs_weight"] <= 1e-12:
        warnings.warn("scalar weight vanishes on part of the domain; internal "
                      "thresholds beyond the dead region may be unreachable",
                      stacklevel=2)
    return fluct
