"""Monte-Carlo oracle: random certified cone elements vs the decision procedure.

The decision procedure says two states are related; the definition says every cone
element must then be non-decreasing between them.  This module samples random cone
elements (a global time function T plus Gaussian-windowed cosine bumps, scaled by the
largest shrink that keeps the obstruction matrix PSD on a grid) and evaluates the
defining inequality directly, hunting for contradictions the main code path cannot see.

The shrink is exact per grid point.  A local Lorentz boost L acts on the obstruction
matrix by a spin congruence, diag(S, S)^H M(fa, fb, z) diag(S, S) = M(L fa, L fb, z),
which keeps PSD-ness.  In the rest frame of dT, T's blocks are tau * I, so
T + s * bumps is PSD iff 1 + s * lambda >= 0 for every eigenvalue lambda of the
boosted bumps over tau: one smallest-eigenvalue sweep gives the largest s.  The boost
exists only where dT is future timelike, which sampling requires on the whole grid.

The shrink sweep and the certificate sweep need only the grid minimum.  In 4D
`cone._grid_min` brackets each 4x4 block between closed-form bounds from its 2x2
blocks and eigensolves only the few percent of blocks that can hold the minimum, so
both sweeps return the dense values bit for bit; a 4D element takes about 0.3 s on
the 17^4 grid (1.1 s with dense sweeps; one thread, 2-vCPU x86 VM).
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .clifford import make_representation
from .cone import (
    OBSTRUCTION_BLOCKS_4D,
    CausalElementPair,
    FunctionField,
    _block_generators,
    _grid_min,
    certification_grid,
    ordering_gap,
    witness_element,
)
from .geometry import (
    InvalidCurveError,
    MixedState,
    SpacetimeModel,
    max_weighted_length,
)

__all__ = [
    "SampledElement",
    "OracleVerdict",
    "sample_causal_elements",
    "mc_check",
    "thread_count",
]

log = logging.getLogger(__name__)

SHRINK_FLOOR = 1e-6     # below this the perturbation is numerically dead: discard
SAFETY_FACTOR = 0.9     # headroom so refined grids still certify
NEGATIVE_TOL = 1e-9     # ordering values below this contradict a related decision
MAX_BUMPS = 4           # a draw has 2 to MAX_BUMPS bumps
CERTIFY_BLOCK_POINTS = 8192  # grid points per 4D block batch; bounds certification memory


def thread_count(jobs: int) -> int:
    """Worker count capped by TWOSHEET_THREADS (results never depend on it)."""
    cap = os.cpu_count() or 1
    env = os.environ.get("TWOSHEET_THREADS")
    if env:
        try:
            cap = max(1, int(env))
        except ValueError:
            raise ValueError(f"TWOSHEET_THREADS must be an integer, got {env!r}")
    return max(1, min(cap, jobs))


@dataclass
class SampledElement:
    """A certified random cone element and how it was built."""

    pair: CausalElementPair
    construction: Dict[str, object]
    certified_grid: np.ndarray
    min_eigenvalue: float


# ---------------------------------------------------------------------------
# bump basis


def _bump_basis(pts: np.ndarray, centers, widths, waves,
                phases) -> Tuple[np.ndarray, np.ndarray]:
    """Values (N, nb) and coordinate gradients (N, nb, n) in one pass."""
    d = pts[:, None, :] - centers[None, :, :]
    window = np.exp(-np.sum((d / widths[None, :, :]) ** 2, axis=-1))
    phase = np.einsum("pbk,bk->pb", d, waves) + phases[None, :]
    cosp = np.cos(phase)
    wc = window * cosp
    grads = (-2.0 * d / widths[None, :, :] ** 2) * wc[..., None] \
        - (window * np.sin(phase))[..., None] * waves[None, :, :]
    return wc, grads


def _combination_field(construction: Dict[str, np.ndarray], which: str) -> FunctionField:
    """T + shrink * sum_i amp_i * bump_i as a vectorized scalar field."""
    centers = construction["centers"]
    widths = construction["widths"]
    waves = construction["waves"]
    phases = construction["phases"]
    coef = construction["shrink"] * construction[which]

    def value(pts):
        pts2 = pts.reshape(-1, pts.shape[-1])
        vals, _ = _bump_basis(pts2, centers, widths, waves, phases)
        return (pts2[:, 0] + vals @ coef).reshape(pts.shape[:-1])

    def gradient(pts):
        pts2 = pts.reshape(-1, pts.shape[-1])
        _, grads = _bump_basis(pts2, centers, widths, waves, phases)
        g = np.einsum("pbk,b->pk", grads, coef)
        g[:, 0] += 1.0
        return g.reshape(pts.shape)

    return FunctionField(value, gradient)


# ---------------------------------------------------------------------------
# exact shrink on the affine family M(s) = M_time + s * M_bumps


def _rest_frame(fT: np.ndarray, fa: np.ndarray, fb: np.ndarray, z: np.ndarray):
    """(fa, fb, z) over tau = |fT|, with fa and fb boosted to the rest frame of the
    future timelike fT: the pure boost along u = fT / tau takes fT to (tau, 0, ...)."""
    tau = np.sqrt(fT[:, 0] ** 2 - np.sum(fT[:, 1:] ** 2, axis=-1))[:, None]
    u0, u = fT[:, :1] / tau, fT[:, 1:] / tau

    def boost(f):
        f0, fs = f[:, :1], f[:, 1:]
        uf = np.sum(u * fs, axis=-1, keepdims=True)
        return np.concatenate([u0 * f0 - uf, fs - u * (f0 - uf / (1.0 + u0))], axis=-1) / tau

    return boost(fa), boost(fb), z / tau[:, 0]


class _GridContext:
    """Element-independent data on the certification grid, computed once.

    The obstruction matrix is linear in the frame gradients (fa, fb) and the coupling
    z, so T's blocks (fa = fb = fT, z = 0) plus s times a draw's bump blocks give the
    element's blocks.  The shrink boosts each point to the rest frame of fT, which
    needs fT future timelike on the whole grid.  Each draw maps its gradients with
    `SpacetimeModel.to_frame`: re-evaluating a vielbein table costs a small fraction
    of a draw, and the table is not held for the whole run.  Both sweeps run per
    slice of CERTIFY_BLOCK_POINTS points through `cone._grid_min`, which in 4D
    eigensolves only the blocks whose eigenvalue bracket reaches the slice minimum.
    """

    def __init__(self, model: SpacetimeModel, grid: np.ndarray):
        self.model = model
        self.grid = grid
        self.mass = model.mass_at(grid)
        # frame derivative of the time function T(x) = x^0
        e0 = np.zeros(grid.shape)
        e0[:, 0] = 1.0
        fT = model.to_frame(grid, e0)
        if not np.min(fT[:, 0] - np.linalg.norm(fT[:, 1:], axis=-1)) > 0.0:
            # the exact shrink boosts to the rest frame of dT, so dT must be future
            # timelike (not null, spacelike or NaN)
            raise ValueError("the coordinate time function is not causal for this model; "
                             "oracle sampling needs a causal time slicing")
        self.fT = fT
        self.generators = (None if model.dimension == 2 else _block_generators(
            make_representation(model.dimension), OBSTRUCTION_BLOCKS_4D))

    def perturbation(self, c: Dict[str, np.ndarray]):
        """Frame gradients (fa, fb) and coupling z of a draw's bumps on the grid."""
        V, Gr = _bump_basis(self.grid, c["centers"], c["widths"], c["waves"], c["phases"])
        ga, gb = (np.einsum("pbk,b->pk", Gr, c[key]) for key in ("amp_a", "amp_b"))
        fa, fb = self.model.to_frame(self.grid, np.stack([ga, gb]))
        return fa, fb, self.mass * (V @ c["amp_a"] - V @ c["amp_b"])

    def _grid_min(self, block) -> float:
        """Smallest obstruction eigenvalue of (fa, fb, z) = block(sl) over the grid's
        point slices, each bracketed by `cone._grid_min`; NaN if any is NaN."""
        return float(np.min([
            _grid_min(*block(slice(i, i + CERTIFY_BLOCK_POINTS)), self.generators)[0]
            for i in range(0, len(self.grid), CERTIFY_BLOCK_POINTS)]))

    def largest_shrink(self, pert) -> float:
        """Largest s in [0, 1] keeping every grid block of T + s * bumps PSD."""
        fa, fb, z = pert
        lam = self._grid_min(lambda sl: _rest_frame(self.fT[sl], fa[sl], fb[sl], z[sl]))
        return 1.0 / max(1.0, -lam)

    def min_eigenvalue(self, pert, s: float) -> float:
        """Grid minimum of the smallest obstruction eigenvalue of T + s * bumps."""
        fa, fb, z = pert
        return self._grid_min(
            lambda sl: (self.fT[sl] + s * fa[sl], self.fT[sl] + s * fb[sl], s * z[sl]))


# ---------------------------------------------------------------------------
# element sampling


def _draw_construction(rng: np.random.Generator, model: SpacetimeModel,
                       amplitude: float) -> Dict[str, np.ndarray]:
    n = model.dimension
    lo = model.domain_box[:, 0]
    hi = model.domain_box[:, 1]
    extents = hi - lo
    nb = int(rng.integers(2, MAX_BUMPS + 1))
    return {
        "centers": rng.uniform(lo, hi, size=(nb, n)),
        "widths": rng.uniform(0.1, 0.5, size=(nb, n)) * extents,
        "waves": rng.uniform(-2.0, 2.0, size=(nb, n)) * (2.0 / extents),
        "phases": rng.uniform(0.0, 2.0 * np.pi, size=nb),
        "amp_a": rng.normal(0.0, 1.0, size=nb) * amplitude,
        "amp_b": rng.normal(0.0, 1.0, size=nb) * amplitude,
    }


def _build_element(index: int, seed: int, ctx: _GridContext,
                   amplitude: float) -> Optional[SampledElement]:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    c = _draw_construction(rng, ctx.model, amplitude)
    trivial = not (np.any(c["amp_a"]) or np.any(c["amp_b"]))

    pert = ctx.perturbation(c)
    s_star = ctx.largest_shrink(pert)
    s_final = s_star if trivial else SAFETY_FACTOR * s_star
    if not trivial and s_final < SHRINK_FLOOR:
        log.info("discarding element %d: shrink underflow (s* = %.3e)", index, s_star)
        return None

    final_eig = ctx.min_eigenvalue(pert, s_final)
    # the closed form only proposes s; this certifies it, failing closed on NaN
    if not final_eig >= -NEGATIVE_TOL:
        log.info("discarding element %d: certification failed after shrink "
                 "(min eig %.3e)", index, final_eig)
        return None

    c["shrink"] = float(s_final)
    c["index"] = index
    pair = CausalElementPair(a=_combination_field(c, "amp_a"),
                             b=_combination_field(c, "amp_b"),
                             description=f"sampled[{index}]")
    return SampledElement(pair=pair, construction=c,
                          certified_grid=ctx.grid, min_eigenvalue=final_eig)


def sample_causal_elements(model: SpacetimeModel, count: int, seed: int, *,
                           grid: Optional[np.ndarray] = None,
                           amplitude: float = 1.0) -> List[SampledElement]:
    """Draw `count` random certified cone elements, deterministically per seed.

    Each element is T + s * bumps on both sheets.  The obstruction matrix is affine
    in s, so the largest s in [0, 1] keeping it PSD on the certification grid is
    solved exactly per point: boosted to the rest frame of dT, T's blocks are a
    multiple of the identity and the bound is one smallest eigenvalue of the boosted
    bumps.  The element keeps SAFETY_FACTOR times it, and an eigenvalue sweep of the
    final element on the grid certifies it.  The shrink only ever reduces
    amplitudes, never grows them.  Elements whose shrink underflows are discarded
    with a log entry; more than 50% discards aborts.  The rest frame needs dT future
    timelike at every grid point, and `amplitude` must be finite (ValueError
    otherwise).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not np.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude}")
    if model.mass_kind == "diagonal":
        raise ValueError("diagonal models have a decoupled cone; sample per sheet instead")
    pts = certification_grid(model) if grid is None else np.asarray(grid, dtype=float)
    ctx = _GridContext(model, pts)

    workers = thread_count(count)
    if workers == 1:
        results = [_build_element(i, seed, ctx, amplitude) for i in range(count)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda i: _build_element(i, seed, ctx, amplitude),
                                    range(count)))

    kept = [r for r in results if r is not None]
    if len(kept) < (count + 1) // 2:
        raise RuntimeError(f"{count - len(kept)} of {count} sampled elements failed "
                           "certification; the model resists random cone sampling")
    return kept


# ---------------------------------------------------------------------------
# consistency verdicts


@dataclass
class OracleVerdict:
    """Outcome of checking a decision against sampled elements.

    kinds: 'consistent' (no element objects), 'contradiction' (a certified element
    decreases along a supposedly related pair), 'witness_separates' (not-related,
    and the witness built along the decision's maximizing curve separates the
    states; it is checked on no grid, so this does not prove them unrelated),
    'witness_unavailable' (not-related but the separating construction does not
    apply: base failure, equal internal coordinates, or a null-boundary pair with
    no timelike curve to build along).
    """

    kind: str
    min_value: float
    min_element: Optional[int] = None
    witness_margin: Optional[float] = None
    checked: int = 0
    note: str = ""

    @property
    def consistent(self) -> bool:
        return self.kind != "contradiction"


def _packed_bumps(elements: Sequence[SampledElement], dimension: int):
    """Bump parameters of every element, padded to MAX_BUMPS slots.

    A padded slot has zero amplitude and unit width, so it adds exact zeros.
    """
    cons = [el.construction for el in elements]
    counts = np.array([len(c["phases"]) for c in cons], dtype=int)
    # (element, slot) of every real bump, in construction order
    rows = np.repeat(np.arange(len(cons)), counts)
    slots = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)

    def scatter(key, fill, shape=()):
        out = np.full((len(cons), MAX_BUMPS) + shape, fill)
        out[rows, slots] = np.concatenate([c[key] for c in cons])
        return out

    shrink = np.repeat([c["shrink"] for c in cons], counts)
    coef = np.zeros((2, len(cons), MAX_BUMPS))
    for side, which in enumerate(("amp_a", "amp_b")):
        coef[side, rows, slots] = shrink * np.concatenate([c[which] for c in cons])
    return (scatter("centers", 0.0, (dimension,)), scatter("widths", 1.0, (dimension,)),
            scatter("waves", 0.0, (dimension,)), scatter("phases", 0.0), coef)


def _element_values(elements: Sequence[SampledElement], s1: MixedState,
                    s2: MixedState) -> np.ndarray:
    """Ordering functional of every element in one contraction, grouped sheet-wise
    so that identical states give exact zeros."""
    pq = np.stack([np.asarray(s1.point, dtype=float), np.asarray(s2.point, dtype=float)])
    xi, phi = float(s1.xi), float(s2.xi)
    if not elements:
        return np.empty(0)
    centers, widths, waves, phases, coef = _packed_bumps(elements, pq.shape[1])
    d = pq[None, :, None, :] - centers[:, None, :, :]             # (K, 2, bumps, n)
    window = np.exp(-np.sum((d / widths[:, None]) ** 2, axis=-1))
    wc = window * np.cos(np.einsum("kpbn,kbn->kpb", d, waves) + phases[:, None, :])
    av, bv = (pq[:, 0] + np.einsum("kpb,kb->kp", wc, c) for c in coef)
    return (phi * av[:, 1] - xi * av[:, 0]) + ((1.0 - phi) * bv[:, 1] - (1.0 - xi) * bv[:, 0])


def mc_check(state1, state2, elements: Sequence[SampledElement],
             decision, *, model: Optional[SpacetimeModel] = None) -> OracleVerdict:
    """Evaluate the ordering functional of every element between the two states.

    A related decision contradicted by any value below -1e-9 is a Contradiction.
    For not-related decisions with the base relation holding and distinct internal
    coordinates, the explicit witness is constructed along the maximizing curve and
    its separating margin reported (model required for that leg).
    """
    s1 = state1 if isinstance(state1, MixedState) else MixedState(*state1)
    s2 = state2 if isinstance(state2, MixedState) else MixedState(*state2)
    values = _element_values(elements, s1, s2)
    k_min = int(np.argmin(values)) if len(values) else None
    v_min = float(values[k_min]) if len(values) else 0.0

    if decision.related:
        if v_min < -NEGATIVE_TOL:
            return OracleVerdict(kind="contradiction", min_value=v_min, min_element=k_min,
                                 checked=len(values),
                                 note=f"element {k_min} decreases along a related pair")
        return OracleVerdict(kind="consistent", min_value=v_min, min_element=k_min,
                             checked=len(values))

    if not decision.base_related or s1.xi == s2.xi or model is None:
        note = "" if model is not None else "no model supplied for witness construction"
        return OracleVerdict(kind="witness_unavailable", min_value=v_min,
                             min_element=k_min, checked=len(values), note=note)

    try:
        _, curve = max_weighted_length(s1.point, s2.point, model, return_curve=True)
        pair = witness_element(curve, s1.xi, s2.xi, model)
    except (InvalidCurveError, ValueError) as exc:
        return OracleVerdict(kind="witness_unavailable", min_value=v_min,
                             min_element=k_min, checked=len(values), note=str(exc))
    margin = -ordering_gap(pair, s1, s2)
    return OracleVerdict(kind="witness_separates", min_value=v_min, min_element=k_min,
                         witness_margin=float(margin), checked=len(values))
