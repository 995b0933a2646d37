"""Monte-Carlo oracle: random certified cone elements vs the decision procedure.

The decision procedure says two states are related; the definition says every cone
element must then be non-decreasing between them.  This module samples random cone
elements (a global time function T plus Gaussian-windowed cosine bumps, scaled by the
largest shrink that keeps the obstruction matrix PSD on a grid) and evaluates the
defining inequality directly, hunting for contradictions the main code path cannot see.

Sampling certifies on the model's certification grid, `resolutions.certification`
points per axis.  That grid is a tensor product, so `_separable_draw` assembles a
draw from per-axis factors: each bump's window and phase factor split per axis.
`_bump_basis` evaluates the bumps at scattered points (element fields, `mc_check`).
The kept elements form one `ElementBank`: padded arrays, packed once, that `mc_check`
contracts for all elements at once.

The shrink is exact per grid point.  A local Lorentz boost L acts on the obstruction
matrix by a spin congruence, diag(S, S)^H M(fa, fb, z) diag(S, S) = M(L fa, L fb, z),
which keeps PSD-ness.  In the rest frame of dT, T's blocks are tau * I, so
T + s * bumps is PSD iff 1 + s * lambda >= 0 for every eigenvalue lambda of the
boosted bumps over tau: one smallest-eigenvalue sweep gives the largest s.  The boost
exists only where dT is future timelike, which sampling requires on the whole grid.
Each sweep is one `cone._grid_min` call over the whole grid: in 4D a closed-form
eigenvalue bracket at every point leaves only the few points that can hold the grid
minimum to `eigvalsh`.
"""

from __future__ import annotations

import logging
import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from .cone import (
    CausalElementPair,
    FunctionField,
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
    "ElementBank",
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
BUMP_KEYS = ("centers", "widths", "waves", "phases")


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
    """A certified random cone element and how it was built: a view of one row of
    an `ElementBank`, holding copies of the row's arrays and the bank's grid."""

    pair: CausalElementPair
    construction: Dict[str, object]
    certified_grid: np.ndarray
    min_eigenvalue: float


# ---------------------------------------------------------------------------
# bump basis and the element bank


def _bump_basis(pts: np.ndarray, centers, widths, waves, phases, gradient: bool = False):
    """Gaussian-windowed cosines exp(-|(x - c) / w|^2) cos(k . (x - c) + phase).

    Bumps (..., B, n) at points (P, n) give values (..., P, B) and, with
    `gradient`, also coordinate gradients (..., P, B, n).  Leading axes of the bump
    arrays, such as a bank's element axis, broadcast.
    """
    d = pts[:, None, :] - centers[..., None, :, :]
    window = np.exp(-np.sum((d / widths[..., None, :, :]) ** 2, axis=-1))
    phase = np.einsum("...pbk,...bk->...pb", d, waves) + phases[..., None, :]
    wc = window * np.cos(phase)
    if not gradient:
        return wc
    grads = (-2.0 * d / widths[..., None, :, :] ** 2) * wc[..., None] \
        - (window * np.sin(phase))[..., None] * waves[..., None, :, :]
    return wc, grads


def _separable_draw(axes: List[np.ndarray], c: Dict[str, np.ndarray]):
    """Sheet values (2, P) and coordinate gradients (2, P, n) of a draw's bumps on the
    tensor grid of `axes`, from per-axis factors instead of a point-by-bump basis.

    On axis k bump b has g = exp(-(d / w)^2 + i kappa d) and h = dg/dx_k, d = x_k - c.
    Sheet s's value is Re sum_b amp_sb e^{i phase_b} prod_k g_bk, and swapping h_bj
    in for g_bj gives its d/dx_j: output q = 0 is the value, q = 1 + j the d/dx_j.
    """
    n, nb = len(axes), len(c["phases"])
    # (sheet, output, bump, mesh so far), the phase folded into the coefficients
    acc = (np.stack([c["amp_a"], c["amp_b"]]) * np.exp(1j * c["phases"]))[:, None, :, None]
    for k, x in enumerate(axes):
        d = x - c["centers"][:, k, None]
        w, kappa = c["widths"][:, k, None], c["waves"][:, k, None]
        f = np.stack([np.exp(-(d / w) ** 2 + 1j * kappa * d)] * (n + 1))  # (output, bump, x)
        f[k + 1] *= -2.0 * d / w ** 2 + 1j * kappa
        if k < n - 1:
            acc = (acc[..., None] * f[:, :, None, :]).reshape(2, n + 1, nb, -1)
    # last axis: Re sum_b acc f as one real product, re/im stacked on the bump axis
    out = np.swapaxes(np.concatenate([acc.real, -acc.imag], axis=2), 2, 3) \
        @ np.concatenate([f.real, f.imag], axis=1)
    out = out.reshape(2, n + 1, -1)
    return out[:, 0], np.moveaxis(out[:, 1:], 1, -1).copy()


def _bump_field(bumps: Tuple[np.ndarray, ...], coef: np.ndarray) -> FunctionField:
    """x^0 + sum_i coef_i * bump_i: one sheet of a sampled element."""

    def value(pts):
        flat = pts.reshape(-1, pts.shape[-1])
        return (flat[:, 0] + _bump_basis(flat, *bumps) @ coef).reshape(pts.shape[:-1])

    def gradient(pts):
        _, grads = _bump_basis(pts.reshape(-1, pts.shape[-1]), *bumps, gradient=True)
        g = np.einsum("pbk,b->pk", grads, coef)
        g[:, 0] += 1.0
        return g.reshape(pts.shape)

    return FunctionField(value, gradient)


@dataclass(frozen=True, eq=False)
class ElementBank(Sequence):
    """Certified sampled elements as one struct of arrays on one certification grid.

    Row k is element k.  centers, widths, waves (K, MAX_BUMPS, n) and phases
    (K, MAX_BUMPS) hold its bumps padded to MAX_BUMPS slots; a padded slot has zero
    amplitude and unit width, so it adds exact zeros.  amps and coef = shrink * amps
    are (2, K, MAX_BUMPS), sheet a then sheet b.  The bank is a read-only sequence:
    `bank[k]` is a `SampledElement` view of row k, `bank[a:b]` a bank of those rows.
    """

    centers: np.ndarray
    widths: np.ndarray
    waves: np.ndarray
    phases: np.ndarray
    amps: np.ndarray
    coef: np.ndarray
    counts: np.ndarray          # real bumps per row
    shrink: np.ndarray
    indices: np.ndarray         # draw index per row
    min_eigenvalue: np.ndarray
    grid: np.ndarray

    @classmethod
    def pack(cls, kept: List[Tuple[Dict[str, np.ndarray], float]], grid) -> "ElementBank":
        """Bank of the (construction, min_eigenvalue) draws that sampling kept."""
        cons = [c for c, _ in kept]
        counts = np.array([len(c["phases"]) for c in cons])
        real = np.arange(MAX_BUMPS) < counts[:, None]  # real slots, in construction order

        def padded(key, fill=0.0):
            out = np.full(real.shape + cons[0][key].shape[1:], fill)
            out[real] = np.concatenate([c[key] for c in cons])
            return out

        shrink = np.array([c["shrink"] for c in cons])
        amps = np.stack([padded("amp_a"), padded("amp_b")])
        return cls(centers=padded("centers"), widths=padded("widths", 1.0),
                   waves=padded("waves"), phases=padded("phases"), amps=amps,
                   coef=shrink[:, None] * amps, counts=counts, shrink=shrink,
                   indices=np.array([c["index"] for c in cons]),
                   min_eigenvalue=np.array([e for _, e in kept]), grid=grid)

    def __len__(self) -> int:
        return len(self.shrink)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return replace(self, centers=self.centers[k], widths=self.widths[k],
                           waves=self.waves[k], phases=self.phases[k], amps=self.amps[:, k],
                           coef=self.coef[:, k], counts=self.counts[k], shrink=self.shrink[k],
                           indices=self.indices[k], min_eigenvalue=self.min_eigenvalue[k])
        k = range(len(self))[k]
        nb, index = self.counts[k], int(self.indices[k])
        # copies: a kept pair holds its own row, not the bank
        bumps = tuple(np.array(getattr(self, key)[k, :nb]) for key in BUMP_KEYS)
        amp_a, amp_b = np.array(self.amps[:, k, :nb])
        coef_a, coef_b = np.array(self.coef[:, k, :nb])
        construction = dict(zip(BUMP_KEYS, bumps), amp_a=amp_a, amp_b=amp_b,
                            shrink=float(self.shrink[k]), index=index)
        pair = CausalElementPair(a=_bump_field(bumps, coef_a), b=_bump_field(bumps, coef_b),
                                 description=f"sampled[{index}]")
        return SampledElement(pair, construction, self.grid, float(self.min_eigenvalue[k]))


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
    """Element-independent data on the model's certification grid, computed once.

    `grid` is `certification_grid(model)`, the `indexing="ij"` mesh of the per-axis
    coordinates `axes`, from which `_separable_draw` builds each draw's bumps.  The
    obstruction matrix is linear in the frame gradients (fa, fb) and the coupling z,
    so T's blocks (fa = fb = fT, z = 0) plus s times a draw's bump blocks give the
    element's blocks.  Each draw maps its gradients with `SpacetimeModel.to_frame`,
    which re-evaluates a vielbein table rather than hold it (10.7 MB on 17^4 points).
    Both sweeps are one `cone._grid_min` call on the whole grid, which in 4D bounds
    every point in closed form and eigensolves only the points whose bracket reaches
    the grid minimum.  One thread, 2-vCPU x86 VM: a flat2d element takes about 1.7 ms
    on the 101^2 grid, and a flat4d or vielbein4d element 0.04-0.08 s on the 17^4
    grid, of which `to_frame` takes 16-17 of 57-62 ms on vielbein4d.
    """

    @np.errstate(all="ignore")  # a non-finite frame fails the time-slicing check
    def __init__(self, model: SpacetimeModel):
        self.model = model
        per_axis = int(model.resolutions["certification"])
        self.axes = [np.linspace(lo, hi, per_axis) for lo, hi in model.domain_box]
        self.grid = grid = certification_grid(model)
        self.mass = model.mass_at(grid)
        fT = model.time_frame(grid)
        if not np.min(fT[:, 0] - np.linalg.norm(fT[:, 1:], axis=-1)) > 0.0:
            # the exact shrink boosts to the rest frame of dT, so dT must be future
            # timelike (not null, spacelike or NaN)
            raise ValueError("the coordinate time function is not causal for this model; "
                             "oracle sampling needs a causal time slicing")
        self.fT = fT

    @np.errstate(all="ignore")  # a non-finite frame fails the certificate
    def perturbation(self, c: Dict[str, np.ndarray]):
        """Frame gradients (fa, fb) and coupling z of a draw's bumps on the grid."""
        (va, vb), grads = _separable_draw(self.axes, c)
        fa, fb = self.model.to_frame(self.grid, grads)
        if not np.all(np.isfinite(fa)) and np.all(np.isfinite(grads)):
            # __init__ reads only the frame's time column; the rest is first read here
            raise ValueError("the model's frame is not finite on the sampling grid")
        return fa, fb, self.mass * (va - vb)

    def largest_shrink(self, pert) -> float:
        """Largest s in [0, 1] keeping every grid block of T + s * bumps PSD."""
        lam = _grid_min(*_rest_frame(self.fT, *pert))[0]
        return 1.0 / max(1.0, -lam)

    def min_eigenvalue(self, pert, s: float) -> float:
        """Grid minimum of the smallest obstruction eigenvalue of T + s * bumps."""
        fa, fb, z = pert
        return _grid_min(self.fT + s * fa, self.fT + s * fb, s * z)[0]


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
                   amplitude: float) -> Optional[Tuple[Dict[str, np.ndarray], float]]:
    """(construction, certified min eigenvalue) of draw `index`, or None if discarded."""
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
    return c, final_eig


def sample_causal_elements(model: SpacetimeModel, count: int, seed: int, *,
                           amplitude: float = 1.0) -> ElementBank:
    """Draw `count` random certified cone elements, deterministically per seed.

    Each element is T + s * bumps on both sheets, with s in (0, 1] SAFETY_FACTOR
    times the exact largest shrink (module docstring), certified by an eigenvalue
    sweep of the final element on `certification_grid(model)`, whose size per axis
    is the model's `resolutions.certification`.  Elements whose shrink underflows are
    discarded with a log entry; more than 50% discards aborts.  dT must be future
    timelike at every grid point and `amplitude` finite (ValueError otherwise).
    Returns the kept elements as one `ElementBank` on the one grid.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not np.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude}")
    if model.mass_kind == "diagonal":
        raise ValueError("diagonal models have a decoupled cone; sample per sheet instead")
    ctx = _GridContext(model)

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
    return ElementBank.pack(kept, ctx.grid)


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


def _element_values(elements: ElementBank, s1: MixedState, s2: MixedState) -> np.ndarray:
    """Ordering functional of every element in one contraction, grouped sheet-wise
    so that identical states give exact zeros."""
    pq = np.stack([np.asarray(s1.point, dtype=float), np.asarray(s2.point, dtype=float)])
    xi, phi = float(s1.xi), float(s2.xi)
    wc = _bump_basis(pq, *(getattr(elements, key) for key in BUMP_KEYS))  # (K, 2, bumps)
    av, bv = (pq[:, 0] + np.einsum("kpb,kb->kp", wc, c) for c in elements.coef)
    return (phi * av[:, 1] - xi * av[:, 0]) + ((1.0 - phi) * bv[:, 1] - (1.0 - xi) * bv[:, 0])


def mc_check(state1, state2, elements: ElementBank,
             decision, *, model: Optional[SpacetimeModel] = None) -> OracleVerdict:
    """Evaluate the ordering functional of every element of the bank between the two
    states, in one contraction of its padded rows.

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
    verdict = partial(OracleVerdict, min_value=v_min, min_element=k_min, checked=len(values))

    if decision.related:
        if v_min < -NEGATIVE_TOL:
            return verdict("contradiction",
                           note=f"element {k_min} decreases along a related pair")
        return verdict("consistent")

    if not decision.base_related or s1.xi == s2.xi or model is None:
        return verdict("witness_unavailable", note="" if model is not None
                       else "no model supplied for witness construction")

    try:
        _, curve = max_weighted_length(s1.point, s2.point, model, return_curve=True)
        pair = witness_element(curve, s1.xi, s2.xi, model)
    except (InvalidCurveError, ValueError) as exc:
        return verdict("witness_unavailable", note=str(exc))
    return verdict("witness_separates", witness_margin=-ordering_gap(pair, s1, s2))
