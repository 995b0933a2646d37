"""Finite-dimensional spin representations: gamma matrices, chirality, and frame operators.

Everything downstream (cone certification, spinor systems, witness matrices) consumes
the fixed 2D chiral / 4D Weyl representations built here.  Matrices are small dense
complex arrays with exact 0, ±1, ±i entries, so identity residuals are checked at
1e-14, which is effectively "exact up to a couple of ulps".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

__all__ = [
    "SpinRepresentation",
    "FrameOperators",
    "RepresentationReport",
    "make_representation",
    "verify_representation",
]

# Global sign in the product formula chirality = sign * i^(n/2+1) * g0 g1 ... g_{n-1}.
# Exactly one sign makes the stored 4D iV = -g1 g2 g3; we pin that one and expose it
# on the representation so matrix dumps are reproducible.
CHIRALITY_SIGN = -1

IDENTITY_TOL = 1e-14


def _eta(dimension: int) -> np.ndarray:
    """Flat metric diag(-1, +1, ..., +1)."""
    eta = np.eye(dimension)
    eta[0, 0] = -1.0
    return eta


@dataclass(frozen=True)
class FrameOperators:
    """The Hermitian operators V^a = -g0 g^a plus the chirality companion V = -g0 * chirality.

    V0 is the identity; expectation values psi* V^a psi of a unit-free spinor
    reproduce flat tangent components.  iV = i*V shows up as the constant
    off-diagonal factor of the obstruction matrix.
    """

    vs: Tuple[np.ndarray, ...]
    V: np.ndarray
    iV: np.ndarray


@dataclass(frozen=True)
class SpinRepresentation:
    """Immutable bundle of the matrices entering -J[D, a].

    Fields
    ------
    dimension : 2 or 4.
    gammas : flat gamma matrices g^0 ... g^{n-1}, each of size 2^(n/2).
    chirality : the grading operator (g0*g1 in 2D, i*g0*g1*g2*g3 in 4D).
    fundamental_symmetry : i*g0; squares to the identity and is Hermitian.
    v_ops : FrameOperators (V^a, V, iV).
    chirality_sign : the global sign pinned in the product formula.
    """

    dimension: int
    gammas: Tuple[np.ndarray, ...]
    chirality: np.ndarray
    fundamental_symmetry: np.ndarray
    v_ops: FrameOperators
    chirality_sign: int = CHIRALITY_SIGN

    @property
    def spinor_size(self) -> int:
        return 2 ** (self.dimension // 2)


def make_representation(dimension: int) -> SpinRepresentation:
    """Build the fixed chiral (2D) or Weyl (4D) representation.

    Raises
    ------
    ValueError : for any dimension other than 2 or 4.
    """
    if dimension == 2:
        g0 = np.array([[0, 1j], [1j, 0]])
        g1 = np.array([[0, -1j], [1j, 0]])
        gammas = (g0, g1)
    elif dimension == 4:
        o = np.zeros((2, 2))
        i2 = np.eye(2)
        s1 = np.array([[0, 1], [1, 0]])
        s2 = np.array([[0, -1j], [1j, 0]])
        s3 = np.array([[1, 0], [0, -1]])
        g0 = 1j * np.block([[o, i2], [i2, o]])
        # spatial gammas: off-diagonal blocks +/- i * sigma_k with the lower-left
        # block carrying the minus sign
        spatial = []
        for sk in (s1, s2, s3):
            spatial.append(np.block([[o, 1j * sk], [-1j * sk, o]]))
        gammas = (g0, *spatial)
    else:
        raise ValueError(f"unsupported dimension {dimension!r}: expected 2 or 4")

    n = dimension
    prod = np.eye(2 ** (n // 2), dtype=complex)
    for g in gammas:
        prod = prod @ g
    # entries are exact 0, +/-1, +/-i, so these products are exact in floating point
    # (integer powers of i via lookup: complex ** is inexact)
    i_pow = (1, 1j, -1, -1j)[(n // 2 + 1) % 4]
    chirality = CHIRALITY_SIGN * i_pow * prod

    fundamental_symmetry = 1j * gammas[0]

    vs = tuple(-gammas[0] @ g for g in gammas)
    V = -gammas[0] @ chirality
    v_ops = FrameOperators(vs=vs, V=V, iV=1j * V)

    return SpinRepresentation(
        dimension=dimension,
        gammas=tuple(np.ascontiguousarray(g.astype(complex)) for g in gammas),
        chirality=chirality,
        fundamental_symmetry=fundamental_symmetry,
        v_ops=v_ops,
    )


def _max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if m.size else 0.0


@dataclass
class RepresentationReport:
    """Named identity checks with max residuals; passed iff every residual <= tol."""

    checks: Dict[str, float] = field(default_factory=dict)
    tol: float = IDENTITY_TOL

    @property
    def max_residual(self) -> float:
        return max(self.checks.values()) if self.checks else 0.0

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol

    def failing(self) -> Dict[str, float]:
        return {k: v for k, v in self.checks.items() if v > self.tol}


def verify_representation(rep: SpinRepresentation) -> RepresentationReport:
    """Check every representation invariant and report named residuals."""
    n = rep.dimension
    size = rep.spinor_size
    eye = np.eye(size)
    eta = _eta(n)
    report = RepresentationReport()

    worst = 0.0
    for a in range(n):
        for b in range(n):
            anti = rep.gammas[a] @ rep.gammas[b] + rep.gammas[b] @ rep.gammas[a]
            worst = max(worst, _max_abs(anti - 2 * eta[a, b] * eye))
    report.checks["gamma_anticommutation"] = worst

    report.checks["gamma0_antihermitian"] = _max_abs(rep.gammas[0] + rep.gammas[0].conj().T)
    report.checks["gamma_spatial_hermitian"] = max(
        _max_abs(g - g.conj().T) for g in rep.gammas[1:]
    )

    gm = rep.chirality
    report.checks["chirality_hermitian"] = _max_abs(gm - gm.conj().T)
    report.checks["chirality_squares_to_identity"] = _max_abs(gm @ gm - eye)
    report.checks["chirality_anticommutes_gammas"] = max(
        _max_abs(gm @ g + g @ gm) for g in rep.gammas
    )
    prod = np.eye(size, dtype=complex)
    for g in rep.gammas:
        prod = prod @ g
    i_pow = (1, 1j, -1, -1j)[(n // 2 + 1) % 4]
    report.checks["chirality_product_form"] = _max_abs(gm - rep.chirality_sign * i_pow * prod)

    J = rep.fundamental_symmetry
    report.checks["symmetry_squares_to_identity"] = _max_abs(J @ J - eye)
    report.checks["symmetry_hermitian"] = _max_abs(J - J.conj().T)
    # finite-dimensional shadow of D* = -J D J at the symbol level
    report.checks["symmetry_compatibility"] = max(
        _max_abs(J @ (-1j * g) @ J - (-1j * g).conj().T) for g in rep.gammas
    )

    vs, V = rep.v_ops.vs, rep.v_ops.V
    report.checks["v0_is_identity"] = _max_abs(vs[0] - eye)
    report.checks["v_ops_hermitian"] = max(_max_abs(v - v.conj().T) for v in vs)
    report.checks["v_companion_hermitian"] = _max_abs(V - V.conj().T)
    report.checks["v_companion_squares_to_identity"] = _max_abs(V @ V - eye)
    report.checks["v_companion_commutes_v0"] = _max_abs(V @ vs[0] - vs[0] @ V)
    report.checks["v_companion_anticommutes_spatial"] = max(
        _max_abs(V @ v + v @ V) for v in vs[1:]
    )
    report.checks["iv_consistent"] = _max_abs(rep.v_ops.iV - 1j * V)

    return report
