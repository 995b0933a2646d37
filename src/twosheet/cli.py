"""Command-line front end: batch decisions, cone surfaces, witnesses, oracle runs.

Exit codes: 0 success, 1 precondition/input error, 2 internal contradiction
(an oracle element disagreeing with a decision, a failed self-test, or a failed
closed-form-vs-decide confirmation).  All numeric output uses 12 significant
digits and identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import modelfile
from .causality import decide, future_cone
from .clifford import make_representation, verify_representation
from .cone import (PSD_TOL, charpoly_certificate, obstruction_matrices,
                   solve_spinor_system, witness_certificate_2d,
                   witness_certificate_4d, witness_element, witness_matrix_at,
                   witness_tube_grid)
from .expressions import ExpressionError
from .geometry import (CausalCurve, DomainError, InvalidCurveError, MixedState,
                       NotRelatedError, SpacetimeModel, max_weighted_length)
from .oracle import mc_check, sample_causal_elements

__all__ = ["main"]

_SELFTEST_SEED = 20260814


# ---------------------------------------------------------------------------
# formatting


def _fmt(x: float) -> str:
    """12-significant-digit fixed format; the single source of numeric text."""
    x = float(x)
    if np.isnan(x):
        return "nan"
    if np.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x + 0.0:.12g}"


def _json_token(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if np.isfinite(f):
            return _fmt(f)
        return json.dumps(_fmt(f))  # inf/nan as quoted strings: valid JSON
    if isinstance(v, str):
        return json.dumps(v)
    if v is None:
        return "null"
    raise TypeError(f"unsupported JSON value {v!r}")


def _emit(text: str, out: Optional[str]):
    if out is None:
        sys.stdout.write(text)
    else:
        tmp = f"{out}.tmp{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out)


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this front end reserves 2 for contradictions."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _point(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",")], dtype=float)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")


def _grid_shape(text: str) -> List[int]:
    try:
        counts = [int(tok) for tok in text.lower().split("x")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected e.g. 201x201, got {text!r}")
    if any(c < 2 for c in counts):
        raise argparse.ArgumentTypeError("grid needs at least 2 samples per axis")
    return counts


def _build_parser() -> _Parser:
    parser = _Parser(prog="twosheet",
                     description="Causal structure of two-sheeted space-times.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def model_cmd(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--model", required=True, help="model file (JSON)")
        p.add_argument("--dump-model", action="store_true",
                       help="echo the parsed model as canonical JSON and exit")
        p.add_argument("--out", default=None, help="write output to a file (atomic)")
        return p

    p = model_cmd("decide", "causal-relation decision between two mixed states (JSON)")
    p.add_argument("--p", required=True, type=_point, help="first point, comma-separated")
    p.add_argument("--xi", required=True, type=float, help="internal coordinate at p")
    p.add_argument("--q", required=True, type=_point, help="second point")
    p.add_argument("--phi", required=True, type=float, help="internal coordinate at q")
    p.add_argument("--method", default="auto", choices=["auto", "closed", "dp"])
    p.add_argument("--band", default=None, type=float,
                   help="override the marginal-uncertainty band")

    p = model_cmd("distance", "maximal weighted proper time between two points")
    p.add_argument("--p", required=True, type=_point)
    p.add_argument("--q", required=True, type=_point)
    p.add_argument("--method", default="auto", choices=["auto", "closed", "dp"])
    p.add_argument("--time-steps", default=None, type=int, dest="time_steps")

    p = model_cmd("cone", "largest reachable internal coordinate over a target grid (CSV)")
    p.add_argument("--p", required=True, type=_point)
    p.add_argument("--xi", required=True, type=float)
    p.add_argument("--grid", default=None, type=_grid_shape,
                   help="targets per axis, e.g. 201x201 (default: model resolutions)")
    p.add_argument("--method", default="auto", choices=["auto", "closed", "dp"])
    p.add_argument("--time-steps", default=None, type=int, dest="time_steps")

    p = model_cmd("witness", "separating cot/tan element along a curve (report + CSV)")
    p.add_argument("--curve", required=True, help="curve CSV with header t,x0,...")
    p.add_argument("--xi", required=True, type=float)
    p.add_argument("--phi", required=True, type=float)
    p.add_argument("--radius", default=0.1, type=float,
                   help="spatial tube radius for the certification grid")
    p.add_argument("--per-sample", default=5, type=int, dest="per_sample")
    p.add_argument("--report", default=None,
                   help="write the JSON report here (default: stdout)")

    p = model_cmd("oracle", "sampled-element consistency sweep against decide (JSON)")
    p.add_argument("--pairs", required=True, type=int, help="random state pairs to check")
    p.add_argument("--elements", required=True, type=int, help="cone elements to sample")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--amplitude", default=1.0, type=float)
    p.add_argument("--artifacts", default=None,
                   help="write contradicting pairs here as CSV")

    p = sub.add_parser("selftest", help="representation, certificate, and spinor suites")
    p.add_argument("--draws", default=200, type=int)
    p.add_argument("--seed", default=_SELFTEST_SEED, type=int)

    return parser


# ---------------------------------------------------------------------------
# subcommands


def _cmd_decide(args, model: SpacetimeModel) -> int:
    band = args.band
    if band is None:
        band = modelfile.model_tolerances(model).get("decision_band")
    d = decide((args.p, args.xi), (args.q, args.phi), model, method=args.method, tol=band)
    doc = {k: getattr(d, k) for k in ("related", "base_related", "marginal", "method",
                                      "required", "achieved", "slack", "band")}
    _emit(modelfile._json_layout(doc, _json_token) + "\n", args.out)
    return 0


def _cmd_distance(args, model: SpacetimeModel) -> int:
    value = max_weighted_length(args.p, args.q, model, method=args.method,
                                time_steps=args.time_steps)
    _emit(_fmt(value) + "\n", args.out)
    return 0


_AXIS_NAMES = {2: ["t", "x"], 4: ["t", "x", "y", "z"]}


def _cmd_cone(args, model: SpacetimeModel) -> int:
    grid = None
    if args.grid is not None:
        if len(args.grid) != model.dimension:
            raise ValueError(f"--grid needs {model.dimension} axis counts")
        grid = tuple(np.linspace(lo, hi, c)
                     for (lo, hi), c in zip(model.domain_box, args.grid))
    surface = future_cone((args.p, args.xi), model, grid,
                          method=args.method, time_steps=args.time_steps)
    header = ",".join(_AXIS_NAMES[model.dimension] + ["phi_max", "reachable"])
    rows = [header]
    for pt, phi, ok in zip(surface.points, surface.phi_max, surface.reachable):
        coords = ",".join(_fmt(c) for c in pt)
        rows.append(f"{coords},{_fmt(phi)},{1 if ok else 0}")
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def _read_curve(path: str, dimension: int) -> CausalCurve:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        expected = ",".join(["t"] + [f"x{i}" for i in range(dimension)])
        if header.replace(" ", "") != expected:
            raise InvalidCurveError(
                f"curve file {path!r} header is {header!r}; expected {expected!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != dimension + 1:
        raise InvalidCurveError(
            f"curve file {path!r} has {data.shape[1]} columns; expected {dimension + 1}")
    return CausalCurve.from_samples(data[:, 0], data[:, 1:])


def _cmd_witness(args, model: SpacetimeModel) -> int:
    curve = _read_curve(args.curve, model.dimension)
    wp = witness_element(curve, args.xi, args.phi, model)
    rep = make_representation(model.dimension)

    tube = witness_tube_grid(curve, args.radius, args.per_sample)
    tube = np.unique(np.clip(tube, *model.domain_box.T), axis=0)
    mats = obstruction_matrices(wp, tube, model, rep)
    eigs = np.linalg.eigvalsh(mats)
    worst = int(np.argmin(eigs[:, 0]))
    min_eig = float(eigs[worst, 0])
    cert = charpoly_certificate(mats[worst])
    separation = wp.separation()

    report = {
        "xi": wp.xi,
        "phi": wp.phi,
        "sigma": wp.sigma,
        "gap": wp.gap,
        "weighted_length": float(wp.lengths[-1]),
        "epsilon": wp.epsilon,
        "separation": separation,
        "curve_samples": int(curve.ts.shape[0]),
        "tube_points": int(tube.shape[0]),
        "tube_min_eigenvalue": min_eig,
        "worst_point": [float(c) for c in tube[worst]],
        "worst_certificate": {
            "coefficients": [float(c) for c in cert.coefficients],
            "passed": cert.passed,
            "scale": cert.scale,
        },
        "certified": bool(min_eig >= -PSD_TOL and separation <= 0.0),
    }

    rows = [",".join(["t", *(f"x{i}" for i in range(model.dimension)), "a", "b", "theta"])]
    rows += [",".join(_fmt(c) for c in (t, *pt, a, b, th)) for t, pt, a, b, th
             in zip(curve.ts, curve.points, wp.a_samples, wp.b_samples, wp.theta)]
    _emit("\n".join(rows) + "\n", args.out)
    _emit(modelfile._json_layout(report, _json_token) + "\n", args.report)
    return 0 if report["certified"] else 2


def _cmd_oracle(args, model: SpacetimeModel) -> int:
    if args.pairs < 1:
        raise ValueError("--pairs must be >= 1")
    elements = sample_causal_elements(model, args.elements, args.seed,
                                      amplitude=args.amplitude)
    rng = np.random.default_rng((args.seed, 0xA11CE))
    box = model.domain_box
    kinds: Dict[str, int] = {"consistent": 0, "contradiction": 0,
                             "witness_separates": 0, "witness_unavailable": 0}
    related_count = 0
    min_value = np.inf
    min_margin = np.inf
    bad_rows: List[str] = []
    for _ in range(args.pairs):
        p = rng.uniform(box[:, 0], box[:, 1])
        q = rng.uniform(box[:, 0], box[:, 1])
        xi, phi = rng.uniform(0.0, 1.0, 2)
        s1, s2 = MixedState(p, xi), MixedState(q, phi)
        decision = decide(s1, s2, model)
        verdict = mc_check(s1, s2, elements, decision, model=model)
        kinds[verdict.kind] += 1
        related_count += int(decision.related)
        min_value = min(min_value, verdict.min_value)
        if verdict.witness_margin is not None:
            min_margin = min(min_margin, verdict.witness_margin)
        if verdict.kind == "contradiction":
            coords = ",".join(_fmt(c) for c in p) + "," + ",".join(_fmt(c) for c in q)
            bad_rows.append(f"{coords},{_fmt(xi)},{_fmt(phi)},"
                            f"{_fmt(verdict.min_value)},{verdict.min_element}")
    summary = {
        "pairs": args.pairs,
        "elements": len(elements),
        "seed": args.seed,
        "related": related_count,
        "kinds": kinds,
        "min_element_value": min_value if np.isfinite(min_value) else None,
        "min_witness_margin": min_margin if np.isfinite(min_margin) else None,
        "consistent": kinds["contradiction"] == 0,
    }
    _emit(modelfile._json_layout(summary, _json_token) + "\n", args.out)
    if bad_rows and args.artifacts:
        names = _AXIS_NAMES[model.dimension]
        header = ",".join([f"p_{n}" for n in names] + [f"q_{n}" for n in names]
                          + ["xi", "phi", "min_value", "element"])
        _emit(header + "\n" + "\n".join(bad_rows) + "\n", args.artifacts)
    return 2 if kinds["contradiction"] else 0


def _random_timelike(rng: np.random.Generator, dimension: int,
                     axis_aligned: bool = False) -> np.ndarray:
    w0 = float(np.exp(rng.uniform(-1.0, 1.2)))
    if axis_aligned:
        return np.concatenate(([w0], np.zeros(dimension - 1)))
    v = rng.normal(size=dimension - 1)
    v *= rng.uniform(0.0, 0.95) / max(np.linalg.norm(v), 1e-12)
    return np.concatenate(([w0], w0 * v))


def _cmd_selftest(args) -> int:
    rng = np.random.default_rng(args.seed)
    draws = max(10, args.draws)
    checks: List[tuple] = []

    for dim in (2, 4):
        rep = make_representation(dim)
        report = verify_representation(rep)
        checks.append((f"representation_{dim}d", report.max_residual, 1e-14))

    cert_id = charpoly_certificate(np.eye(4))
    checks.append(("certificate_identity",
                   float(np.max(np.abs(cert_id.coefficients - [4.0, 6.0, 4.0, 1.0]))),
                   1e-12))

    rep2, rep4 = make_representation(2), make_representation(4)
    worst2 = worst2z = worst4 = worst4z = worst_eig = 0.0
    for _ in range(draws):
        lam1, lam2 = np.exp(rng.uniform(-1.5, 1.5, 2))
        theta = rng.uniform(0.05, np.pi / 2 - 0.05)
        m = complex(rng.normal(), rng.normal()) or 0.5
        M2 = witness_matrix_at((lam1 + lam2, lam1 - lam2), theta, m, rep2)
        c2 = charpoly_certificate(M2, closed_form=witness_certificate_2d(lam1, lam2, theta, m))
        worst2 = max(worst2, c2.closed_form_discrepancy)
        worst2z = max(worst2z, float(np.max(np.abs(c2.unit_coefficients[2:]))))
        worst_eig = max(worst_eig, -float(np.linalg.eigvalsh(M2)[0]) / c2.scale)
        w = _random_timelike(rng, 4)
        M4 = witness_matrix_at(w, theta, m, rep4)
        c4 = charpoly_certificate(M4, closed_form=witness_certificate_4d(w, theta, m))
        worst4 = max(worst4, c4.closed_form_discrepancy)
        worst4z = max(worst4z, float(np.max(np.abs(c4.unit_coefficients[4:]))))
        worst_eig = max(worst_eig, -float(np.linalg.eigvalsh(M4)[0]) / c4.scale)
    checks.append(("certificate_2d_closed_form", worst2, 1e-10))
    checks.append(("certificate_2d_vanishing", worst2z, 1e-12))
    checks.append(("certificate_4d_closed_form", worst4, 1e-9))
    checks.append(("certificate_4d_vanishing", worst4z, 1e-10))
    checks.append(("certificate_min_eigenvalue", worst_eig, 1e-10))

    worst_sp = 0.0
    for i in range(draws):
        for dim, rep in ((2, rep2), (4, rep4)):
            w = _random_timelike(rng, dim, axis_aligned=(i % 10 == 0))
            worst_sp = max(worst_sp, solve_spinor_system(w, rep).residual)
    checks.append(("spinor_residuals", worst_sp, 1e-10))

    failed = False
    for name, value, tol in checks:
        ok = value <= tol
        failed = failed or not ok
        sys.stdout.write(f"{'ok' if ok else 'FAIL'} {name} "
                         f"worst={_fmt(value)} tol={_fmt(tol)}\n")
    return 2 if failed else 0


# ---------------------------------------------------------------------------
# entry point


_MODEL_COMMANDS = {
    "decide": _cmd_decide,
    "distance": _cmd_distance,
    "cone": _cmd_cone,
    "witness": _cmd_witness,
    "oracle": _cmd_oracle,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits itself on usage errors / --help
        return int(exc.code or 0)
    try:
        if args.command == "selftest":
            return _cmd_selftest(args)
        model = modelfile.load(args.model)
        if args.dump_model:
            _emit(modelfile.dumps(model), args.out)
            return 0
        return _MODEL_COMMANDS[args.command](args, model)
    except (modelfile.ModelFileError, ExpressionError, DomainError,
            InvalidCurveError, NotRelatedError, NotImplementedError,
            OSError, ValueError) as exc:
        sys.stderr.write(f"twosheet: error: {exc}\n")
        return 1
    except RuntimeError as exc:
        sys.stderr.write(f"twosheet: contradiction: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
