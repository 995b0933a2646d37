"""Model files: JSON descriptions of geometry, mass, domain, and resolutions.

Schema (one metric kind, one mass kind, the rest optional):

    {
      "dimension": 2,
      "metric": {"kind": "minkowski" | "conformal2d" | "vielbein4d",
                 "omega": "<expr>",          # conformal2d
                 "frame": [["<expr>", ...]]},  # vielbein4d, 4x4
      "mass": {"kind": "constant", "re": 1.0, "im": 0.0}
            | {"kind": "scalar", "phi": "<expr>"}
            | {"kind": "diagonal"},
      "vector_potentials": {"A": ["<expr>", ...], "B": ["<expr>", ...]},
      "domain": {"box": [[lo, hi], ...]},
      "resolutions": {"time_steps": 401, "space_steps": 401,
                      "certification": 101, "quadrature": 8},
      "tolerances": {"decision_band": 2e-3}
    }

Errors name the offending key and the line it sits on (or where its parent block
starts, for keys that are missing).  dumps() is canonical: loading its output and
dumping again is byte-identical.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Optional

import numpy as np

from .expressions import ExpressionError, parse_expression
from .geometry import DEFAULT_RESOLUTIONS, ModelValidationError, SpacetimeModel

__all__ = ["ModelFileError", "loads", "load", "dumps", "dump"]

_GRID_KEYS = ("time_steps", "space_steps", "certification")
_TOP_KEYS = ("dimension", "metric", "mass", "vector_potentials", "domain",
             "resolutions", "tolerances")
# model-file key of each field that SpacetimeModel.validate checks
_VALIDATED_KEYS = {"conformal_factor": "metric.omega", "vielbein": "metric.frame",
                   "mass_field": "mass.phi"}


class ModelFileError(ValueError):
    """Malformed model file; carries the offending key and line."""

    def __init__(self, message: str, key: str, line: int):
        super().__init__(f'model file error at line {line}, key "{key}": {message}')
        self.key = key
        self.line = line


def _line_of(text: str, *names: str) -> int:
    """Line (1-based) of the first quoted occurrence of any of the names."""
    for name in names:
        pos = text.find(f'"{name}"')
        if pos >= 0:
            return text.count("\n", 0, pos) + 1
    return 1


def _number(value, key: str, line: int) -> float:
    """A numeric leaf as a finite float, else a ModelFileError naming key and line.

    true and false are Python ints, but not numbers here; json reads NaN, Infinity
    and 1e999 as non-finite floats; and float() of a long integer literal overflows.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ModelFileError("must be a number", key, line)
    try:
        number = float(value)
    except OverflowError:
        number = np.inf
    if not np.isfinite(number):
        raise ModelFileError("must be a finite number", key, line)
    return number


def _expr(source, text: str, key: str):
    if not isinstance(source, str):
        raise ModelFileError("expected an expression string", key, _line_of(text, key.split(".")[-1]))
    try:
        return parse_expression(source)
    except ExpressionError as exc:
        raise ModelFileError(str(exc), key, _line_of(text, source, key.split(".")[-1])) from exc


def loads(text: str) -> SpacetimeModel:
    """Parse a model-file JSON string into a SpacetimeModel."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFileError(exc.msg, "<json>", exc.lineno) from exc
    if not isinstance(raw, dict):
        raise ModelFileError("top level must be an object", "<json>", 1)

    for k in raw:
        if k not in _TOP_KEYS:
            raise ModelFileError(f"unknown key (expected one of {', '.join(_TOP_KEYS)})",
                                 k, _line_of(text, k))
    for k in ("dimension", "metric", "mass"):
        if k not in raw:
            raise ModelFileError("required key is missing", k, 1)

    dim = raw["dimension"]
    if dim not in (2, 4):
        raise ModelFileError("dimension must be 2 or 4", "dimension", _line_of(text, "dimension"))

    metric = raw["metric"]
    if not isinstance(metric, dict) or "kind" not in metric:
        raise ModelFileError('expected an object with a "kind"', "metric", _line_of(text, "metric"))
    mkind = metric["kind"]
    kw: Dict[str, object] = {}
    if mkind == "minkowski":
        pass
    elif mkind == "conformal2d":
        if dim != 2:
            raise ModelFileError("conformal2d needs dimension 2", "metric.kind",
                                 _line_of(text, "conformal2d", "kind"))
        if "omega" not in metric:
            raise ModelFileError("conformal2d needs an omega expression", "metric.omega",
                                 _line_of(text, "metric"))
        kw["conformal_factor"] = _expr(metric["omega"], text, "metric.omega")
    elif mkind == "vielbein4d":
        if dim != 4:
            raise ModelFileError("vielbein4d needs dimension 4", "metric.kind",
                                 _line_of(text, "vielbein4d", "kind"))
        frame = metric.get("frame")
        if (not isinstance(frame, list) or len(frame) != 4
                or any(not isinstance(r, list) or len(r) != 4 for r in frame)):
            raise ModelFileError("frame must be a 4x4 table of expressions", "metric.frame",
                                 _line_of(text, "frame", "metric"))
        kw["vielbein"] = tuple(
            tuple(_expr(e, text, f"metric.frame[{a}][{mu}]") for mu, e in enumerate(row))
            for a, row in enumerate(frame))
    else:
        raise ModelFileError(f"unknown metric kind {mkind!r}", "metric.kind",
                             _line_of(text, str(mkind), "kind"))

    mass = raw["mass"]
    if not isinstance(mass, dict) or "kind" not in mass:
        raise ModelFileError('expected an object with a "kind"', "mass", _line_of(text, "mass"))
    qkind = mass["kind"]
    mass_value = 0j
    if qkind == "constant":
        mass_value = complex(*(_number(mass.get(part, 0.0), f"mass.{part}",
                                       _line_of(text, part, "mass"))
                               for part in ("re", "im")))
    elif qkind == "scalar":
        if "phi" not in mass:
            raise ModelFileError("scalar mass needs a phi expression", "mass.phi",
                                 _line_of(text, "mass"))
        kw["mass_field"] = _expr(mass["phi"], text, "mass.phi")
    elif qkind == "diagonal":
        pass
    else:
        raise ModelFileError(f"unknown mass kind {qkind!r}", "mass.kind",
                             _line_of(text, str(qkind), "kind"))

    if "vector_potentials" in raw:
        vp = raw["vector_potentials"]
        if not isinstance(vp, dict) or "A" not in vp or "B" not in vp:
            raise ModelFileError('expected {"A": [...], "B": [...]}', "vector_potentials",
                                 _line_of(text, "vector_potentials"))
        for name in ("A", "B"):
            if not isinstance(vp[name], list) or len(vp[name]) != dim:
                raise ModelFileError(f"needs {dim} expressions", f"vector_potentials.{name}",
                                     _line_of(text, name, "vector_potentials"))
        kw["vector_potentials"] = tuple(
            tuple(_expr(e, text, f"vector_potentials.{name}[{k}]")
                  for k, e in enumerate(vp[name]))
            for name in ("A", "B"))

    box = None
    if "domain" in raw:
        dom = raw["domain"]
        if not isinstance(dom, dict) or "box" not in dom:
            raise ModelFileError('expected {"box": [[lo, hi], ...]}', "domain",
                                 _line_of(text, "domain"))
        rows = dom["box"]
        line = _line_of(text, "box", "domain")
        if (not isinstance(rows, list) or len(rows) != dim
                or any(not isinstance(r, list) or len(r) != 2 for r in rows)):
            raise ModelFileError(f"box must be {dim} [lo, hi] rows of numbers", "domain.box",
                                 line)
        box = np.array([[_number(v, "domain.box", line) for v in r] for r in rows])
        if np.any(box[:, 0] >= box[:, 1]):
            raise ModelFileError("box rows need lo < hi", "domain.box", line)

    resolutions: Dict[str, Optional[int]] = {}
    if "resolutions" in raw:
        res = raw["resolutions"]
        if not isinstance(res, dict):
            raise ModelFileError("expected an object", "resolutions",
                                 _line_of(text, "resolutions"))
        for k, v in res.items():
            if k not in DEFAULT_RESOLUTIONS:
                raise ModelFileError(f"unknown resolution (expected one of "
                                     f"{', '.join(DEFAULT_RESOLUTIONS)})",
                                     f"resolutions.{k}", _line_of(text, k))
            if not isinstance(v, int) or isinstance(v, bool):
                raise ModelFileError("must be an integer", f"resolutions.{k}", _line_of(text, k))
            _number(v, f"resolutions.{k}", _line_of(text, k))
            floor = 17 if k in _GRID_KEYS else 1
            if v < floor:
                raise ModelFileError(f"must be >= {floor}", f"resolutions.{k}", _line_of(text, k))
            resolutions[k] = v

    band = None
    if "tolerances" in raw:
        tol = raw["tolerances"]
        if not isinstance(tol, dict):
            raise ModelFileError("expected an object", "tolerances", _line_of(text, "tolerances"))
        for k, v in tol.items():
            if k != "decision_band":
                raise ModelFileError("unknown tolerance (expected decision_band)",
                                     f"tolerances.{k}", _line_of(text, k))
            band = _number(v, f"tolerances.{k}", _line_of(text, k))
            if not band > 0:
                raise ModelFileError("must be a positive number", f"tolerances.{k}",
                                     _line_of(text, k))

    try:
        model = SpacetimeModel(dimension=dim, metric_kind=mkind,
                               mass_kind=qkind, mass=mass_value,
                               domain_box=box, resolutions=resolutions,
                               decision_band=band, **kw)
    except ValueError as exc:
        raise ModelFileError(str(exc), "metric", _line_of(text, "metric")) from exc
    if mkind != "minkowski" or qkind == "scalar":
        try:
            model.validate()
        except ModelValidationError as exc:
            key = _VALIDATED_KEYS[exc.field]
            raise ModelFileError(str(exc), key, _line_of(text, key.split(".")[-1])) from exc
    return model


def load(path: str) -> SpacetimeModel:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def _json_layout(value, scalar: Callable[[object], str], indent: int = 0) -> str:
    """One key or nested item per line, flat lists inline; scalar formats the rest."""
    pad = " " * indent
    if isinstance(value, dict):
        rows = [f"{pad}  {json.dumps(k)}: {_json_layout(v, scalar, indent + 2).lstrip()}"
                for k, v in value.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        if all(not isinstance(x, (dict, list, tuple, np.ndarray)) for x in value):
            return "[" + ", ".join(scalar(x) for x in value) + "]"
        rows = [f"{pad}  {_json_layout(x, scalar, indent + 2)}" for x in value]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    return scalar(value)


def dumps(model: SpacetimeModel) -> str:
    """Canonical JSON for the model: fixed key order, shortest float repr."""
    doc: Dict[str, object] = {"dimension": model.dimension}
    if model.metric_kind == "minkowski":
        doc["metric"] = {"kind": "minkowski"}
    elif model.metric_kind == "conformal2d":
        doc["metric"] = {"kind": "conformal2d", "omega": model.conformal_factor.source}
    else:
        doc["metric"] = {"kind": "vielbein4d",
                         "frame": [[e.source for e in row] for row in model.vielbein]}
    if model.mass_kind == "constant":
        doc["mass"] = {"kind": "constant", "re": model.mass.real, "im": model.mass.imag}
    elif model.mass_kind == "scalar":
        doc["mass"] = {"kind": "scalar", "phi": model.mass_field.source}
    else:
        doc["mass"] = {"kind": "diagonal"}
    if model.vector_potentials is not None:
        A, B = model.vector_potentials
        doc["vector_potentials"] = {"A": [e.source for e in A], "B": [e.source for e in B]}
    doc["domain"] = {"box": [[float(lo), float(hi)] for lo, hi in model.domain_box]}
    doc["resolutions"] = {k: int(v) for k, v in model.resolutions.items() if v is not None}
    if model.decision_band is not None:
        doc["tolerances"] = {"decision_band": model.decision_band}
    return _json_layout(doc, json.dumps) + "\n"


def dump(model: SpacetimeModel, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(model))
