"""The benchmark's workloads: seeded inputs, one pass of a fixed batch, checks.

Every workload is a closed loop with one caller: the next operation starts when
the previous one has returned.  A run repeats the workload's fixed batch (one
"pass", with fresh inputs drawn from the seed and the pass index) for as long
as the run's time allows.  Outputs are kept and checked after the timed passes.

Each workload defines its unit operation ("op") and the items it produces:

  decide_lattice  op = one decide(..., method="dp") call      item = decision
  cone_surface    op = one `twosheet cone --out FILE` request  item = target row
  oracle_2d       op = one mc_check call (witness included)    item = kept element
  oracle_4d       op = one sample_causal_elements(count=1)     item = kept element
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from typing import List

import numpy as np

import twosheet
from twosheet import cli, modelfile


# An op that runs longer fails, so that a pathological input cannot stall a run.
OP_DEADLINE_S = 30.0


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def _lhs(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Latin-hypercube sample of n points in [0, 1)^d: one per stratum per column."""
    return (np.argsort(rng.random((d, n)), axis=1).T + rng.random((n, d))) / n


class Recorder:
    """Latencies, item counts and failures collected while a run proceeds."""

    def __init__(self):
        self.op_s: List[float] = []
        self.items = 0
        self.item_s = 0.0  # time in the ops that make items, failed ones included
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self.tracer = None  # set while a traced pass runs: spans carry the op index

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(what)


class OpDeadline(Exception):
    """An operation ran longer than OP_DEADLINE_S."""


def _deadline(signum, frame):
    raise OpDeadline(f"still running after {OP_DEADLINE_S} s")


def _call(rec: Recorder, what: str, fn, *args, **kwargs):
    """Run one operation, timing it; an exception or a missed deadline fails the op."""
    if rec.tracer is not None:
        rec.tracer.op = rec.attempted
    rec.attempted += 1
    previous = signal.signal(signal.SIGALRM, _deadline)
    signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
    start = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception:  # the benchmark keeps running and reports the failure
        rec.fail(f"{what}: {traceback.format_exc(limit=2).strip().splitlines()[-1]}")
        return None, time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return result, time.perf_counter() - start


class Workload:
    name = ""
    max_passes = 1000

    def __init__(self, root: str, seed: int, out_dir: str):
        self.root = root
        self.seed = seed
        self.out_dir = out_dir

    def model_path(self, name: str) -> str:
        return os.path.join(self.root, "models", f"{name}.json")

    def inputs(self, k: int):
        raise NotImplementedError

    def run_pass(self, inputs, rec: Recorder):
        raise NotImplementedError

    def check(self, outputs, rec: Recorder) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# decide_lattice


class DecideLattice(Workload):
    """DP decisions cycling flat2d, conformal2d, scalar2d and vielbein4d."""

    name = "decide_lattice"
    models = ("flat2d", "conformal2d", "scalar2d", "vielbein4d")
    # Coordinate speed below the slowest local light speed over the model box,
    # so the straight chord p -> q is timelike: vielbein4d's x-light-speed is
    # 1 + 0.1 t >= 0.8 and its z-light-speed 1 + 0.05 x >= 0.9.
    speed = {"flat2d": 1.0, "conformal2d": 1.0, "scalar2d": 1.0, "vielbein4d": 0.75}
    # About half the inside pairs take one refinement and half two (whether the
    # lattice finds a path), so latencies are bimodal.  Two swapped pairs in ten
    # put the median inside the fast mode rather than at its edge, where the
    # share of two-refinement pairs in a run would move it by ~20% between seeds.
    inside_per_model = 8   # q in the future cone of p
    reversed_per_model = 2  # an inside pair with its states swapped: not related

    def __init__(self, root: str, seed: int, out_dir: str):
        super().__init__(root, seed, out_dir)
        self.loaded = {name: modelfile.load(self.model_path(name)) for name in self.models}

    def _inside_pairs(self, rng, model, n: int, speed: float):
        box = model.domain_box
        dim = model.dimension
        u = _lhs(rng, n, dim + 4)
        span = box[:, 1] - box[:, 0]
        pairs = []
        for row in u:
            p = box[:, 0] + row[:dim] * span
            p[0] = box[0, 0] + row[0] * 0.9 * span[0]
            dt = (0.05 + 0.95 * row[dim]) * (box[0, 1] - p[0])
            # |dx| is kept at >= 5% of the chord's reach: when a target lies closer to
            # p's time axis than half a lattice column, _build_lattice narrows every
            # column to |dx|, and the sweep's cost grows about as 1/|dx|^2 (a flat2d
            # decision takes 0.24 s at one column, 13 s at 2% of one).  That known
            # defect is left out of the timing; the floor keeps |dx| above 2 columns.
            r = (0.05 + 0.90 * row[dim + 1]) * speed * dt
            # a random direction that points towards the box centre on every axis,
            # so at most a few halvings of r keep q inside the box
            direction = np.abs(rng.normal(size=dim - 1))
            direction *= np.where(p[1:] <= box[1:].mean(axis=1), 1.0, -1.0)
            direction /= np.linalg.norm(direction)
            q = p.copy()
            q[0] += dt
            q[1:] = p[1:] + r * direction
            while np.any((q[1:] < box[1:, 0]) | (q[1:] > box[1:, 1])):
                r *= 0.5
                q[1:] = p[1:] + r * direction
            pairs.append(((p, float(row[dim + 2])), (q, float(row[dim + 3]))))
        return pairs

    def inputs(self, k: int):
        rng = _rng(self.seed, 1, k)
        per_model = []
        for name in self.models:
            model = self.loaded[name]
            pairs = self._inside_pairs(rng, model, self.inside_per_model + self.reversed_per_model,
                                       self.speed[name])
            for i in range(self.reversed_per_model):
                s1, s2 = pairs[i]
                pairs[i] = (s2, s1)
            order = rng.permutation(len(pairs))
            per_model.append([(name, *pairs[j]) for j in order])
        return [item for group in zip(*per_model) for item in group]

    def run_pass(self, inputs, rec: Recorder):
        out = []
        for name, s1, s2 in inputs:
            dec, dt = _call(rec, f"decide {name}", twosheet.decide, s1, s2,
                            self.loaded[name], method="dp")
            rec.op_s.append(dt)
            rec.item_s += dt
            if dec is not None:
                rec.items += 1
            out.append((name, s1, s2, dec))
        return out

    def check(self, outputs, rec: Recorder) -> None:
        for name, s1, s2, dec in outputs:
            if dec is None:
                continue  # already counted as failed
            bad = []
            if dec.related and not dec.base_related:
                bad.append("related without base relation")
            if name == "flat2d":
                ref = twosheet.decide(s1, s2, self.loaded[name], method="closed")
                if dec.related != ref.related and not (dec.marginal or ref.marginal):
                    bad.append(f"dp related={dec.related} but closed related={ref.related}")
                if dec.achieved > ref.achieved + 1e-9:
                    bad.append(f"dp achieved {dec.achieved!r} > closed {ref.achieved!r}")
            if bad:
                rec.fail(f"decide {name} {s1} -> {s2}: " + "; ".join(bad))


# ---------------------------------------------------------------------------
# cone_surface


class ConeSurface(Workload):
    """`twosheet cone` requests run in-process through twosheet.cli.main."""

    name = "cone_surface"
    max_passes = 12
    # (model, extra arguments, target rows)
    requests = (
        ("conformal2d", [], 201 * 201),
        ("scalar2d", ["--grid", "401x401"], 401 * 401),
        # the closed form: on flat2d the dp surface overshoots the closed form by
        # up to ~1e-2 when xi > 0 and the source lies off the lattice, because it
        # reads the nearest lattice node, which can lie later than the target
        ("flat2d", [], 401 * 401),
    )

    def __init__(self, root: str, seed: int, out_dir: str):
        super().__init__(root, seed, out_dir)
        self.boxes = {name: modelfile.load(self.model_path(name)).domain_box
                      for name, _, _ in self.requests}

    def inputs(self, k: int):
        rng = _rng(self.seed, 2, k)
        reqs = []
        for name, extra, rows in self.requests:
            box = self.boxes[name]
            span = box[:, 1] - box[:, 0]
            t, x, xi = (f"{v:.6f}" for v in (
                box[0, 0] + rng.uniform(0.0, 0.25) * span[0],
                box[1, 0] + rng.uniform(0.25, 0.75) * span[1],
                rng.uniform(0.0, 0.9)))
            argv = ["cone", "--model", self.model_path(name), f"--p={t},{x}",
                    "--xi", xi, *extra]
            reqs.append((name, argv, rows, (float(t), float(x), float(xi))))
        return reqs

    def run_pass(self, inputs, rec: Recorder):
        out = []
        for name, request, rows, source in inputs:
            path = os.path.join(self.out_dir, f"cone-{rec.attempted}.csv")
            argv = request + ["--out", path]
            code, dt = _call(rec, f"cone {name}", cli.main, argv)
            rec.op_s.append(dt)
            rec.item_s += dt
            if code == 0:
                rec.items += rows
            out.append((name, argv, rows, source, path, code))
        return out

    def check(self, outputs, rec: Recorder) -> None:
        for name, argv, rows, (t, x, xi), path, code in outputs:
            if code is None:
                continue
            problem = self._check_file(name, rows, (t, x, xi), path) if code == 0 \
                else f"exit code {code}"
            if problem:
                rec.fail(f"cone {name} {argv}: {problem}")
        if outputs:
            # a repeated request must give identical bytes
            name, argv, _, _, path, code = outputs[0]
            if code == 0:
                with open(path, "rb") as fh:
                    first = fh.read()
                again = path + ".again"
                repeat = argv[:-1] + [again]
                code2, _ = _call(rec, f"cone {name} repeat", cli.main, repeat)
                if code2 is not None:
                    same = False
                    if code2 == 0:
                        with open(again, "rb") as fh:
                            same = fh.read() == first
                    if not same:
                        rec.fail(f"cone {name} {argv}: repeated request gave other bytes")
        for *_, path, _ in outputs:
            for f in (path, path + ".again"):
                if os.path.exists(f):
                    os.remove(f)

    @staticmethod
    def _check_file(name: str, rows: int, source, path: str):
        t0, x0, xi = source
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if lines[0] != "t,x,phi_max,reachable":
            return f"header {lines[0]!r}"
        body = lines[1:]
        if len(body) != rows:
            return f"{len(body)} rows, expected {rows}"
        unreachable = [ln for ln in body if ln.endswith(",0")]
        if any(not ln.endswith(",nan,0") for ln in unreachable):
            return "an unreachable row does not read nan,0"
        reach = [ln for ln in body if ln.endswith(",1")]
        if len(reach) + len(unreachable) != rows:
            return "a row with a reachable flag other than 0 or 1"
        if not reach:
            return "no reachable target"
        data = np.array([ln.split(",")[:3] for ln in reach], dtype=float)
        phi = data[:, 2]
        if not np.all(np.isfinite(phi)) or phi.min() < xi - 1e-9 or phi.max() > 1.0 + 1e-11:
            return f"reachable phi_max outside [xi, 1]: {phi.min()!r}..{phi.max()!r}"
        if name == "flat2d":
            dt = data[:, 0] - t0
            dx = data[:, 1] - x0
            tau = np.sqrt(np.clip(dt * dt - dx * dx, 0.0, None))
            want = np.sin(np.minimum(0.5 * np.pi, np.arcsin(np.sqrt(xi)) + tau)) ** 2
            err = float(np.abs(phi - want).max())
            if err > 1e-6:  # criterion 2's tolerance for the closed form
                return f"phi_max off the closed form by {err:.3e} (tol 1e-6)"
        return None


# ---------------------------------------------------------------------------
# oracle workloads


class Oracle2D(Workload):
    """Sample elements on flat2d, then mc_check pairs drawn as criterion 9 draws them."""

    name = "oracle_2d"
    max_passes = 40
    model_name = "flat2d"
    elements = 32
    related_pairs = 700
    unrelated_pairs = 300

    def __init__(self, root: str, seed: int, out_dir: str):
        super().__init__(root, seed, out_dir)
        self.model = modelfile.load(self.model_path(self.model_name))
        self.rep = twosheet.make_representation(2)

    def inputs(self, k: int):
        rng = _rng(self.seed, 3, k)
        box = self.model.domain_box
        mass = abs(self.model.mass)
        related, unrelated = [], []
        while len(related) < self.related_pairs or len(unrelated) < self.unrelated_pairs:
            n = 4096
            p = rng.uniform(box[:, 0], box[:, 1], size=(n, 2))
            q = rng.uniform(box[:, 0], box[:, 1], size=(n, 2))
            later = q[:, 0] >= p[:, 0]
            p, q = np.where(later[:, None], p, q), np.where(later[:, None], q, p)
            xi, phi = rng.uniform(0, 1, (2, n))
            dt, dx = q[:, 0] - p[:, 0], np.abs(q[:, 1] - p[:, 1])
            # closed form: proper time minus the internal gap over |m|; criterion 9
            # skips pairs without a base relation (dx > dt)
            slack = np.sqrt(np.clip(dt * dt - dx * dx, 0.0, None)) - np.abs(
                np.arcsin(np.sqrt(phi)) - np.arcsin(np.sqrt(xi))) / mass
            base = dx <= dt
            for i in np.flatnonzero(base & (slack > 1e-6))[:self.related_pairs - len(related)]:
                related.append(((p[i], xi[i]), (q[i], phi[i]), True))
            for i in np.flatnonzero(base & (slack < -1e-4) & (xi != phi))[
                    :self.unrelated_pairs - len(unrelated)]:
                unrelated.append(((p[i], xi[i]), (q[i], phi[i]), False))
        pairs = related + unrelated
        pairs = [pairs[i] for i in rng.permutation(len(pairs))]
        return k, int(rng.integers(2**31)), pairs

    def run_pass(self, inputs, rec: Recorder):
        k, sample_seed, pairs = inputs
        elements, dt = _call(rec, "sample flat2d", twosheet.sample_causal_elements,
                             self.model, self.elements, sample_seed)
        rec.item_s += dt
        if elements is None:
            return []
        rec.items += len(elements)
        for i, (s1, s2, expect) in enumerate(pairs):
            result, _ = _call(rec, "decide + mc_check", self._pair, s1, s2, elements)
            if result is not None:
                dec, verdict, dt = result
                rec.op_s.append(dt)
                # checked at once, outside the op's timing: keeping every verdict
                # for later would make peak RSS grow with the pass count
                problem = _verdict_problem(expect, dec, verdict)
                if problem:
                    rec.fail(f"pass {k} pair {i}: {problem}")
        return _kept_pairs(elements)

    def _pair(self, s1, s2, elements):
        """Closed-form decision, then the timed mc_check of the pair."""
        dec = twosheet.decide(s1, s2, self.model)
        start = time.perf_counter()
        verdict = twosheet.mc_check(s1, s2, elements, dec, model=self.model)
        return dec, verdict, time.perf_counter() - start

    def check(self, outputs, rec: Recorder) -> None:
        if outputs:
            _check_elements(outputs, self.model, self.rep, self.elements, rec)


def _verdict_problem(expect: bool, dec, verdict):
    if dec.related != expect:
        return f"decide says related={dec.related}, the closed form {expect}"
    if expect and verdict.kind != "consistent":
        return f"mc_check: {verdict.kind} on a related pair"
    if not expect and (verdict.kind != "witness_separates"
                       or not verdict.witness_margin > 1e-6):
        return (f"mc_check: {verdict.kind}, witness margin "
                f"{verdict.witness_margin!r} (floor 1e-6)")
    return None


class Oracle4D(Workload):
    """One certified element at a time on flat4d and vielbein4d (17^4 grid)."""

    name = "oracle_4d"
    max_passes = 16
    models = ("flat4d", "vielbein4d")

    def __init__(self, root: str, seed: int, out_dir: str):
        super().__init__(root, seed, out_dir)
        self.loaded = {name: modelfile.load(self.model_path(name)) for name in self.models}
        self.rep = twosheet.make_representation(4)

    def inputs(self, k: int):
        rng = _rng(self.seed, 4, k)
        return [(name, int(rng.integers(2**31))) for name in self.models]

    def run_pass(self, inputs, rec: Recorder):
        out = []
        for name, sample_seed in inputs:
            elements, dt = _call(rec, f"sample {name}", twosheet.sample_causal_elements,
                                 self.loaded[name], 1, sample_seed)
            rec.op_s.append(dt)
            rec.item_s += dt
            if elements is not None:
                rec.items += len(elements)
                out.append((name, _kept_pairs(elements)))
        return out

    def check(self, outputs, rec: Recorder) -> None:
        for name, kept in outputs:
            _check_elements(kept, self.loaded[name], self.rep, 1, rec)


def _kept_pairs(elements):
    """The element pairs alone: a run keeps them for the checks, and holding every
    element's certification grid would make peak RSS grow with the pass count."""
    return [el.pair for el in elements]


def _check_elements(pairs, model, rep, requested: int, rec: Recorder) -> None:
    if 2 * len(pairs) < requested:
        rec.fail(f"only {len(pairs)} of {requested} elements kept")
    # sample_causal_elements certifies on the model's default grid, rebuilt here
    grid = twosheet.certification_grid(model)
    for pair in pairs:
        member = twosheet.is_causal_element(pair, model, rep, grid=grid)
        if not member.passed:
            rec.fail(f"{pair.description} fails is_causal_element: min eigenvalue "
                     f"{member.min_eigenvalue!r}")


WORKLOADS = {w.name: w for w in (DecideLattice, ConeSurface, Oracle2D, Oracle4D)}
