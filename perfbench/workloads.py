"""The workloads: their seeded inputs, their operations and the checks of their results.

Each workload is a closed loop: one client issues one operation at a time
and waits for its result.  A run attempts whole rounds of operations, so
the share of failed operations is the same in every run, and every round
repeats the same inputs.  Inputs come from the benchmark seed through the
benchmark's own generator; framevol only receives them.  The result checks recompute what they can apart from
framevol (itertools subsets and numpy.linalg.det) and run after the timed
work.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import math
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import checkout

ROOT_2_MINUS_1 = math.sqrt(2.0) - 1.0
REL_TOL = 1e-9  # relative agreement of volumes with their reference values


@dataclass(frozen=True)
class Op:
    kind: str
    index: int  # which of the workload's inputs


@dataclass
class Record:
    op: Op
    seconds: float
    probe_s: float  # fastest of the speed probes run right after the operation
    payload: object = None
    error: str | None = None


@dataclass
class Outcome:
    failed: bool = False  # counted in `failed`
    problems: list[str] = field(default_factory=list)  # each one sets `correct` to false


def raised(record: Record) -> Outcome:
    """An operation that raised: counted in `failed`, and a problem too.

    Only the known fault of sweep-small may fail without a problem.
    """
    last = record.error.strip().splitlines()[-1]
    return Outcome(failed=True, problems=[f"{record.op.kind} {record.op.index} raised {last}"])


def tight_frame_vectors(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Rows of the polar factor of a Gaussian n x k matrix: a random tight frame."""
    while True:
        sample = rng.standard_normal((n, k))
        u, s, vt = np.linalg.svd(sample, full_matrices=False)
        if s[-1] > 1e-3 * s[0]:
            return u @ vt


def shephard_sum(vectors: np.ndarray) -> float:
    """Zonotope volume: sum of |det| over every k-subset of the n rows."""
    n, k = vectors.shape
    subsets = np.array(list(itertools.combinations(range(n), k)))
    return math.fsum(np.abs(np.linalg.det(vectors[subsets])))


def svd_complement(vectors: np.ndarray) -> np.ndarray:
    """Rows of an orthonormal basis of the complement of the columns: a tight frame in R^(n-k)."""
    u = np.linalg.svd(vectors, full_matrices=True)[0]
    return u[:, vectors.shape[1]:]


def first_order_residual(vectors: np.ndarray) -> float:
    """max_{i,j} |<sigma(i), d(j)> - <v_i, v_j>| with d(i)_J = det(v_i, v_J) over (k-1)-subsets J."""
    n, k = vectors.shape
    rest = np.array(list(itertools.combinations(range(n), k - 1)), dtype=np.intp).reshape(-1, k - 1)
    owners = np.repeat(np.arange(n)[:, None, None], len(rest), axis=1)
    rows = np.concatenate([owners, np.broadcast_to(rest, (n, *rest.shape))], axis=2)
    minors = np.linalg.det(vectors[rows])  # (n, C(n, k-1))
    minors[(rest[None, :, :] == np.arange(n)[:, None, None]).any(axis=2)] = 0.0
    sigma = np.sign(minors) / shephard_sum(vectors)
    return float(np.max(np.abs(sigma @ minors.T - vectors @ vectors.T)))


def tightness(vectors: np.ndarray) -> float:
    return float(np.linalg.norm(vectors.T @ vectors - np.eye(vectors.shape[1])))


def corollary_bound(q: int, n: int) -> float:
    """Lower bound on min |v_i|^2 / max |v_j|^2 of a maximizer at codimension q."""
    x = q / n
    return (1.0 - x / ROOT_2_MINUS_1) / (1.0 - ROOT_2_MINUS_1 * x)


def close(value: float, reference: float) -> bool:
    return abs(value - reference) <= REL_TOL * max(1.0, abs(reference))


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


class MaximizeLarge:
    """One-restart ascents of the zonotope volume at (n, k) = (13, 6) from five start shapes.

    An ascent takes from 13 to over 40 iterations, depending on its start,
    so the median over the few starts a run can repeat would move with the
    draw.  The start shapes are therefore fixed: five random tight frames
    from a constant generator.  The seed gives each a random row permutation
    and a random rotation in O(k).  The ascent commutes with both, so a seed
    changes every number framevol sees but not the steps it takes.
    """

    name = "maximize-large"
    in_process = True
    n, k = 13, 6
    shapes = 5
    shape_seed = 0  # of the generator of the start shapes; not the benchmark seed

    def build(self, fv, seed: int):
        base = np.random.default_rng([1, self.shape_seed])
        rng = np.random.default_rng([1, seed])
        starts = []
        for _ in range(self.shapes):
            shape = tight_frame_vectors(base, self.n, self.k)
            rotation = np.linalg.qr(rng.standard_normal((self.k, self.k)))[0]
            starts.append(fv.TightFrame(shape[rng.permutation(self.n)] @ rotation))
        return {"starts": starts, "config": fv.AscentConfig(restarts=1)}

    def digest(self, inputs) -> str:
        return _digest(start.vectors for start in inputs["starts"])

    def round(self, inputs) -> list[Op]:
        return [Op("ascend", i) for i in range(self.shapes)]

    def run(self, fv, inputs, op: Op, tracer=None):
        return fv.ascend(inputs["starts"][op.index], inputs["config"])

    def check(self, inputs, record: Record, seen: dict) -> Outcome:
        if record.error:
            return raised(record)
        result = record.payload
        vectors = result.frame.vectors
        start = shephard_sum(inputs["starts"][record.op.index].vectors)
        own = shephard_sum(vectors)
        dual = shephard_sum(svd_complement(vectors))
        residual = first_order_residual(vectors)
        tol = inputs["config"].tolerance
        problems = []
        if (off := tightness(vectors)) > 1e-9:
            problems.append(f"frame not tight: {off:.3e}")
        if not close(result.volume, own):
            problems.append(f"volume {result.volume!r} != Shephard sum {own!r}")
        if not close(own, dual):
            problems.append(f"volume {own!r} != complement volume {dual!r}")
        if not residual < tol:
            problems.append(f"first-order residual {residual:.3e} >= {tol:.1e}")
        if not start * (1.0 - REL_TOL) <= own <= math.sqrt(math.comb(self.n, self.k)):
            problems.append(f"volume {own!r} outside [start {start!r}, sqrt(C(n,k))]")
        return Outcome(problems=[f"start {record.op.index}: {p}" for p in problems])


class SweepSmall:
    """Codimension-1 stability scan plus plane ascents for n = 3..9, and one known fault."""

    name = "sweep-small"
    in_process = True
    ns = range(3, 10)
    sweeps_per_round = 9  # the same 9 seeded sweep inputs in every round

    def build(self, fv, seed: int):
        rng = np.random.default_rng([2, seed])
        entries = []
        for _ in range(self.sweeps_per_round):
            config = fv.AscentConfig(restarts=1, seed=int(rng.integers(2**31)))
            planes = [fv.TightFrame(tight_frame_vectors(rng, n, 2)) for n in self.ns]
            entries.append((config, planes))
        # Tight but degenerate start: the third vector is zero.  Does not depend on the seed.
        degenerate = fv.TightFrame(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        return {"entries": entries, "degenerate": degenerate}

    def digest(self, inputs) -> str:
        arrays = [np.array([config.seed]) for config, _ in inputs["entries"]]
        arrays += [plane.vectors for _, planes in inputs["entries"] for plane in planes]
        return _digest(arrays)

    def round(self, inputs) -> list[Op]:
        return [Op("degenerate-start", 0), *(Op("sweep", j) for j in range(self.sweeps_per_round))]

    def run(self, fv, inputs, op: Op, tracer=None):
        if op.kind == "degenerate-start":
            return fv.ascend(inputs["degenerate"], fv.AscentConfig(restarts=1))
        config, planes = inputs["entries"][op.index]
        rows = fv.stability_scan(1, self.ns.start, self.ns.stop - 1, config)
        return rows, [fv.ascend(plane, config) for plane in planes]

    def check(self, inputs, record: Record, seen: dict) -> Outcome:
        if record.op.kind == "degenerate-start":
            if record.error:
                return Outcome(failed=True)
            # Known fault: the ascent stops at volume 1 instead of the (3, 2) maximum sqrt 3.
            return Outcome(failed=not close(record.payload.volume, math.sqrt(3.0)))
        if record.error:
            return raised(record)
        rows, planes = record.payload
        problems = []
        if [(row.n, row.k) for row in rows] != [(n, n - 1) for n in self.ns]:
            problems.append(f"scan rows {[(row.n, row.k) for row in rows]}")
        for row in rows:
            if not close(row.volume, math.sqrt(row.n)):
                problems.append(f"q=1 n={row.n}: volume {row.volume!r} != sqrt(n)")
            if not close(row.ratio, row.min_norm_sq / row.max_norm_sq):
                problems.append(f"q=1 n={row.n}: ratio {row.ratio!r} is not min/max")
            if row.ratio < corollary_bound(1, row.n) - REL_TOL:
                problems.append(f"q=1 n={row.n}: ratio {row.ratio!r} below bound")
        for n, result in zip(self.ns, planes):
            vectors = result.frame.vectors
            target = 1.0 / math.tan(math.pi / (2 * n))  # the regular 2n-gon
            if tightness(vectors) > 1e-9:
                problems.append(f"(n={n}, 2): frame not tight")
            if not close(result.volume, target):
                problems.append(f"(n={n}, 2): volume {result.volume!r} != cot(pi/2n) {target!r}")
            if not close(shephard_sum(vectors), result.volume):
                problems.append(f"(n={n}, 2): volume is not the Shephard sum")
            if result.ratio.min_ratio < corollary_bound(n - 2, n) - REL_TOL:
                problems.append(f"(n={n}, 2): ratio {result.ratio.min_ratio!r} below bound")
        return Outcome(problems=[f"sweep {record.op.index}: {p}" for p in problems])


VERIFY_IDENTITIES = (
    "cauchy_binet",
    "cross_tight",
    "det_expansion_slope",
    "hodge_defining",
    "lagrange",
    "mcmullen",
    "tightness",
    "unit_decomposition_l2",
    "unit_decomposition_lk",
    "volume_identity",
)


class VerifyCli:
    """``framevol verify`` at (n, k) = (8, 4), one fresh interpreter per operation.

    The interpreter runs ``child.py cli``, which calls ``framevol.cli.main``
    as ``python3 -m framevol`` does and then reports its own peak memory.
    """

    name = "verify-cli"
    in_process = False
    n, k, trials = 8, 4, 60

    def build(self, fv, seed: int):
        importlib.import_module("framevol.cli")
        rng = np.random.default_rng([3, seed])
        return {"seed": int(rng.integers(2**31))}  # repeated in every round

    def digest(self, inputs) -> str:
        return _digest([np.array([inputs["seed"]])])

    def round(self, inputs) -> list[Op]:
        return [Op("verify", 0)]

    def argv(self, inputs, op: Op) -> list[str]:
        return [
            "verify", "--n", str(self.n), "--k", str(self.k),
            "--trials", str(self.trials), "--seed", str(inputs["seed"]),
        ]

    def run(self, fv, inputs, op: Op, tracer=None):
        """The finished child and its own peak resident memory in MB."""
        command = [sys.executable, str(checkout.ROOT / "perfbench" / "child.py"), "cli"]
        args = ["--", *self.argv(inputs, op)]
        if tracer is None:
            completed = _run_child([*command, *args])
            return completed, _child_peak_rss_mb(completed)
        checkout.RESULTS.mkdir(exist_ok=True)
        trace_path = checkout.RESULTS / f"cli-trace-{op.index}.json"
        completed = _run_child([*command, "--trace-out", str(trace_path), *args])
        try:
            tracer.merge(json.loads(trace_path.read_text()))
        finally:
            trace_path.unlink(missing_ok=True)
        return completed, _child_peak_rss_mb(completed)

    def check(self, inputs, record: Record, seen: dict) -> Outcome:
        if record.error:
            return raised(record)
        completed, _ = record.payload
        seed = inputs["seed"]
        problems = []
        if completed.returncode != 0:
            problems.append(f"exit code {completed.returncode}: {completed.stderr[-300:]!r}")
        first = seen.setdefault(seed, completed.stdout)
        if completed.stdout != first:
            problems.append("stdout differs from an earlier run with the same seed")
        try:
            doc = json.loads(completed.stdout)
        except ValueError as exc:
            return Outcome(problems=[f"seed {seed}: {p}" for p in [*problems, f"bad JSON: {exc}"]])
        echo = {"command": "verify", "n": self.n, "k": self.k, "trials": self.trials, "seed": seed}
        if {key: doc.get(key) for key in echo} != echo:
            problems.append("document does not echo its configuration")
        if doc.get("pass") is not True:
            problems.append('"pass" is not true')
        identities = doc.get("identities", {})
        missing = set(VERIFY_IDENTITIES) - set(identities)
        if missing:
            problems.append(f"identities missing: {sorted(missing)}")
        for name, entry in identities.items():
            value, limit = entry.get("max_residual"), entry.get("tolerance")
            if not (isinstance(value, float) and math.isfinite(value) and value <= limit):
                problems.append(f"{name}: residual {value!r} not within {limit!r}")
            if entry.get("pass") is not True:
                problems.append(f"{name}: pass is not true")
        return Outcome(problems=[f"seed {seed}: {p}" for p in problems])


def _run_child(command: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        command, cwd=checkout.ROOT, env=checkout.child_env(),
        capture_output=True, timeout=120, check=False,
    )


def _child_peak_rss_mb(completed: subprocess.CompletedProcess) -> float:
    """The ``peak_rss_mb <MB>`` line that child.py cli prints last on stderr."""
    lines = completed.stderr.decode(errors="replace").strip().splitlines()
    label, _, value = (lines[-1] if lines else "").partition(" ")
    if label != "peak_rss_mb":
        raise RuntimeError(f"CLI child reported no peak_rss_mb: {completed.stderr[-300:]!r}")
    return float(value)


WORKLOADS = {w.name: w for w in (MaximizeLarge(), SweepSmall(), VerifyCli())}
