"""First-order ascent of the scale-invariant zonotope volume over frames.

The objective is G(S) = F(S) / sqrt(det A_S), which is invariant under any
invertible linear map of the whole frame and reduces to the plain zonotope
volume on tight frames.  The ascent direction per vector is g_i - v_i,
where g_i collects the sign-weighted cross products of the remaining
vectors; it vanishes exactly when the first-order optimality identity
<sigma_S(i), d_S(j)> = <v_i, v_j> holds.  It is computed as M V, with the
first-order matrix M = sigma D^T - V V^T, which is g - V as V^T V = I.  Steps
are retracted back to the tight-frame manifold by whitening, accepted only
when G increases, and interleaved with volume-preserving pairwise rotations
that can escape plateaus the gradient cannot see.  The line search stops
where the predicted gain sinks into the volume's rounding, so the steps it
takes do not hang on the last bits.  The subset minors of
each retracted frame are computed once and give its volume, residual and
direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import zonotope
from .exterior import _minors
from .frames import (
    Frame,
    InvalidFrameError,
    TightFrame,
    _require_tight,
    frame_operator,
    random_tight_frame,
    whiten,
)
from .zonotope import DegenerateFrameError

RATIO_BOUND = math.sqrt(2.0) - 1.0

_MAX_STEP = 4.0
_ARMIJO = 0.25  # required fraction of the predicted first-order gain
_RESTART_TIE = 1e-12  # restarts this close (relative) to the best volume tie
# The line search tries no step whose predicted relative gain t * |x|^2 is below
# this.  The volume's rounding spreads by about 2e-15 relative over rotations
# of one frame at (13, 6), so smaller gains would be accepted or rejected by
# the last bits; the residual-driven polish takes over from there.
_GAIN_FLOOR = 1e-14


class RatioCheck(NamedTuple):
    min_ratio: float
    ok: bool


class DetExpansionCheck(NamedTuple):
    """Quadratic fit of det A along a perturbation versus the predicted slope."""

    first_order: float
    expected: float
    relative_error: float
    quadratic_ratios: tuple[float, ...]


@dataclass(frozen=True)
class AscentConfig:
    max_iterations: int = 10_000
    initial_step: float = 1.0
    backtrack_factor: float = 0.5
    backtrack_limit: int = 40
    tolerance: float = 1e-8
    restarts: int = 1
    seed: int = 0
    rotation_interval: int = 20

    def __post_init__(self) -> None:
        if self.initial_step <= 0.0:
            raise ValueError("initial step must be positive")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError("backtracking factor must lie in (0, 1)")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError("tolerance must be finite and positive")
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if self.max_iterations < 1 or self.backtrack_limit < 1:
            raise ValueError("iteration and backtracking caps must be positive")


@dataclass(frozen=True, slots=True)
class RestartRecord:
    restart: int
    frame: TightFrame
    volume: float
    residual: float
    iterations: int
    converged: bool
    trace: tuple[float, ...]


@dataclass(frozen=True, slots=True)
class OptimizationResult:
    frame: TightFrame
    volume: float
    residual: float
    iterations: int
    converged: bool
    min_norm_sq: float
    max_norm_sq: float
    ratio: RatioCheck
    restarts: tuple[RestartRecord, ...]
    config: AscentConfig


@dataclass(frozen=True, slots=True)
class StabilityRow:
    n: int
    k: int
    volume: float
    residual: float
    min_norm_sq: float
    max_norm_sq: float
    ratio: float
    lower_bound: float
    converged: bool


def objective(frame: Frame) -> float:
    """G(S) = F(S) / sqrt(det A_S); equals the volume on tight frames."""
    det = float(np.linalg.det(frame_operator(frame)))
    if det <= 0.0:
        raise InvalidFrameError("frame operator determinant is not positive")
    return zonotope.volume(frame) / math.sqrt(det)


def _evaluate(frame: Frame) -> tuple[np.ndarray, float]:
    """The subset minors d(L) of a frame and its volume sum_L |d(L)|."""
    minors = _minors(frame.vectors)
    return minors, math.fsum(np.abs(minors))


def ascent_direction(frame: Frame) -> np.ndarray:
    """Per-vector ascent directions x_i = g_i - v_i of log G at a tight frame.

    g_i satisfies <g_i, y> = sum over (k-1)-subsets J avoiding i of
    sigma_S(i, J) det(y, v_J); all x_i vanish iff the frame is
    first-order critical.  Computed as M V with M = sigma D^T - V V^T.
    """
    _require_tight(frame)
    minors, total = _evaluate(frame)
    return zonotope._first_order_matrix(frame.vectors, minors, total) @ frame.vectors


def retract(frame: Frame) -> TightFrame:
    """Whitening retraction onto the tight frames; preserves G exactly."""
    return whiten(frame)[1]


def pairwise_rotation(frame: Frame, i: int, j: int, theta: float) -> Frame:
    """Rotate the pair (v_i, v_j) by theta in their index plane (1-based i, j).

    The frame operator is unchanged, as is |d_S(L)| for every L containing
    both indices.
    """
    if i == j:
        raise ValueError("rotation needs two distinct indices")
    for idx in (i, j):
        if not 1 <= idx <= frame.n:
            raise ValueError(f"index {idx} out of [1, {frame.n}]")
    vectors = frame.vectors.copy()
    vi, vj = vectors[i - 1].copy(), vectors[j - 1].copy()
    c, s = math.cos(theta), math.sin(theta)
    vectors[i - 1] = c * vi - s * vj
    vectors[j - 1] = s * vi + c * vj
    return Frame(vectors)


def ratio_check(frame: Frame, tol: float = 1e-9) -> RatioCheck:
    """min_{i,j} |v_i|^2 / |v_j|^2 against the maximizer bound sqrt(2) - 1."""
    norms = np.sum(frame.vectors**2, axis=1)
    largest = float(np.max(norms))
    if largest <= 0.0:
        return RatioCheck(0.0, False)
    ratio = float(np.min(norms) / largest)
    return RatioCheck(ratio, ratio >= RATIO_BOUND - tol)


def _fixed_point_polish(
    frame: TightFrame, mismatch: np.ndarray, volume: float, max_steps: int = 40
) -> tuple[TightFrame, float, float]:
    """Drive the residual to the noise floor with pure t = 1 retraction steps.

    Near a maximizer the map S -> retract(S + ascent_direction(S)) contracts,
    and judging progress by the residual sidesteps the volume-comparison
    noise floor that limits the line search.  Iterates are kept only while
    the residual improves and the volume stays within rounding of ``volume``.
    ``mismatch`` is the first-order matrix of ``frame``; the best frame is
    returned with its residual and volume.
    """
    volume_floor = volume * (1.0 - 1e-12)
    best = (frame, float(np.max(np.abs(mismatch))), volume)
    current = frame
    for _ in range(max_steps):
        try:
            current = retract(Frame(current.vectors + mismatch @ current.vectors))
            minors, current_volume = _evaluate(current)
            mismatch = zonotope._first_order_matrix(current.vectors, minors, current_volume)
        except (InvalidFrameError, DegenerateFrameError, np.linalg.LinAlgError):
            break
        value = float(np.max(np.abs(mismatch)))
        if value < best[1] and current_volume >= volume_floor:
            best = (current, value, current_volume)
        if value < 1e-15 or value > 10.0 * best[1]:
            break
    return best


def _rotation_probe(
    frame: TightFrame, current: float
) -> tuple[TightFrame, np.ndarray, float] | None:
    """Try quarter/eighth-turn rotations of the extreme-norm pair; None if no gain."""
    norms = np.sum(frame.vectors**2, axis=1)
    i = int(np.argmin(norms))
    j = int(np.argmax(norms))
    if i == j:
        return None
    for theta in (math.pi / 8.0, math.pi / 4.0):
        try:
            candidate = retract(pairwise_rotation(frame, i + 1, j + 1, theta))
        except (InvalidFrameError, np.linalg.LinAlgError):
            continue
        minors, gained = _evaluate(candidate)
        if gained > current:
            return candidate, minors, gained
    return None


def _ascend_single(start: TightFrame, cfg: AscentConfig, restart: int) -> RestartRecord:
    frame = start
    minors, best = _evaluate(frame)
    trace = [best]
    step = cfg.initial_step
    converged = False
    iterations = 0
    for iteration in range(1, cfg.max_iterations + 1):
        mismatch = zonotope._first_order_matrix(frame.vectors, minors, best)
        if np.max(np.abs(mismatch)) < cfg.tolerance:
            converged = True
            break
        iterations = iteration
        moved = False
        direction = mismatch @ frame.vectors
        predicted = float(np.sum(direction * direction))  # d(log G)/dt at t = 0
        trial = min(step * 2.0, _MAX_STEP)
        for _ in range(cfg.backtrack_limit):
            if trial * predicted < _GAIN_FLOOR:
                break
            try:
                candidate = retract(Frame(frame.vectors + trial * direction))
            except (InvalidFrameError, np.linalg.LinAlgError):
                candidate = None
            if candidate is not None:
                candidate_minors, gained = _evaluate(candidate)
                if gained > best * (1.0 + _ARMIJO * trial * predicted):
                    frame, minors, best = candidate, candidate_minors, gained
                    step, moved = trial, True
                    break
            trial *= cfg.backtrack_factor
        if not moved or iteration % cfg.rotation_interval == 0:
            probe = _rotation_probe(frame, best)
            if probe is not None:
                frame, minors, best = probe
                moved = True
        if moved:
            trace.append(best)
        else:
            break  # neither a gradient step nor a rotation improves: stalled
    mismatch = zonotope._first_order_matrix(frame.vectors, minors, best)
    residual = float(np.max(np.abs(mismatch)))
    if residual > 1e-15:
        frame, residual, best = _fixed_point_polish(frame, mismatch, best)
    converged = converged or residual < cfg.tolerance
    return RestartRecord(
        restart=restart,
        frame=frame,
        volume=best,
        residual=residual,
        iterations=iterations,
        converged=converged,
        trace=tuple(trace),
    )


def ascend(start: TightFrame, cfg: AscentConfig | None = None) -> OptimizationResult:
    """Multistart first-order ascent from ``start``; restarts are seeded random frames.

    Restart r > 0 draws its starting tight frame with seed (cfg.seed, r).
    The lowest-numbered restart within a relative 1e-12 of the best volume
    is reported, so ties at rounding level do not decide.  Never raises on
    non-convergence: the best iterate is always returned with its residual
    and convergence flag.
    """
    cfg = cfg or AscentConfig()
    _require_tight(start)
    records = []
    for r in range(cfg.restarts):
        if r == 0:
            frame = start if isinstance(start, TightFrame) else retract(start)
        else:
            frame = random_tight_frame(start.n, start.k, np.random.default_rng((cfg.seed, r)))
        records.append(_ascend_single(frame, cfg, restart=r))
    top = max(rec.volume for rec in records)
    best = next(rec for rec in records if rec.volume >= top * (1.0 - _RESTART_TIE))
    norms = np.sum(best.frame.vectors**2, axis=1)
    return OptimizationResult(
        frame=best.frame,
        volume=best.volume,
        residual=best.residual,
        iterations=sum(rec.iterations for rec in records),
        converged=best.converged,
        min_norm_sq=float(np.min(norms)),
        max_norm_sq=float(np.max(norms)),
        ratio=ratio_check(best.frame),
        restarts=tuple(records),
        config=cfg,
    )


def stability_lower_bound(q: int, n: int) -> float:
    """Corollary lower bound (1 - (q/n)/(sqrt 2 - 1)) / (1 - (sqrt 2 - 1) q/n)."""
    x = q / n
    return (1.0 - x / RATIO_BOUND) / (1.0 - RATIO_BOUND * x)


def stability_scan(
    q: int, n_min: int, n_max: int, cfg: AscentConfig | None = None
) -> tuple[StabilityRow, ...]:
    """Maximize at k = n - q for each n and record the squared-norm spread.

    Each row carries min/max squared vector norms of the best maximizer,
    their ratio, and the corollary lower bound the ratio must exceed.
    """
    if not 0 < q < n_min:
        raise ValueError(f"need 0 < q < n_min, got q={q}, n_min={n_min}")
    if n_max < n_min:
        raise ValueError(f"empty range: n_min={n_min}, n_max={n_max}")
    cfg = cfg or AscentConfig()
    rows = []
    for n in range(n_min, n_max + 1):
        k = n - q
        start = random_tight_frame(n, k, np.random.default_rng((cfg.seed, n, 0)))
        result = ascend(start, cfg)
        rows.append(
            StabilityRow(
                n=n,
                k=k,
                volume=result.volume,
                residual=result.residual,
                min_norm_sq=result.min_norm_sq,
                max_norm_sq=result.max_norm_sq,
                ratio=result.min_norm_sq / result.max_norm_sq,
                lower_bound=stability_lower_bound(q, n),
                converged=result.converged,
            )
        )
    return tuple(rows)


def determinant_expansion_check(
    frame: TightFrame,
    directions: np.ndarray,
    ts: Sequence[float] = (1e-3, 1e-4, 1e-5),
) -> DetExpansionCheck:
    """Check det A(t) = 1 + 2 t sum_i <x_i, v_i> + O(t^2) along v_i -> v_i + t x_i.

    A quadratic polynomial is fitted through det A(t) - 1 at the given step
    sizes; its linear coefficient must match the predicted slope, and the
    remainder after removing the predicted slope must scale like t^2 (the
    reported ratios |remainder| / t^2 stay bounded).
    """
    _require_tight(frame)
    directions = np.asarray(directions, dtype=float)
    if directions.shape != frame.vectors.shape:
        raise ValueError("directions must match the frame shape")
    expected = 2.0 * float(np.sum(directions * frame.vectors))
    ts = np.asarray(ts, dtype=float)
    values = np.array(
        [
            float(np.linalg.det(frame_operator(Frame(frame.vectors + t * directions))))
            for t in ts
        ]
    )
    coeffs = np.polyfit(ts, values - 1.0, 2)
    first_order = float(coeffs[1])
    rel = abs(first_order - expected) / max(abs(expected), np.finfo(float).tiny)
    ratios = tuple(float(abs(v - 1.0 - expected * t) / (t * t)) for v, t in zip(values, ts))
    return DetExpansionCheck(first_order, expected, rel, ratios)
