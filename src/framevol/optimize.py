"""First-order ascent of the scale-invariant zonotope volume over frames.

The objective is G(S) = F(S) / sqrt(det A_S), which is invariant under any
invertible linear map of the whole frame and reduces to the plain zonotope
volume on tight frames.  The ascent direction per vector is g_i - v_i,
where g_i collects the sign-weighted cross products of the remaining
vectors; it vanishes exactly when the first-order optimality identity
<sigma_S(i), d_S(j)> = <v_i, v_j> holds.  It is computed as M V, with the
first-order matrix M = sigma D^T - V V^T, which is g - V as V^T V = I.

One loop drives the residual max |M| to zero.  While the residual is not
below the tolerance it takes Armijo line-search steps, retracted back to the
tight-frame manifold by whitening and accepted only when G increases by a
fixed share of the predicted gain.  The search stops where that gain sinks
into the volume's rounding.  From there, and once the residual is below the
tolerance, plain t = 1 steps are judged by the residual instead, which is
not limited by that rounding.  The subset minors of each retracted frame
are computed once and give its volume, residual and direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import NamedTuple

import numpy as np

from . import zonotope
from .frames import (
    Frame,
    InvalidFrameError,
    TightFrame,
    _require_tight,
    frame_operator,
    random_tight_frame,
    whiten,
)

RATIO_BOUND = math.sqrt(2.0) - 1.0

_INITIAL_STEP = 1.0
_MAX_STEP = 4.0
_BACKTRACK_FACTOR = 0.5
_BACKTRACK_LIMIT = 40
_MAX_ITERATIONS = 10_000  # line-search iterations per restart
_ARMIJO = 0.25  # required fraction of the predicted first-order gain
_RESTART_TIE = 1e-12  # restarts this close (relative) to the best volume tie
# The line search tries no step whose predicted relative gain t * |x|^2 is below
# this.  The volume's rounding spreads by about 2e-15 relative over rotations
# of one frame at (13, 6), so smaller gains would be accepted or rejected by
# the last bits; the residual-driven polish steps take over from there.
_GAIN_FLOOR = 1e-14
_RESIDUAL_FLOOR = 1e-15  # the rounding level of the first-order matrix
_POLISH_SLACK = 1e-12  # relative volume loss a polish step may incur
_EXPANSION_STEPS = (1e-3, 1e-4, 1e-5)  # step sizes t of determinant_expansion_check


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
    tolerance: float = 1e-8
    restarts: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        tol = self.tolerance
        if isinstance(tol, bool) or not (isinstance(tol, Real) and math.isfinite(tol) and tol > 0):
            raise ValueError("tolerance must be finite and positive")
        if not (isinstance(self.restarts, Integral) and self.restarts >= 1):
            raise ValueError("restarts must be an integer >= 1")
        if not (isinstance(self.seed, Integral) and self.seed >= 0):
            raise ValueError("seed must be a non-negative integer")


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


def ascent_direction(frame: Frame) -> np.ndarray:
    """Per-vector ascent directions x_i = g_i - v_i of log G at a tight frame.

    g_i satisfies <g_i, y> = sum over (k-1)-subsets J avoiding i of
    sigma_S(i, J) det(y, v_J); all x_i vanish iff the frame is
    first-order critical.  Computed as M V with M = sigma D^T - V V^T.
    """
    _require_tight(frame)
    minors, total = zonotope._evaluate(frame.vectors)
    return zonotope._first_order_matrix(frame.vectors, minors, total) @ frame.vectors


def retract(frame: Frame) -> TightFrame:
    """Whitening retraction onto the tight frames; preserves G exactly."""
    return whiten(frame)[1]


def ratio_check(frame: Frame, tol: float = 1e-9) -> RatioCheck:
    """min_{i,j} |v_i|^2 / |v_j|^2 against the maximizer bound sqrt(2) - 1."""
    norms = np.sum(frame.vectors**2, axis=1)
    largest = float(np.max(norms))
    if largest <= 0.0:
        return RatioCheck(0.0, False)
    ratio = float(np.min(norms) / largest)
    return RatioCheck(ratio, ratio >= RATIO_BOUND - tol)


def _retract_step(
    frame: TightFrame, direction: np.ndarray, t: float
) -> tuple[TightFrame, np.ndarray, float] | None:
    """S + t x retracted to the tight frames, with its minors and volume; None if singular."""
    try:
        candidate = retract(Frame(frame.vectors + t * direction))
    except (InvalidFrameError, np.linalg.LinAlgError):
        return None
    return candidate, *zonotope._evaluate(candidate.vectors)


def _ascend_single(start: TightFrame, cfg: AscentConfig, restart: int) -> RestartRecord:
    frame = start
    minors, best = zonotope._evaluate(frame.vectors)
    mismatch = zonotope._first_order_matrix(frame.vectors, minors, best)
    residual = float(np.max(np.abs(mismatch)))
    trace = [best]
    step = _INITIAL_STEP
    iterations = 0
    while residual > _RESIDUAL_FLOOR and iterations < _MAX_ITERATIONS:
        direction = mismatch @ frame.vectors
        moved = False
        if residual >= cfg.tolerance:
            iterations += 1
            predicted = float(np.sum(direction * direction))  # d(log G)/dt at t = 0
            trial = min(step * 2.0, _MAX_STEP)
            for _ in range(_BACKTRACK_LIMIT):
                if trial * predicted < _GAIN_FLOOR:
                    break
                candidate = _retract_step(frame, direction, trial)
                if candidate is not None and candidate[2] > best * (
                    1.0 + _ARMIJO * trial * predicted
                ):
                    step, moved = trial, True
                    break
                trial *= _BACKTRACK_FACTOR
        if moved:
            frame, minors, best = candidate
            mismatch = zonotope._first_order_matrix(frame.vectors, minors, best)
            residual = float(np.max(np.abs(mismatch)))
            trace.append(best)
            continue
        # No line-search step, or the residual is below the tolerance.  Near a
        # maximizer the t = 1 map contracts, and judging it by the residual
        # sidesteps the volume's rounding that stops the line search.
        candidate = _retract_step(frame, direction, 1.0)
        if candidate is None:
            break
        polished = zonotope._first_order_matrix(candidate[0].vectors, *candidate[1:])
        value = float(np.max(np.abs(polished)))
        if not (value < residual and candidate[2] >= best * (1.0 - _POLISH_SLACK)):
            break
        (frame, minors, best), mismatch, residual = candidate, polished, value
    # A critical point with a zero subset minor is degenerate: sigma has zero
    # entries there, so the first-order identity can hold without a maximum.
    converged = residual < cfg.tolerance and bool(np.all(zonotope._sign_matrix(minors)))
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

    Restart 0 starts from ``start``, which must be tight; a plain Frame is
    taken as it is, not whitened again.  Restart r > 0 draws its starting
    tight frame with seed (cfg.seed, r).
    The lowest-numbered restart within a relative 1e-12 of the best volume
    is reported, so ties at rounding level do not decide.  Never raises on
    non-convergence: the best iterate is always returned with its residual
    and convergence flag.
    """
    cfg = cfg or AscentConfig()
    start = _require_tight(start)
    records = [_ascend_single(start, cfg, restart=0)]
    for r in range(1, cfg.restarts):
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


def determinant_expansion_check(frame: TightFrame, directions: np.ndarray) -> DetExpansionCheck:
    """Check det A(t) = 1 + 2 t sum_i <x_i, v_i> + O(t^2) along v_i -> v_i + t x_i.

    A quadratic polynomial is fitted through det A(t) - 1 at the step sizes
    ``_EXPANSION_STEPS``; its linear coefficient must match the predicted
    slope, and the remainder after removing the predicted slope must scale
    like t^2 (the reported ratios |remainder| / t^2 stay bounded).
    """
    _require_tight(frame)
    directions = np.asarray(directions, dtype=float)
    if directions.shape != frame.vectors.shape:
        raise ValueError("directions must match the frame shape")
    for t in _EXPANSION_STEPS:
        Frame(frame.vectors + t * directions)  # each perturbed frame must be a frame
    fit = _expansion_fit(frame.vectors[None], directions[None])[0].tolist()
    return DetExpansionCheck(*fit[:3], tuple(fit[3:]))


def _expansion_fit(vectors: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """determinant_expansion_check of each frame of (m, n, k) stacks, one row per frame.

    Checks no perturbed frame: for tight frames and ||X||_F <= 1, every singular
    value of V + t X is at least 1 - t (Weyl), so all of them span R^k.
    """
    expected = 2.0 * np.sum(directions * vectors, axis=(1, 2))
    ts = np.array(_EXPANSION_STEPS)
    moved = vectors[:, None] + ts[:, None, None] * directions[:, None]  # (m, steps, n, k)
    operator = np.swapaxes(moved, -1, -2) @ moved
    values = np.linalg.det(0.5 * (operator + np.swapaxes(operator, -1, -2)))  # frame_operator
    first_order = np.polyfit(ts, values.T - 1.0, 2)[1]
    rel = np.abs(first_order - expected) / np.maximum(np.abs(expected), np.finfo(float).tiny)
    ratios = np.abs(values - 1.0 - expected[:, None] * ts) / (ts * ts)
    return np.column_stack([first_order, expected, rel, ratios])
