"""The stacked identity kernels against their per-frame functions.

Each identity has one private kernel over an (m, n, k) stack of frames; the
public per-frame function calls it on a stack of one and the CLI's identity
trials call it on blocks of frames, so both must read the same residuals,
bit for bit: the minor kernel rounds a stack like its frames alone.
"""

import tracemalloc

import numpy as np
import pytest

from framevol import cli
from framevol.exterior import (
    _cross_tight,
    _lagrange,
    _minors,
    _unit_decomposition,
    _volume_identity,
    compound_matrix,
    lagrange_residual,
    unit_decomposition_residual,
    verify_cross_tight,
    volume_identity_residual,
)
from framevol.frames import (
    EmptyComplementError,
    Frame,
    InvalidFrameError,
    NotTightError,
    TightFrame,
    random_tight_frame,
)
from framevol.optimize import _expansion_fit, determinant_expansion_check
from framevol.zonotope import _mcmullen_volumes, mcmullen_check

SHAPES = [(3, 1), (5, 5), (6, 3), (7, 6), (8, 4), (10, 3)]
same = np.testing.assert_array_equal


@pytest.mark.parametrize("n, k", SHAPES)
def test_kernels_match_per_frame_functions(n, k):
    rng = np.random.default_rng((5, n, k))
    frames = [random_tight_frame(n, k, rng) for _ in range(5)]
    vectors = np.stack([frame.vectors for frame in frames])
    directions = rng.standard_normal(vectors.shape)
    directions /= np.linalg.norm(directions, axis=(1, 2), keepdims=True)

    same(_cross_tight(vectors), [verify_cross_tight(frame) for frame in frames])
    for level in range(1, k + 1):
        expected = [unit_decomposition_residual(frame, level) for frame in frames]
        same(_unit_decomposition(vectors, level), expected)
    for size in range(k + 1):
        expected = [volume_identity_residual(frame, size) for frame in frames]
        same(_volume_identity(vectors, size), expected)
    checks = [determinant_expansion_check(f, x) for f, x in zip(frames, directions)]
    fits = _expansion_fit(vectors, directions)
    same(fits[:, :3], [[c.first_order, c.expected, c.relative_error] for c in checks])
    same(fits[:, 3:], [c.quadratic_ratios for c in checks])
    if n > k:
        same(_lagrange(vectors), [lagrange_residual(frame) for frame in frames])
        duality = [mcmullen_check(frame) for frame in frames]
        volumes = _mcmullen_volumes(vectors)
        same(volumes, [[c.volume for c in duality], [c.dual_volume for c in duality]])
        same(np.abs(volumes[0] - volumes[1]), [c.gap for c in duality])


@pytest.mark.parametrize("n", [4, 5, 6])
def test_a_stack_rounds_like_its_matrices_alone(n):
    stack = np.random.default_rng((6, n)).standard_normal((7, n, n))
    minors = _minors(stack)
    compounds = [compound_matrix(stack, level) for level in range(n + 1)]
    for i, matrix in enumerate(stack):
        same(minors[i], _minors(matrix))
        for level, compound in enumerate(compounds):
            same(compound[i], compound_matrix(matrix, level))


def test_per_frame_functions_keep_their_errors():
    square = TightFrame(np.eye(3))
    with pytest.raises(EmptyComplementError):
        mcmullen_check(square)
    with pytest.raises(EmptyComplementError):
        lagrange_residual(square)
    loose = Frame([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    for check in (verify_cross_tight, lagrange_residual, mcmullen_check):
        with pytest.raises(NotTightError):
            check(loose)
    with pytest.raises(ValueError, match="directions must match"):
        determinant_expansion_check(square, np.ones((3, 2)))
    with pytest.raises(InvalidFrameError, match="finite"):
        determinant_expansion_check(square, np.full((3, 3), np.nan))
    with pytest.raises(InvalidFrameError, match="span"):  # V + 1e-3 X drops a rank
        determinant_expansion_check(square, -1e3 * np.diag([1.0, 0.0, 0.0]))


def runs_by_block_size(monkeypatch, *args) -> list:
    """run_identity_trials(*args) with one frame per block, then every frame in one block."""
    runs = []
    for budget in (1, 10**6):
        monkeypatch.setattr(cli, "_BLOCK_ENTRIES", budget)
        runs.append(cli.run_identity_trials(*args))
    return runs


@pytest.mark.parametrize("trials", [1, 7, 9, 17])
@pytest.mark.parametrize("n, k", [(8, 4), (5, 5)])
def test_identity_trials_do_not_depend_on_the_block_size(monkeypatch, n, k, trials):
    single, whole = runs_by_block_size(monkeypatch, n, k, trials, 3)
    assert single == whole


def test_blocks_of_square_frames_round_like_single_frames(monkeypatch):
    # At n = k the level-k compound of each frame is one minor, taken for a whole block at once.
    single, whole = runs_by_block_size(monkeypatch, 5, 5, 17, 7)
    assert single == whole


def traced_peak_mib(*args) -> float:
    """tracemalloc peak of one run_identity_trials call."""
    tracemalloc.start()
    try:
        cli.run_identity_trials(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_identity_trial_blocks_keep_memory_small():
    cli.run_identity_trials(8, 4, 1, 0)  # builds the cached subset tables outside the trace
    # With every frame in one block the peak is about 2.2 MiB.
    assert traced_peak_mib(8, 4, 60, 123) < 1.0


def test_identity_trials_at_the_cost_cap_keep_memory_bounded():
    assert traced_peak_mib(14, 7, 5, 7) < 20.0
