from itertools import combinations, permutations
from math import pi, sqrt

import numpy as np
import pytest

from framevol.exterior import _minors, _subset_array, minor_vector
from framevol.frames import Frame, TightFrame, random_tight_frame, whiten
from framevol.zonotope import (
    ZERO_MINOR_REL,
    DegenerateFrameError,
    _sign_matrix,
    bounds,
    first_order_residual,
    hyperplane_projection_volume,
    mcmullen_check,
    sign_vector,
    unit_ball_volume,
    volume,
)

DIAGONAL_PAIR = TightFrame([[1.0 / sqrt(2.0)], [1.0 / sqrt(2.0)]])


def brute_volume(vectors):
    """Oracle: Shephard sum with per-subset numpy determinants."""
    arr = np.asarray(vectors, dtype=float)
    n, k = arr.shape
    return sum(abs(np.linalg.det(arr[list(sub)])) for sub in combinations(range(n), k))


# ---------------------------------------------------------------- volume


def test_volume_unit_cube():
    assert volume(Frame(np.eye(3))) == pytest.approx(1.0)


def test_volume_mercedes(mercedes):
    assert volume(mercedes) == pytest.approx(sqrt(3.0), abs=1e-14)


def test_volume_diagonal_pair():
    assert volume(DIAGONAL_PAIR) == pytest.approx(sqrt(2.0), abs=1e-15)


def test_volume_matches_brute_force(rng):
    for n, k in [(5, 2), (6, 3), (7, 4)]:
        frame = Frame(rng.standard_normal((n, k)))
        assert volume(frame) == pytest.approx(brute_volume(frame.vectors), rel=1e-12)


def test_volume_permutation_and_sign_invariance(rng):
    frame = Frame(rng.standard_normal((5, 3)))
    reference = volume(frame)
    for perm in list(permutations(range(5)))[:10]:
        assert volume(Frame(frame.vectors[list(perm)])) == pytest.approx(reference, rel=1e-12)
    signs = rng.choice([-1.0, 1.0], size=(5, 1))
    assert volume(Frame(frame.vectors * signs)) == pytest.approx(reference, rel=1e-12)


def test_volume_scales_with_determinant(rng):
    for _ in range(5):
        frame = Frame(rng.standard_normal((6, 3)))
        linear = rng.standard_normal((3, 3))
        mapped = Frame(frame.vectors @ linear.T)
        expected = abs(np.linalg.det(linear)) * volume(frame)
        assert volume(mapped) == pytest.approx(expected, rel=1e-9)


def test_tight_volume_respects_binomial_bound(rng):
    for n, k in [(5, 2), (7, 3), (8, 5)]:
        frame = random_tight_frame(n, k, rng)
        assert volume(frame) <= bounds(n, k).binomial + 1e-9


# ---------------------------------------------------------------- sign vectors


def test_sign_vector_standard_basis():
    frame = TightFrame(np.eye(2))
    sigma = sign_vector(frame, 1)
    np.testing.assert_array_equal(sigma.form.coeffs, [0.0, 1.0])
    assert sigma.volume == pytest.approx(1.0)


def test_sign_vector_mercedes(mercedes):
    sigma = sign_vector(mercedes, 1)
    np.testing.assert_allclose(
        np.abs(sigma.form.coeffs), [0.0, 1.0 / sqrt(3.0), 1.0 / sqrt(3.0)], atol=1e-14
    )


def test_sign_vector_flips_with_negation(mercedes):
    flipped_vectors = mercedes.vectors.copy()
    flipped_vectors[0] *= -1.0
    flipped = TightFrame(flipped_vectors)
    np.testing.assert_allclose(
        sign_vector(flipped, 1).form.coeffs, -sign_vector(mercedes, 1).form.coeffs
    )


def test_sign_vector_zero_minor_coordinates():
    # duplicated direction: the minor of the duplicate pair is exactly zero
    frame = whiten(Frame([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))[1]
    sigma = sign_vector(frame, 1)
    subsets = list(combinations(range(1, 4), 1))
    assert sigma.form.coeffs[subsets.index((2,))] == 0.0


def test_sign_snap_matches_determinant_minors_near_threshold():
    # Tight frames with one nearly dependent k-subset, so minors straddle the snap.
    rng = np.random.default_rng(11)
    snapped = kept = 0
    for _ in range(500):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(k + 1, 11))
        vectors = rng.standard_normal((n, k))
        rows = rng.choice(n, size=k, replace=False)
        eps = 10.0 ** rng.uniform(-13.5, -10.5)
        vectors[rows[-1]] = rng.standard_normal(k - 1) @ vectors[rows[:-1]]
        vectors[rows[-1]] += eps * rng.standard_normal(k)
        frame = TightFrame(np.linalg.qr(vectors)[0])
        minors = _minors(frame.vectors)
        expected = np.linalg.det(frame.vectors[_subset_array(n, k)])
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(minors - expected)) <= 1e-14 * scale
        # Minors within 1e-14 * max of the threshold may snap either way.
        clear = np.abs(np.abs(expected) - ZERO_MINOR_REL * scale) > 1e-14 * scale
        np.testing.assert_array_equal(_sign_matrix(minors)[clear], _sign_matrix(expected)[clear])
        small = np.abs(expected) < 1e-10 * scale
        snapped += np.sum(small & (np.abs(expected) < ZERO_MINOR_REL * scale))
        kept += np.sum(small & (np.abs(expected) >= ZERO_MINOR_REL * scale))
    assert snapped >= 100 and kept >= 100


def test_sigma_against_own_minor_vector(rng):
    # <sigma(i), d(i)> equals the absolute cofactor sum over F and is nonnegative
    from framevol.exterior import form_inner

    frame = random_tight_frame(5, 2, rng)
    for i in (1, 3, 5):
        sigma = sign_vector(frame, i)
        minors = minor_vector(frame, i)
        inner = form_inner(sigma.form, minors)
        expected = float(np.sum(np.abs(minors.coeffs))) / sigma.volume
        assert inner == pytest.approx(expected, rel=1e-12)
        assert inner >= 0.0


# ---------------------------------------------------------------- first-order residual


def test_first_order_residual_standard_basis():
    assert first_order_residual(TightFrame(np.eye(3))) == pytest.approx(0.0, abs=1e-15)


def test_first_order_residual_mercedes(mercedes):
    assert first_order_residual(mercedes) < 1e-12


def test_first_order_residual_generic_frame_is_positive():
    frame = random_tight_frame(5, 2, seed=3)
    residual = first_order_residual(frame)
    assert np.isfinite(residual)
    assert residual > 1e-3  # generic random frames are far from critical


# ---------------------------------------------------------------- hyperplane projections


def test_hyperplane_projection_standard_basis():
    assert hyperplane_projection_volume(TightFrame(np.eye(2)), 1) == pytest.approx(1.0)


def test_hyperplane_projection_mercedes(mercedes):
    expected = sqrt(2.0 / 3.0) * sqrt(3.0)  # |v_1| F at the maximizer
    assert hyperplane_projection_volume(mercedes, 1) == pytest.approx(expected, abs=1e-12)


def test_hyperplane_projection_matches_cofactor_sum(rng):
    for n, k in [(5, 2), (6, 3), (5, 4)]:
        frame = Frame(rng.standard_normal((n, k)))
        for i in (1, n):
            direct = hyperplane_projection_volume(frame, i)
            norms = np.linalg.norm(frame.vectors[i - 1])
            cofactor = np.sum(np.abs(minor_vector(frame, i).coeffs)) / norms
            assert direct == pytest.approx(cofactor, rel=1e-10)
            # Any orthonormal basis of v_i^perp gives the same volume: here the SVD's.
            basis = np.linalg.svd(frame.vectors[i - 1][None, :])[2][1:].T
            assert direct == pytest.approx(brute_volume(frame.vectors @ basis), rel=1e-14)


def test_hyperplane_projection_line_case():
    # k = 1: v_i^perp is {0}, and the one empty minor of the n x 0 projection gives 1.
    assert hyperplane_projection_volume(DIAGONAL_PAIR, 1) == 1.0


def test_hyperplane_projection_zero_direction():
    frame = Frame([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(DegenerateFrameError):
        hyperplane_projection_volume(frame, 3)


def test_hyperplane_projection_tiny_direction():
    # The norm of (1e-170, 0) underflows to 0, but the direction is not zero.
    frame = Frame([[1e-170, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert hyperplane_projection_volume(frame, 1) == 2.0


# ---------------------------------------------------------------- McMullen duality


def test_mcmullen_diagonal_pair():
    check = mcmullen_check(DIAGONAL_PAIR)
    assert check.volume == pytest.approx(sqrt(2.0), abs=1e-14)
    assert check.dual_volume == pytest.approx(sqrt(2.0), abs=1e-14)


def test_mcmullen_mercedes(mercedes):
    check = mcmullen_check(mercedes)
    assert check.dual_volume == pytest.approx(sqrt(3.0), abs=1e-12)
    assert check.gap < 1e-12


def test_mcmullen_random(rng):
    assert mcmullen_check(random_tight_frame(8, 3, rng)).gap < 1e-9


# ---------------------------------------------------------------- bounds


def test_bounds_values():
    assert bounds(3, 2).binomial == pytest.approx(sqrt(3.0))
    assert bounds(2, 1).binomial == pytest.approx(sqrt(2.0))
    pair = bounds(4, 2)
    assert pair.binomial == pytest.approx(sqrt(6.0))
    assert pair.ball == pytest.approx(8.0 / pi)  # (w_1^2 / w_2) * (4/2)


def test_unit_ball_volumes():
    assert unit_ball_volume(0) == pytest.approx(1.0)
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * pi / 3.0)


def test_bounds_validation():
    with pytest.raises(ValueError):
        bounds(2, 3)

