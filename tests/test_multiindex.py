from itertools import combinations

import numpy as np
import pytest

from framevol.multiindex import merge_sign, rank_table0, subsets0


def permutation_sign(sequence):
    """Oracle: sign of the permutation sorting ``sequence``, via its matrix determinant."""
    order = np.argsort(sequence, kind="stable")
    matrix = np.zeros((len(sequence), len(sequence)))
    matrix[np.arange(len(sequence)), order] = 1.0
    return round(float(np.linalg.det(matrix)))


@pytest.mark.parametrize(
    "elements, n, expected",
    [((1, 2), 4, 0), ((1, 3), 4, 1), ((3, 4), 4, 5), ((3,), 3, 2), ((), 5, 0)],
)
def test_rank_examples(elements, n, expected):
    zero_based = tuple(e - 1 for e in elements)
    assert rank_table0(n, len(elements))[zero_based] == expected


@pytest.mark.parametrize(
    "r, n, level, expected",
    [(0, 4, 2, (1, 2)), (5, 4, 2, (3, 4)), (2, 3, 1, (3,))],
)
def test_unrank_examples(r, n, level, expected):
    assert tuple(e + 1 for e in subsets0(n, level)[r]) == expected


def test_multi_indices_iterates_in_rank_order():
    assert subsets0(5, 3) == tuple(combinations(range(5), 3))
    assert all(rank_table0(5, 3)[sub] == r for r, sub in enumerate(subsets0(5, 3)))


@pytest.mark.parametrize(
    "left, right, n, expected",
    [((1,), (2, 3), 3, 1), ((2,), (1, 3), 3, -1), ((1, 2), (), 4, 1)],
)
def test_merge_sign_examples(left, right, n, expected):
    assert merge_sign(left, right) == expected


def test_merge_sign_matches_permutation_parity_exhaustively():
    n = 8
    universe = range(1, n + 1)
    for size_left in range(0, n + 1):
        for left in combinations(universe, size_left):
            rest = [e for e in universe if e not in left]
            for size_right in range(0, len(rest) + 1):
                for right in combinations(rest, size_right):
                    expected = permutation_sign(left + right)
                    assert merge_sign(left, right) == expected


def test_merge_sign_antisymmetry():
    n = 8
    for size_left in range(0, 5):
        for left in combinations(range(1, n + 1), size_left):
            rest = [e for e in range(1, n + 1) if e not in left]
            for right in combinations(rest, min(3, len(rest))):
                product = merge_sign(left, right) * merge_sign(right, left)
                assert product == (-1) ** (len(left) * len(right))


def test_merge_sign_rejects_overlap():
    with pytest.raises(ValueError):
        merge_sign((1, 2), (2, 3))



@pytest.mark.parametrize("elements, n", [((2, 1), 3), ((1, 1), 3), ((0,), 3), ((4,), 3)])
def test_multiindex_validation(elements, n):
    # Only strictly ascending subsets of [n] have a rank.
    with pytest.raises(KeyError):
        rank_table0(n, len(elements))[tuple(e - 1 for e in elements)]
