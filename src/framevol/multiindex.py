"""Lexicographic ranking of index subsets and permutation merge signs.

Subsets of [n] = {1, ..., n} are kept strictly ascending and numbered by
their position in lexicographic order.  Every rank comes from the cached
lookup ``rank_table0``, built by enumerating the subsets in that order; the
rest of the package builds its minor/coefficient bookkeeping on top of it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Sequence


def merge_sign(left: Sequence[int], right: Sequence[int]) -> int:
    """Sign of the permutation sorting the concatenation left . right.

    Both arguments must be ascending and disjoint; the sign equals
    (-1) ** (number of inversions across the boundary).
    """
    if set(left) & set(right):
        raise ValueError(f"subsets overlap: {tuple(left)} and {tuple(right)}")
    inversions = sum(1 for x in left for y in right if x > y)
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def subsets0(n: int, level: int) -> tuple[tuple[int, ...], ...]:
    """All ``level``-subsets of range(n) in lex order (zero-based, cached)."""
    return tuple(combinations(range(n), level))


@lru_cache(maxsize=None)
def rank_table0(n: int, level: int) -> dict[tuple[int, ...], int]:
    """Zero-based subset -> lex rank lookup (cached)."""
    return {sub: r for r, sub in enumerate(subsets0(n, level))}

