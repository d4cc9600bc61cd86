"""Lexicographic ranking of index subsets and permutation merge signs.

Subsets of [n] = {1, ..., n} are kept strictly ascending and numbered by
their position in lexicographic order.  Every rank comes from the cached
lookup ``rank_table0``, built by enumerating the subsets in that order; the
rest of the package builds its minor/coefficient bookkeeping on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence


@dataclass(frozen=True)
class MultiIndex:
    """Strictly ascending subset of [n] = {1, ..., n}."""

    elements: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(int(e) for e in self.elements))
        object.__setattr__(self, "n", int(self.n))
        if self.n < 0:
            raise ValueError("ambient size must be nonnegative")
        prev = 0
        for e in self.elements:
            if e <= prev:
                raise ValueError(f"elements must be strictly ascending, got {self.elements}")
            prev = e
        if prev > self.n:
            raise ValueError(f"element {prev} exceeds ambient size n={self.n}")

    @property
    def level(self) -> int:
        return len(self.elements)

    def zero_based(self) -> tuple[int, ...]:
        return tuple(e - 1 for e in self.elements)


def merge_sign(left: MultiIndex | Sequence[int], right: MultiIndex | Sequence[int]) -> int:
    """Sign of the permutation sorting the concatenation left . right.

    Both arguments must be ascending and disjoint; the sign equals
    (-1) ** (number of inversions across the boundary).
    """
    a = left.elements if isinstance(left, MultiIndex) else tuple(left)
    b = right.elements if isinstance(right, MultiIndex) else tuple(right)
    if set(a) & set(b):
        raise ValueError(f"subsets overlap: {a} and {b}")
    inversions = sum(1 for x in a for y in b if x > y)
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def subsets0(n: int, level: int) -> tuple[tuple[int, ...], ...]:
    """All ``level``-subsets of range(n) in lex order (zero-based, cached)."""
    return tuple(combinations(range(n), level))


@lru_cache(maxsize=None)
def rank_table0(n: int, level: int) -> dict[tuple[int, ...], int]:
    """Zero-based subset -> lex rank lookup (cached)."""
    return {sub: r for r, sub in enumerate(subsets0(n, level))}


def multi_indices(n: int, level: int) -> Iterable[MultiIndex]:
    """All level-subsets of [n] as MultiIndex values, in lex (= rank) order."""
    for sub in subsets0(n, level):
        yield MultiIndex(tuple(e + 1 for e in sub), n)
