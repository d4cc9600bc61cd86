"""Exterior algebra over R^n and the frame identities built on it.

Forms are stored as coefficient vectors over the lex-ordered basis
{e_L : L an ascending subset}.  The module provides wedge coordinates,
compound (minor) matrices, the form inner product, the Hodge star pinned
by a ^ star(b) = <a, b> e_1 ^ ... ^ e_n, cross products, the per-vector
minor forms d_S(i), and residuals for the tight-frame identities
(cross-product tightness, unit decompositions at every level, the
volume identity P_I = sum of P_T over T containing I, and the
Lagrange/complement identity P_L = P_perp over the complementary set).

Every minor comes from one kernel, ``_minors``: the determinants of the
rows of an (n, k) array over its C(n, k) ascending k-subsets.  Wedge
coordinates and compounds are minors of a transpose, the cross product is
star(x_1 ^ ... ^ x_{k-1}), and det(v_i, v_J) is gathered from the subset
minors as (-1)^#{j in J : j < i} d(J u {i}).

Orientation convention: d_S(i) places the owner vector first, so its
coordinate at L is det(v_i, v_{l_1}, ..., v_{l_{k-1}}) with L ascending.
The sign vectors of the zonotope module share the convention, which makes
every inner product used downstream independent of the lex bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, fsum
from typing import Sequence

import numpy as np

from .frames import Frame, _require_tight, gram_projection
from .multiindex import MultiIndex, merge_sign, rank_table0, subsets0


@dataclass(frozen=True)
class Form:
    """Element of Lambda^level(R^n): C(n, level) coefficients in lex basis order."""

    n: int
    level: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if not 0 <= self.level <= self.n:
            raise ValueError(f"level must lie in [0, {self.n}], got {self.level}")
        arr = np.array(self.coeffs, dtype=float)
        expected = comb(self.n, self.level)
        if arr.shape != (expected,):
            raise ValueError(f"expected {expected} coefficients, got shape {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)


@dataclass(frozen=True)
class MinorVector:
    """The (k-1)-form d_S(i) of a frame together with its owner index (1-based)."""

    owner: int
    form: Form


@lru_cache(maxsize=None)
def _subset_array(n: int, level: int) -> np.ndarray:
    arr = np.array(subsets0(n, level), dtype=np.intp).reshape(comb(n, level), level)
    arr.flags.writeable = False
    return arr


def _minors(vectors: np.ndarray) -> np.ndarray:
    """d(L) = det(vectors[L]) over the ascending k-subsets L of the n rows.

    ``vectors`` is an (..., n, k) stack; the result is (..., C(n, k)) in lex
    order.  This is the package's one minor kernel.
    """
    n, k = vectors.shape[-2:]
    if k == 1:
        # np.linalg.det goes through exp(log|x|), which can move a 1 x 1 minor by an ulp.
        return vectors[..., 0].copy()
    return np.linalg.det(vectors[..., _subset_array(n, k), :])


@lru_cache(maxsize=None)
def _owner_table(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather table of det(v_i, v_J) = sign * d(J u {i}) over (k-1)-subsets J.

    Entry [i, rank J] holds the rank of J u {i} among the k-subsets and the
    sign (-1)^#{j in J : j < i}; both are 0 where i lies in J.
    """
    ranks = rank_table0(n, k - 1)
    where = np.zeros((n, comb(n, k - 1)), dtype=np.intp)
    signs = np.zeros((n, comb(n, k - 1)))
    for r, sub in enumerate(subsets0(n, k)):
        for p, i in enumerate(sub):
            c = ranks[sub[:p] + sub[p + 1 :]]
            where[i, c] = r
            signs[i, c] = -1.0 if p % 2 else 1.0
    where.flags.writeable = False
    signs.flags.writeable = False
    return where, signs


@lru_cache(maxsize=None)
def _hodge_table(n: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-rank complement rank and merge sign realizing the Hodge star."""
    ranks = rank_table0(n, n - level)
    everything = set(range(n))
    perm = np.empty(comb(n, level), dtype=np.intp)
    signs = np.empty(comb(n, level))
    for r, sub in enumerate(subsets0(n, level)):
        complement = tuple(sorted(everything - set(sub)))
        perm[r] = ranks[complement]
        signs[r] = merge_sign(sub, complement)
    perm.flags.writeable = False
    signs.flags.writeable = False
    return perm, signs


def wedge_coordinates(vectors: Sequence | np.ndarray, n: int | None = None) -> Form:
    """x_1 ^ ... ^ x_l as a Form: the coordinate at L is the minor det(x_i[L]).

    ``vectors`` are rows of an (l, n) array; ``n`` may be given explicitly
    for the degenerate l = 0 case.
    """
    arr = np.asarray(vectors, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.size == 0:
        if n is None and arr.ndim == 2 and arr.shape[1] > 0:
            n = arr.shape[1]
        if n is None:
            raise ValueError("ambient dimension required for an empty wedge")
        return Form(n, 0, np.ones(1))
    ell, ambient = arr.shape
    if n is not None and n != ambient:
        raise ValueError(f"vectors live in R^{ambient}, not R^{n}")
    if ell > ambient:
        raise ValueError(f"cannot wedge {ell} vectors in R^{ambient}")
    return Form(ambient, ell, _minors(arr.T))


def compound_matrix(matrix: np.ndarray, level: int) -> np.ndarray:
    """Matrix of all level x level minors, rows/columns in lex subset order.

    Entry [rank I, rank J] is det(M[I, J]); this is the matrix of the
    level-th exterior power, so compounds multiply (Cauchy-Binet).
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    a, b = m.shape
    if not 0 <= level <= min(a, b):
        raise ValueError(f"level must lie in [0, {min(a, b)}], got {level}")
    rows = _subset_array(a, level)
    cols = comb(b, level)
    out = np.empty((len(rows), cols))
    # Row-chunked so the materialized minor stack stays bounded.
    chunk = max(1, 2_000_000 // max(1, cols * level * level))
    for start in range(0, len(rows), chunk):
        samples = m[rows[start : start + chunk]]  # (c, level, b)
        out[start : start + chunk] = _minors(np.swapaxes(samples, 1, 2))
    return out


def form_inner(a: Form, b: Form) -> float:
    """Inner product of forms; agrees with det[<a_i, b_j>] on decomposables."""
    if (a.n, a.level) != (b.n, b.level):
        raise ValueError(
            f"form shape mismatch: ({a.n}, {a.level}) vs ({b.n}, {b.level})"
        )
    return float(a.coeffs @ b.coeffs)


def hodge_star(w: Form) -> Form:
    """The isometry pinned by a ^ star(b) = <a, b> e_1 ^ ... ^ e_n."""
    perm, signs = _hodge_table(w.n, w.level)
    out = np.zeros(comb(w.n, w.n - w.level))
    out[perm] = signs * w.coeffs
    return Form(w.n, w.n - w.level, out)


def wedge_forms(a: Form, b: Form) -> Form:
    """Bilinear wedge product of two forms (e_I ^ e_Q = merge sign times e_{I u Q})."""
    if a.n != b.n:
        raise ValueError(f"ambient mismatch: {a.n} vs {b.n}")
    level = a.level + b.level
    if level > a.n:
        raise ValueError(f"wedge level {level} exceeds ambient {a.n}")
    subs_a = subsets0(a.n, a.level)
    subs_b = subsets0(b.n, b.level)
    ranks = rank_table0(a.n, level)
    out = np.zeros(comb(a.n, level))
    for ra in np.nonzero(a.coeffs)[0]:
        left = subs_a[ra]
        left_set = set(left)
        ca = a.coeffs[ra]
        for rb in np.nonzero(b.coeffs)[0]:
            right = subs_b[rb]
            if left_set & set(right):
                continue
            merged = tuple(sorted(left + right))
            out[ranks[merged]] += ca * b.coeffs[rb] * merge_sign(left, right)
    return Form(a.n, level, out)


def cross_product(vectors: Sequence | np.ndarray) -> np.ndarray:
    """Cross product of k-1 vectors in R^k: <x, y> = det(x_1, ..., x_{k-1}, y).

    Computed as star(x_1 ^ ... ^ x_{k-1}); degenerate input yields the
    zero vector.
    """
    arr = np.asarray(vectors, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    m, k = arr.shape
    if k < 2:
        raise ValueError("cross products need ambient dimension k >= 2")
    if m != k - 1:
        raise ValueError(f"expected {k - 1} vectors in R^{k}, got {m}")
    return hodge_star(wedge_coordinates(arr)).coeffs.copy()


def _owner_first_minors(minors: np.ndarray, n: int, k: int) -> np.ndarray:
    """D[i, r] = det(v_i, v_{J_r}) with the owner row first; zero when i is in J_r.

    Gathered from the subset minors d(L) of the frame (``minors``).
    """
    where, signs = _owner_table(n, k)
    return signs * minors[where]


def minor_vector(frame: Frame, i: int) -> MinorVector:
    """The (k-1)-form d_S(i): coordinate at L is det(v_i, v_L), zero when i in L."""
    if not 1 <= i <= frame.n:
        raise ValueError(f"owner index {i} out of [1, {frame.n}]")
    minors = _owner_first_minors(subset_minors(frame), frame.n, frame.k)
    return MinorVector(owner=i, form=Form(frame.n, frame.k - 1, minors[i - 1]))


@lru_cache(maxsize=128)
def subset_minors(frame: Frame) -> np.ndarray:
    """d_S(L) = det of the frame vectors over every ascending k-subset L.

    Cached per (immutable) frame object; the returned array is read-only.
    """
    minors = _minors(frame.vectors)
    minors.flags.writeable = False
    return minors


def verify_cross_tight(frame: Frame) -> float:
    """Residual of Theorem-of-cross-products tightness at every (k-1)-tuple.

    Returns || sum_J [v_J] (x) [v_J] - I_k ||_F over ascending J; zero (to
    rounding) exactly when the frame is tight.
    """
    _require_tight(frame)
    # [v_J] is the Hodge star of row J of the (k-1)-compound, the wedge of v_J.
    perm, signs = _hodge_table(frame.k, frame.k - 1)
    crosses = np.empty((comb(frame.n, frame.k - 1), frame.k))
    crosses[:, perm] = signs * compound_matrix(frame.vectors, frame.k - 1)
    return float(np.linalg.norm(crosses.T @ crosses - np.eye(frame.k)))


def unit_decomposition_residual(frame: Frame, level: int) -> float:
    """Residual of the level-wedge unit decomposition of a tight frame.

    The wedge coordinates w_L of (v_i) over L, taken in the standard basis
    of Lambda^level(R^k), must satisfy sum_L w_L (x) w_L = identity.
    """
    _require_tight(frame)
    if not 1 <= level <= frame.k:
        raise ValueError(f"level must lie in [1, {frame.k}], got {level}")
    w = compound_matrix(frame.vectors, level)
    return float(np.linalg.norm(w.T @ w - np.eye(comb(frame.k, level))))


def volume_identity_residual(frame: Frame, index: MultiIndex) -> float:
    """Residual of P_I = sum of P_T over k-subsets T containing I.

    P_M is the Gram determinant of (v_i) over M; for |M| = k it equals the
    squared minor d_S(M)^2.
    """
    _require_tight(frame)
    n, k = frame.n, frame.k
    if index.n != n:
        raise ValueError(f"index ambient {index.n} does not match frame n={n}")
    if index.level > k:
        raise ValueError(f"index size {index.level} exceeds k={k}")
    rows = list(index.zero_based())
    sub = frame.vectors[rows]
    gram_det = float(np.linalg.det(sub @ sub.T))
    dets = subset_minors(frame)
    containing = (_subset_array(n, k)[:, :, None] == rows).any(axis=1).all(axis=1)
    total = fsum(d * d for d in dets[containing])
    return abs(gram_det - total)


def lagrange_residual(frame: Frame, index: MultiIndex) -> float:
    """Residual of the Lagrange identity P_L = P_perp over [n] minus L.

    The k x k minor of the Gram projection at L equals the complementary
    (n-k) x (n-k) minor of I_n - P; requires n > k.
    """
    if frame.n == frame.k:
        raise ValueError("Lagrange identity needs n > k")
    if index.n != frame.n or index.level != frame.k:
        raise ValueError(
            f"expected a {frame.k}-subset of [{frame.n}], got level {index.level} of [{index.n}]"
        )
    proj = gram_projection(frame)
    rows = list(index.zero_based())
    complement = sorted(set(range(frame.n)) - set(rows))
    p_l = float(np.linalg.det(proj[np.ix_(rows, rows)]))
    perp = np.eye(frame.n) - proj
    p_perp = float(np.linalg.det(perp[np.ix_(complement, complement)]))
    return abs(p_l - p_perp)


@lru_cache(maxsize=None)
def hodge_defining_residual(
    n: int, exhaustive_limit: int = 20_000, seed: int = 0, dense_trials: int = 4
) -> float:
    """Max deviation of a ^ star(b) = <a, b> e_[n] over form pairs in R^n.

    Basis pairs are checked exhaustively per level while C(n, level)^2 stays
    under ``exhaustive_limit``; beyond that all diagonal pairs plus a seeded
    sample of off-diagonal pairs are used.  Seeded dense random forms are
    checked at every level.  The left side goes through the generic wedge
    product, so the check is independent of the star's internal table.
    """
    rng = np.random.default_rng(seed)
    top = comb(n, n) - 1  # rank of e_[n] in the one-dimensional top level
    worst = 0.0
    for level in range(n + 1):
        count = comb(n, level)
        basis = np.eye(count)

        def pair_residual(ra: int, rb: int) -> float:
            a = Form(n, level, basis[ra])
            b = Form(n, level, basis[rb])
            left = wedge_forms(a, hodge_star(b)).coeffs[top]
            return abs(left - (1.0 if ra == rb else 0.0))

        if count * count <= exhaustive_limit:
            pairs = ((ra, rb) for ra in range(count) for rb in range(count))
        else:
            sampled = zip(
                rng.integers(0, count, size=exhaustive_limit),
                rng.integers(0, count, size=exhaustive_limit),
            )
            pairs = [(r, r) for r in range(count)] + [(int(a), int(b)) for a, b in sampled]
        for ra, rb in pairs:
            worst = max(worst, pair_residual(ra, rb))

        for _ in range(dense_trials):
            a = Form(n, level, rng.standard_normal(count))
            b = Form(n, level, rng.standard_normal(count))
            left = wedge_forms(a, hodge_star(b)).coeffs[top]
            worst = max(worst, abs(left - form_inner(a, b)))
    return worst
