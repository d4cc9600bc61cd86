"""Exterior algebra over R^n and the frame identities built on it.

Forms are stored as coefficient vectors over the lex-ordered basis
{e_L : L an ascending subset}.  The module provides wedge coordinates,
compound (minor) matrices, the form inner product, the Hodge star pinned
by a ^ star(b) = <a, b> e_1 ^ ... ^ e_n, cross products, the per-vector
minor forms d_S(i), and residuals for the tight-frame identities
(cross-product tightness, unit decompositions at every level, the
volume identity P_I = sum of P_T over T containing I, and the
Lagrange/complement identity P_L = P_perp over the complementary set).
Each identity has one private kernel, from an (m, n, k) stack of frames to
their m residuals; its per-frame function calls it on a stack of one, the CLI
trials on blocks, and a frame reads the same residual bit for bit either way.

Every minor comes from one kernel, ``_minors``: the determinants of the
rows of an (n, k) array over its C(n, k) ascending k-subsets, for a lone
frame or each frame of a stack alike.  They are the coordinates of
c_1 ^ ... ^ c_k for the columns c_j, built one column at a time by Laplace
expansion, with no LU factorization.  Wedge coordinates and compounds are
minors of a transpose, the cross product is star(x_1 ^ ... ^ x_{k-1}), and
det(v_i, v_J) is gathered from the subset minors as
(-1)^#{j in J : j < i} d(J u {i}).

Subset tables come from ``_subset_array`` and closed forms, never from a
rank lookup: complementation reverses lex order, so the star is a sign
times a reversal, and ``_lex_rank`` ranks stacks of subsets arithmetically.
``_laplace_table`` ranks the faces L minus l_p of every k-subset once; its
flat index is also the owner slot of L, so the owner-first gather table is
scattered from it.

Orientation convention: d_S(i) places the owner vector first, so its
coordinate at L is det(v_i, v_{l_1}, ..., v_{l_{k-1}}) with L ascending.
The sign vectors of the zonotope module share the convention, which makes
every inner product used downstream independent of the lex bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from math import comb, fsum, prod
from typing import Sequence

import numpy as np

from .frames import EmptyComplementError, Frame, _require_tight

# Dense random forms per level checked by hodge_defining_residual.
_HODGE_DENSE_TRIALS = 4


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


@lru_cache(maxsize=None)
def _subset_array(n: int, level: int) -> np.ndarray:
    """The ascending ``level``-subsets of range(n) as rows, in lex order."""
    # Streamed: a list of C(n, level) tuples would leave the process holding its pools.
    flat = chain.from_iterable(combinations(range(n), level))
    arr = np.fromiter(flat, dtype=np.intp, count=comb(n, level) * level)
    arr = arr.reshape(comb(n, level), level)
    arr.flags.writeable = False
    return arr


def _lex_rank(rows: np.ndarray, n: int) -> np.ndarray:
    """Lex rank among the m-subsets of range(n) of each ascending row of an (..., m) stack.

    C(n-1-c_p, m-p) subsets follow c in lex order by first differing at
    position p, so rank(c) = C(n, m) - 1 - sum_p C(n-1-c_p, m-p).
    """
    m = rows.shape[-1]
    pascal = np.array([[comb(a, b) for b in range(m + 1)] for a in range(n)], dtype=np.intp)
    later = pascal[n - 1 - rows, m - np.arange(m)].sum(axis=-1)
    return comb(n, m) - 1 - later


@lru_cache(maxsize=None)
def _laplace_table(n: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat gather index into the (n, C(n, j-1)) products and the Laplace signs.

    Entry [r, p] is l_p * C(n, j-1) + rank(L_r minus l_p); sign p is (-1)^(p+j-1).
    """
    subsets = _subset_array(n, j)
    # drop[p] lists the positions kept when position p leaves a j-subset.
    drop = np.arange(j - 1) + (np.arange(j - 1) >= np.arange(j)[:, None])
    flat = subsets * comb(n, j - 1) + _lex_rank(subsets[:, drop], n)
    signs = np.where((np.arange(j) + j - 1) % 2, -1.0, 1.0)
    flat.flags.writeable = False
    signs.flags.writeable = False
    return flat, signs


def _minors(vectors: np.ndarray) -> np.ndarray:
    """d(L) = det(vectors[L]) over the ascending k-subsets L of the n rows.

    ``vectors`` is an (..., n, k) stack; the result is (..., C(n, k)) in lex
    order.  This is the package's one minor kernel.  The minors over the
    first j columns are the coordinates of c_1 ^ ... ^ c_j, so each level
    follows from the last by Laplace expansion along column j-1:
    d_j(L) = sum_p (-1)^(p+j-1) V[l_p, j-1] d_(j-1)(L minus l_p).
    ``take`` gathers C-contiguous terms, so a stack rounds like its frames alone.
    """
    *lead, n, k = vectors.shape
    if k == 0:
        return np.ones((*lead, 1))
    minors = vectors[..., 0].copy()
    for j in range(2, k + 1):
        flat, signs = _laplace_table(n, j)
        products = vectors[..., j - 1, None] * minors[..., None, :]
        minors = products.reshape(*lead, n * comb(n, j - 1)).take(flat, axis=-1) @ signs
    return minors


@lru_cache(maxsize=None)
def _owner_table(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather table of det(v_i, v_J) = sign * d(J u {i}) over (k-1)-subsets J.

    Entry [i, rank J] holds the rank of J u {i} among the k-subsets and the
    sign (-1)^#{j in J : j < i}; both are 0 where i lies in J.  The Laplace
    index of (L_r, p) is exactly the slot [l_p, rank(L_r minus l_p)].
    """
    flat = _laplace_table(n, k)[0]
    where = np.zeros((n, comb(n, k - 1)), dtype=np.intp)
    signs = np.zeros((n, comb(n, k - 1)))
    where.reshape(-1)[flat] = np.arange(len(flat))[:, None]
    signs.reshape(-1)[flat] = np.where(np.arange(k) % 2, -1.0, 1.0)
    where.flags.writeable = False
    signs.flags.writeable = False
    return where, signs


@lru_cache(maxsize=None)
def _star_signs(n: int, level: int) -> np.ndarray:
    """Sign of the permutation I . I^c per level-subset I: (-1)^(sum I - C(level, 2)).

    Element i_p of I (zero-based) precedes the i_p - p smaller elements of I^c.
    """
    inversions = _subset_array(n, level).sum(axis=1) - comb(level, 2)
    signs = np.where(inversions % 2, -1.0, 1.0)
    signs.flags.writeable = False
    return signs


def _star(coeffs: np.ndarray, n: int, level: int) -> np.ndarray:
    """Hodge star of a (..., C(n, level)) stack of level-form coefficients.

    I^c of the r-th level-subset is the (C-1-r)-th (n-level)-subset, so the
    star is a sign per subset followed by a reversal.
    """
    # Reversing the factors, not the product, yields a contiguous array; a
    # negative-stride view would change how a later matmul rounds.
    return _star_signs(n, level)[::-1] * coeffs[..., ::-1]


def wedge_coordinates(vectors: Sequence | np.ndarray) -> Form:
    """x_1 ^ ... ^ x_l as a Form: the coordinate at L is the minor det(x_i[L]).

    ``vectors`` are rows of an (l, n) array.
    """
    arr = np.asarray(vectors, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    ell, ambient = arr.shape
    if ell > ambient:
        raise ValueError(f"cannot wedge {ell} vectors in R^{ambient}")
    return Form(ambient, ell, _minors(arr.T))


def compound_matrix(matrix: np.ndarray, level: int) -> np.ndarray:
    """Matrix of all level x level minors, rows/columns in lex subset order.

    Entry [rank I, rank J] is det(M[I, J]); this is the matrix of the
    level-th exterior power, so compounds multiply (Cauchy-Binet).  An
    (..., a, b) stack gives the compound of each of its matrices.
    """
    stack = np.asarray(matrix, dtype=float)
    if stack.ndim < 2:
        raise ValueError("expected a 2-d matrix or a stack of them")
    a, b = stack.shape[-2:]
    if not 0 <= level <= min(a, b):
        raise ValueError(f"level must lie in [0, {min(a, b)}], got {level}")
    rows = _subset_array(a, level)
    out = np.empty(stack.shape[:-2] + (len(rows), comb(b, level)))
    # Row-chunked so the recursion's temporaries stay bounded: per row, level j
    # holds b * C(b, j-1) products and the j * C(b, j) terms gathered from them.
    per_row = max((b * comb(b, j - 1) + j * comb(b, j) for j in range(2, level + 1)), default=1)
    chunk = max(1, 2_000_000 // (per_row * max(1, prod(stack.shape[:-2]))))
    for start in range(0, len(rows), chunk):
        samples = stack[..., rows[start : start + chunk], :]  # (..., c, level, b)
        out[..., start : start + chunk, :] = _minors(np.swapaxes(samples, -1, -2))
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
    return Form(w.n, w.n - w.level, _star(w.coeffs, w.n, w.level))


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


def minor_vector(frame: Frame, i: int) -> Form:
    """The (k-1)-form d_S(i): coordinate at L is det(v_i, v_L), zero when i in L."""
    if not 1 <= i <= frame.n:
        raise ValueError(f"owner index {i} out of [1, {frame.n}]")
    minors = _owner_first_minors(subset_minors(frame), frame.n, frame.k)
    return Form(frame.n, frame.k - 1, minors[i - 1])


def subset_minors(frame: Frame) -> np.ndarray:
    """d_S(L) = det of the frame vectors over every ascending k-subset L."""
    return _minors(frame.vectors)


def _gram_defect(w: np.ndarray) -> np.ndarray:
    """||w^T w - I||_F of each matrix of an (m, a, b) stack, summed as np.linalg.norm sums one."""
    defect = (np.swapaxes(w, 1, 2) @ w - np.eye(w.shape[-1])).reshape(len(w), 1, -1)
    return np.sqrt((defect @ np.swapaxes(defect, 1, 2))[:, 0, 0])


def verify_cross_tight(frame: Frame) -> float:
    """Residual of Theorem-of-cross-products tightness at every (k-1)-tuple.

    Returns || sum_J [v_J] (x) [v_J] - I_k ||_F over ascending J; zero (to
    rounding) exactly when the frame is tight.
    """
    _require_tight(frame)
    return float(_cross_tight(frame.vectors[None])[0])


def _cross_tight(vectors: np.ndarray) -> np.ndarray:
    """verify_cross_tight of each frame of an (m, n, k) stack."""
    k = vectors.shape[-1]
    # [v_J] is the Hodge star of row J of the (k-1)-compound, the wedge of v_J.
    return _gram_defect(_star(compound_matrix(vectors, k - 1), k, k - 1))


def unit_decomposition_residual(frame: Frame, level: int) -> float:
    """Residual of the level-wedge unit decomposition of a tight frame.

    The wedge coordinates w_L of (v_i) over L, taken in the standard basis
    of Lambda^level(R^k), must satisfy sum_L w_L (x) w_L = identity.
    """
    _require_tight(frame)
    if not 1 <= level <= frame.k:
        raise ValueError(f"level must lie in [1, {frame.k}], got {level}")
    return float(_unit_decomposition(frame.vectors[None], level)[0])


def _unit_decomposition(vectors: np.ndarray, level: int) -> np.ndarray:
    """unit_decomposition_residual of each frame of an (m, n, k) stack."""
    return _gram_defect(compound_matrix(vectors, level))


def volume_identity_residual(frame: Frame, size: int) -> float:
    """Max residual of P_I = sum of P_T over k-subsets T containing I, over |I| = size.

    P_M is the Gram determinant of (v_i) over M; for |M| = k it equals the
    squared minor d_S(M)^2.  Each sum is exactly rounded (fsum).
    """
    _require_tight(frame)
    if not 0 <= size <= frame.k:
        raise ValueError(f"index size must lie in [0, {frame.k}], got {size}")
    return float(_volume_identity(frame.vectors[None], size)[0])


def _volume_identity(vectors: np.ndarray, size: int) -> np.ndarray:
    """volume_identity_residual of each frame of an (m, n, k) stack."""
    n, k = vectors.shape[1:]
    rows = _subset_array(n, size)
    sub = vectors[:, rows]  # (m, C(n, size), size, k)
    gram_dets = np.linalg.det(sub @ np.swapaxes(sub, -1, -2))
    member = (_subset_array(n, k)[:, :, None] == np.arange(n)).any(axis=1)  # (C(n, k), n)
    # Row r: the C(n - size, k - size) k-subsets that hold the r-th size-subset.
    tops = np.nonzero(member[:, rows].all(axis=2).T)[1].reshape(len(rows), -1)
    squares = _minors(vectors) ** 2
    totals = [[fsum(terms) for terms in frame] for frame in squares[:, tops].tolist()]
    return np.max(np.abs(gram_dets - totals), axis=1)


def lagrange_residual(frame: Frame) -> float:
    """Max residual of the Lagrange identity P_L = P_perp over [n] minus L, over all L.

    The k x k minor of the Gram projection at L equals the complementary
    (n-k) x (n-k) minor of I_n - P; requires n > k.  Complementation reverses
    lex order, so the r-th k-subset pairs with the (C-1-r)-th (n-k)-subset.
    """
    if frame.n == frame.k:
        raise EmptyComplementError("Lagrange identity needs n > k")
    _require_tight(frame)
    return float(_lagrange(frame.vectors[None])[0])


def _lagrange(vectors: np.ndarray) -> np.ndarray:
    """lagrange_residual of each frame of an (m, n, k) stack with n > k."""
    n, k = vectors.shape[1:]
    proj = vectors @ np.swapaxes(vectors, 1, 2)  # the Gram projections
    rows, complement = _subset_array(n, k), _subset_array(n, n - k)[::-1]
    p_l = np.linalg.det(proj[:, rows[:, :, None], rows[:, None, :]])
    perp = np.eye(n) - proj
    p_perp = np.linalg.det(perp[:, complement[:, :, None], complement[:, None, :]])
    return np.max(np.abs(p_l - p_perp), axis=1)


def hodge_defining_residual(n: int) -> float:
    """Max deviation of a ^ star(b) = <a, b> e_[n] over every level of R^n.

    Only e_{I^c} pairs with e_I into the top degree, with the sign of the
    permutation I . I^c, so the identity for every basis a = e_I at once
    reads pairing * star(b)[C-1-r] = b[r].  Any wrong signed permutation
    fails on the ramp b[r] = r + 1, by >= 2 for a flipped sign and >= 1 for a
    misplaced entry; seeded dense forms b catch any other wrong linear map.
    The pairing signs are permutation-matrix determinants, never the star's
    sign formula, so the check is independent of it.
    """
    rng = np.random.default_rng(0)
    worst = 0.0
    for level in range(n + 1):
        count = comb(n, level)
        order = np.hstack([_subset_array(n, level), _subset_array(n, n - level)[::-1]])
        pairing = np.linalg.det(np.eye(n)[order])  # exactly +-1, or 0 if not a permutation
        dense = rng.standard_normal((_HODGE_DENSE_TRIALS, count))
        forms = np.vstack([np.arange(1.0, count + 1), dense])
        star = _star(forms, n, level)[:, ::-1]
        worst = max(worst, float(np.max(np.abs(pairing * star - forms))))
    return worst
