"""Frames and tight frames in R^k.

A frame is an ordered set of n spanning vectors of R^k, stored as the rows
of an (n, k) array.  A tight frame additionally satisfies
sum_i v_i v_i^T = I_k; equivalently its k x n matrix is a sub-matrix of an
orthogonal matrix of order n.  This module provides the frame operator,
whitening to a tight frame, the Gram projection, seeded random tight frames,
the JSON document of a frame, and the lift to an orthonormal basis of R^n and
the complement frame, both completed by one complete QR (``_complement_basis``).
"""

from __future__ import annotations

from math import sqrt
from typing import NamedTuple

import numpy as np

DEFAULT_TIGHT_TOL = 1e-9

# Relative eigenvalue floor below which the frame operator is treated as
# numerically singular instead of amplifying noise through A^(-1/2).
_EIG_FLOOR = 1e-14

_RANDOM_RETRIES = 8


class InvalidFrameError(ValueError):
    """The vectors do not form a frame (wrong shape or not spanning R^k)."""


class NotTightError(ValueError):
    """A tight frame was required but the tightness residual is too large."""


class EmptyComplementError(ValueError):
    """Complement requested for a frame with n == k."""


class TightnessCheck(NamedTuple):
    ok: bool
    residual: float


class Frame:
    """Ordered set of n vectors spanning R^k (rows of an immutable (n, k) array)."""

    __slots__ = ("vectors",)

    def __init__(self, vectors) -> None:
        arr = np.array(vectors, dtype=float)
        if arr.ndim != 2:
            raise InvalidFrameError(f"expected an (n, k) array of row vectors, got ndim={arr.ndim}")
        n, k = arr.shape
        if not n >= k >= 1:
            raise InvalidFrameError(f"need n >= k >= 1, got n={n}, k={k}")
        if not np.all(np.isfinite(arr)):
            raise InvalidFrameError("vectors must be finite")
        if np.linalg.matrix_rank(arr) < k:
            raise InvalidFrameError("vectors do not span R^k")
        arr.flags.writeable = False
        self.vectors = arr

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def k(self) -> int:
        return self.vectors.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        """The k x n matrix (v_1, ..., v_n) with the vectors as columns."""
        return self.vectors.T

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, k={self.k})"


class TightFrame(Frame):
    """Frame with sum_i v_i v_i^T = I_k within ``DEFAULT_TIGHT_TOL`` in Frobenius norm."""

    __slots__ = ()

    def __init__(self, vectors) -> None:
        super().__init__(vectors)
        check = is_tight(self)
        if not check.ok:
            raise NotTightError(
                f"tightness residual {check.residual:.3e} exceeds {DEFAULT_TIGHT_TOL:.1e}"
            )


def frame_operator(frame: Frame) -> np.ndarray:
    """A_S = sum_i v_i v_i^T, a symmetric positive definite k x k matrix."""
    a = frame.vectors.T @ frame.vectors
    return 0.5 * (a + a.T)


def is_tight(frame: Frame, tol: float = DEFAULT_TIGHT_TOL) -> TightnessCheck:
    """Frobenius residual ||A_S - I_k|| and its comparison against ``tol``."""
    residual = float(np.linalg.norm(frame_operator(frame) - np.eye(frame.k)))
    return TightnessCheck(residual <= tol, residual)


def _require_tight(frame: Frame) -> TightFrame:
    """The frame as a TightFrame, itself if it is one; raises NotTightError unless tight."""
    return frame if isinstance(frame, TightFrame) else TightFrame(frame.vectors)


def whiten(frame: Frame) -> tuple[np.ndarray, TightFrame]:
    """Whitening operator B_S = A_S^(-1/2) and the tight frame {B_S v_i}.

    B_S is the inverse symmetric square root of the frame operator, so
    B_S A_S B_S = I_k and the returned frame is tight.  A frame too
    ill-conditioned to whiten to tightness raises InvalidFrameError.
    """
    a = frame_operator(frame)
    w, q = np.linalg.eigh(a)
    if w[0] <= _EIG_FLOOR * w[-1]:
        raise InvalidFrameError("frame operator is numerically singular")
    b = (q / np.sqrt(w)) @ q.T
    b = 0.5 * (b + b.T)
    try:
        return b, TightFrame(frame.vectors @ b)
    except NotTightError as exc:
        raise InvalidFrameError(f"frame cannot be whitened to tightness: {exc}") from None


def gram_projection(frame: Frame) -> np.ndarray:
    """Gram matrix P[i, j] = <v_i, v_j> of a tight frame.

    For tight frames this is the matrix of the orthogonal projection of R^n
    onto the row space of the frame matrix: symmetric, idempotent, trace k.
    """
    _require_tight(frame)
    return frame.vectors @ frame.vectors.T


def _complement_basis(columns: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(columns)^perp for each (n, k) matrix: the tail of a complete QR."""
    return np.linalg.qr(columns, mode="complete")[0][..., columns.shape[-1]:]


def lift_to_basis(frame: Frame) -> np.ndarray:
    """Complete a tight frame's k x n matrix to an n x n orthogonal matrix.

    The first k rows are the frame matrix unchanged (bit for bit), so the
    columns f_1, ..., f_n are an orthonormal basis of R^n whose projections
    onto the first k coordinates recover the frame vectors exactly.  The
    remaining rows are an orthonormal basis of the complement of the frame
    matrix's row space, from one complete QR factorization.
    """
    _require_tight(frame)
    return np.vstack([frame.matrix, _complement_basis(frame.vectors).T])


def complement_frame(frame: Frame) -> TightFrame:
    """Tight frame of n vectors in R^(n-k) whose Gram projection is I_n - P^S.

    Its vectors are the columns of the completion rows of
    :func:`lift_to_basis`, bit for bit, with the same QR gauge.
    """
    if frame.n == frame.k:
        raise EmptyComplementError("complement of a basis (n == k) is empty")
    _require_tight(frame)
    return TightFrame(_complement_basis(frame.vectors))


def random_tight_frame(n: int, k: int, seed: int | np.random.Generator) -> TightFrame:
    """Seed-deterministic tight frame: whitened columns of a Gaussian k x n matrix."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    for _ in range(_RANDOM_RETRIES):
        try:
            return whiten(Frame(rng.standard_normal((k, n)).T))[1]
        except InvalidFrameError:  # singular or too ill-conditioned to whiten
            pass
    raise InvalidFrameError(f"failed to sample a spanning {k} x {n} frame")


def frame_document(frame: Frame) -> dict:
    """The frame as a JSON-ready document {"n", "k", "vectors"} (row-major)."""
    return {
        "n": frame.n,
        "k": frame.k,
        "vectors": [[float(x) for x in row] for row in frame.vectors],
    }


def mercedes_frame() -> TightFrame:
    """The three-vector tight frame in R^2 at mutual angles of 120 degrees."""
    scale = sqrt(2.0 / 3.0)
    return TightFrame(
        scale
        * np.array(
            [
                [1.0, 0.0],
                [-0.5, sqrt(3.0) / 2.0],
                [-0.5, -sqrt(3.0) / 2.0],
            ]
        )
    )
