"""Zonotope volume of cube projections and the first-order machinery around it.

The volume of the zonotope sum_i [0, v_i] generated by a frame is the sum
of the absolute k x k minors over all ascending k-subsets of generators.
On top of that this module provides the sign vectors sigma_S(i), the
first-order optimality residual |<sigma_S(i), d_S(j)> - <v_i, v_j>|, the
hyperplane projection volumes of the necessary condition, the McMullen
duality check against the complement frame, and the classical upper
bounds for tight frames.

The first-order quantities are read off the subset minors d(L): the
owner-first minors D[i, J] = det(v_i, v_J) are gathered from them, and the
matrix M = sigma D^T - V V^T gives the residual max |M| and the direction M V.
"""

from __future__ import annotations

from math import comb, fsum, gamma, pi, sqrt
from typing import NamedTuple

import numpy as np

from .exterior import Form, _gram_defect, _minors, _owner_first_minors
from .frames import DEFAULT_TIGHT_TOL, EmptyComplementError, Frame, NotTightError
from .frames import _complement_basis, _require_tight

# Minors below this fraction of the largest minor count as exact zeros for
# sign purposes; maximizers have all minors bounded away from zero, so the
# threshold only matters far from optima.
ZERO_MINOR_REL = 1e-12


class DegenerateFrameError(ValueError):
    """The frame has zero zonotope volume (or a zero direction was requested)."""


class SignVector(NamedTuple):
    owner: int
    form: Form
    volume: float


class McMullenCheck(NamedTuple):
    volume: float
    dual_volume: float
    gap: float


class BoundPair(NamedTuple):
    binomial: float
    ball: float


def _evaluate(vectors: np.ndarray) -> tuple[np.ndarray, float]:
    """The subset minors d(L) of an n x k frame and its volume sum_L |d(L)|."""
    minors = _minors(vectors)
    return minors, fsum(np.abs(minors).tolist())


def volume(frame: Frame) -> float:
    """Zonotope volume sum_L |d_S(L)| over ascending k-subsets L."""
    return _evaluate(frame.vectors)[1]


def _sign_matrix(minors: np.ndarray) -> np.ndarray:
    """Minor signs with near-zero minors (relative threshold) snapped to 0."""
    signs = np.sign(minors)
    signs[np.abs(minors) < ZERO_MINOR_REL * np.max(np.abs(minors))] = 0.0
    return signs


def sign_vector(frame: Frame, i: int) -> SignVector:
    """sigma_S(i): coordinate at L is sign(det(v_i, v_L)) / F(S), zero on zero minors."""
    if not 1 <= i <= frame.n:
        raise ValueError(f"owner index {i} out of [1, {frame.n}]")
    minors, total = _evaluate(frame.vectors)
    if total <= 0.0:
        raise DegenerateFrameError("zonotope volume is zero")
    coeffs = _sign_matrix(_owner_first_minors(minors, frame.n, frame.k))[i - 1] / total
    return SignVector(owner=i, form=Form(frame.n, frame.k - 1, coeffs), volume=total)


def _first_order_matrix(vectors: np.ndarray, minors: np.ndarray, total: float) -> np.ndarray:
    """M[i, j] = <sigma_S(i), d_S(j)> - <v_i, v_j> from the subset minors and their sum."""
    if total <= 0.0:
        raise DegenerateFrameError("zonotope volume is zero")
    owner_first = _owner_first_minors(minors, *vectors.shape)
    sigma = _sign_matrix(owner_first) / total
    return sigma @ owner_first.T - vectors @ vectors.T


def first_order_residual(frame: Frame) -> float:
    """max_{i,j} |<sigma_S(i), d_S(j)> - <v_i, v_j>|; zero at local maximizers."""
    _require_tight(frame)
    matrix = _first_order_matrix(frame.vectors, *_evaluate(frame.vectors))
    return float(np.max(np.abs(matrix)))


def hyperplane_projection_volume(frame: Frame, i: int) -> float:
    """(k-1)-volume of the zonotope projected onto v_i^perp inside R^k.

    Computed by the Shephard sum at level k-1 in the complete-QR orthonormal
    basis of v_i^perp; at first-order-critical frames it equals |v_i| F(S).
    For k = 1 the basis is empty and the one empty minor gives 1.
    """
    if not 1 <= i <= frame.n:
        raise ValueError(f"index {i} out of [1, {frame.n}]")
    direction = frame.vectors[i - 1]
    if not np.any(direction):
        raise DegenerateFrameError(f"vector {i} is zero; no projection direction")
    return _evaluate(frame.vectors @ _complement_basis(direction[:, None]))[1]


def mcmullen_check(frame: Frame) -> McMullenCheck:
    """Volumes of a tight frame and its complement frame, which must agree."""
    _require_tight(frame)
    if frame.n == frame.k:
        raise EmptyComplementError("complement of a basis (n == k) is empty")
    primal, dual = _mcmullen_volumes(frame.vectors[None])[:, 0].tolist()
    return McMullenCheck(primal, dual, abs(primal - dual))


def _mcmullen_volumes(vectors: np.ndarray) -> np.ndarray:
    """Volumes of an (m, n, k) stack of tight frames, n > k, and of complement_frame of each."""
    dual = _complement_basis(vectors)
    worst = np.max(_gram_defect(dual))  # tightness within DEFAULT_TIGHT_TOL implies full rank
    if not worst <= DEFAULT_TIGHT_TOL:
        raise NotTightError(f"tightness residual {worst:.3e} exceeds {DEFAULT_TIGHT_TOL:.1e}")
    sides = (np.abs(_minors(side)).tolist() for side in (vectors, dual))
    return np.array([[fsum(frame) for frame in side] for side in sides])


def unit_ball_volume(dim: int) -> float:
    """Volume of the unit ball in R^dim."""
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    return pi ** (dim / 2.0) / gamma(dim / 2.0 + 1.0)


def bounds(n: int, k: int) -> BoundPair:
    """Upper bounds sqrt(C(n, k)) and the ball-ratio bound for cube projections."""
    if not n >= k >= 1:
        raise ValueError(f"need n >= k >= 1, got n={n}, k={k}")
    binomial = sqrt(comb(n, k))
    ball = (
        unit_ball_volume(k - 1) ** k
        / unit_ball_volume(k) ** (k - 1)
        * (n / k) ** (k / 2.0)
    )
    return BoundPair(binomial, ball)

