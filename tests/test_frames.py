import json
from math import sqrt

import numpy as np
import pytest

from framevol.frames import (
    EmptyComplementError,
    Frame,
    InvalidFrameError,
    NotTightError,
    TightFrame,
    complement_frame,
    frame_document,
    frame_operator,
    gram_projection,
    is_tight,
    lift_to_basis,
    random_tight_frame,
    whiten,
)
from framevol.optimize import _retract_step, retract

STANDARD_2 = np.eye(2)
DOUBLED = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_frame_operator_standard_basis():
    np.testing.assert_array_equal(frame_operator(Frame(STANDARD_2)), np.eye(2))


def test_frame_operator_doubled_direction():
    np.testing.assert_allclose(frame_operator(Frame(DOUBLED)), np.diag([2.0, 1.0]))


def test_frame_operator_mercedes(mercedes):
    np.testing.assert_allclose(frame_operator(mercedes), np.eye(2), atol=1e-15)


def test_frame_operator_conjugation(rng):
    frame = random_tight_frame(5, 3, rng)
    linear = rng.standard_normal((3, 3))
    mapped = Frame(frame.vectors @ linear.T)
    np.testing.assert_allclose(
        frame_operator(mapped),
        linear @ frame_operator(frame) @ linear.T,
        atol=1e-12,
    )


def test_frame_validation():
    with pytest.raises(InvalidFrameError):
        Frame(np.zeros((3, 2)))
    with pytest.raises(InvalidFrameError):
        Frame(np.ones((2, 3)))  # n < k
    with pytest.raises(InvalidFrameError):
        Frame([[1.0, 0.0], [np.nan, 1.0]])
    with pytest.raises(InvalidFrameError):
        Frame([[1.0, 0.0], [2.0, 0.0]])  # rank deficient


def test_vectors_are_immutable(mercedes):
    with pytest.raises(ValueError):
        mercedes.vectors[0, 0] = 2.0


def test_is_tight_residuals(mercedes):
    assert is_tight(Frame(STANDARD_2)).residual == 0.0
    check = is_tight(Frame(DOUBLED))
    assert not check.ok
    assert check.residual == pytest.approx(1.0, abs=1e-15)  # ||diag(1, 0)||_F
    assert is_tight(mercedes).ok


def test_whiten_tight_input_is_identity(mercedes):
    b, tight = whiten(mercedes)
    np.testing.assert_allclose(b, np.eye(2), atol=1e-12)
    assert np.linalg.norm(tight.vectors - mercedes.vectors) < 1e-12


def test_whiten_doubled_direction():
    b, tight = whiten(Frame(DOUBLED))
    np.testing.assert_allclose(b, np.diag([1.0 / sqrt(2.0), 1.0]), atol=1e-15)
    expected = np.array([[1.0 / sqrt(2.0), 0.0], [1.0 / sqrt(2.0), 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(tight.vectors, expected, atol=1e-15)


def test_whiten_random_frames_become_tight(rng):
    for _ in range(10):
        frame = Frame(rng.standard_normal((6, 3)))
        b, tight = whiten(frame)
        assert is_tight(tight, 1e-12).ok
        np.testing.assert_allclose(b @ frame_operator(frame) @ b, np.eye(3), atol=1e-12)


def test_gram_projection_values(mercedes):
    np.testing.assert_array_equal(gram_projection(Frame(STANDARD_2)), np.eye(2))
    gram = gram_projection(mercedes)
    expected = np.full((3, 3), -1.0 / 3.0)
    np.fill_diagonal(expected, 2.0 / 3.0)
    np.testing.assert_allclose(gram, expected, atol=1e-15)


def test_gram_projection_is_projection(rng):
    for n, k in [(5, 2), (7, 4), (6, 6)]:
        frame = random_tight_frame(n, k, rng)
        gram = gram_projection(frame)
        np.testing.assert_allclose(gram, gram.T, atol=1e-10)
        np.testing.assert_allclose(gram @ gram, gram, atol=1e-10)
        assert np.trace(gram) == pytest.approx(k, abs=1e-10)
        eigenvalues = np.sort(np.linalg.eigvalsh(gram))
        np.testing.assert_allclose(eigenvalues[: n - k], 0.0, atol=1e-10)
        np.testing.assert_allclose(eigenvalues[n - k :], 1.0, atol=1e-10)


def test_gram_projection_requires_tight():
    with pytest.raises(NotTightError):
        gram_projection(Frame(DOUBLED))


def test_lift_standard_basis_is_identity():
    np.testing.assert_array_equal(lift_to_basis(TightFrame(STANDARD_2)), np.eye(2))


def test_lift_diagonal_line():
    frame = TightFrame([[1.0 / sqrt(2.0)], [1.0 / sqrt(2.0)]])
    lifted = lift_to_basis(frame)
    np.testing.assert_array_equal(lifted[0], frame.matrix[0])
    np.testing.assert_allclose(np.abs(lifted[1]), [1.0 / sqrt(2.0)] * 2, atol=1e-15)
    assert lifted[1, 0] * lifted[1, 1] < 0  # completion row is (1, -1) direction


def test_lift_is_orthogonal_and_exact(rng):
    for n in range(2, 15):
        for k in range(1, n):
            frame = random_tight_frame(n, k, rng)
            lifted = lift_to_basis(frame)
            completion = lifted[k:]
            assert np.array_equal(lifted[:k], frame.matrix)  # bit-for-bit
            np.testing.assert_allclose(completion @ completion.T, np.eye(n - k), atol=1e-12)
            np.testing.assert_allclose(completion @ frame.vectors, 0.0, atol=1e-12)
            assert np.array_equal(complement_frame(frame).vectors, completion.T)


def test_complement_of_diagonal_line():
    frame = TightFrame([[1.0 / sqrt(2.0)], [1.0 / sqrt(2.0)]])
    dual = complement_frame(frame)
    np.testing.assert_allclose(np.abs(dual.vectors), np.full((2, 1), 1.0 / sqrt(2.0)), atol=1e-15)
    assert dual.vectors[0, 0] * dual.vectors[1, 0] < 0


def test_complement_of_mercedes(mercedes):
    dual = complement_frame(mercedes)
    assert dual.k == 1
    np.testing.assert_allclose(
        np.sum(dual.vectors**2, axis=1), np.full(3, 1.0 / 3.0), atol=1e-12
    )


def test_complement_involution_on_gram(rng):
    for n, k in [(5, 2), (6, 4)]:
        frame = random_tight_frame(n, k, rng)
        dual = complement_frame(frame)
        np.testing.assert_allclose(
            gram_projection(dual), np.eye(n) - gram_projection(frame), atol=1e-10
        )
        np.testing.assert_allclose(
            gram_projection(complement_frame(dual)), gram_projection(frame), atol=1e-10
        )


def test_complement_needs_room():
    with pytest.raises(EmptyComplementError):
        complement_frame(TightFrame(STANDARD_2))


def test_random_tight_frame_properties():
    frame = random_tight_frame(5, 3, seed=7)
    again = random_tight_frame(5, 3, seed=7)
    assert np.array_equal(frame.vectors, again.vectors)
    assert is_tight(frame, 1e-12).ok
    other = random_tight_frame(5, 3, seed=8)
    assert np.linalg.norm(frame.vectors - other.vectors) > 0.0
    square = random_tight_frame(4, 4, seed=1)
    np.testing.assert_allclose(square.vectors @ square.vectors.T, np.eye(4), atol=1e-12)


def test_random_tight_frame_redraws_samples_it_cannot_whiten():
    # The first sample of this stream whitens to a tightness residual of 2.6e-9.
    frame = random_tight_frame(4, 4, np.random.default_rng((6, 4, 4, 17)))
    assert is_tight(frame).ok


def test_whitening_failure_is_an_invalid_frame():
    # A spanning (6, 3) frame with singular values (1, 1, 1e-5): its frame operator
    # clears the eigenvalue floor, but whitening it misses tightness by about 1e-7.
    rng = np.random.default_rng(0)
    left, _ = np.linalg.qr(rng.standard_normal((6, 3)))
    right, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    frame = Frame(left * np.array([1.0, 1.0, 1e-5]) @ right.T)
    with pytest.raises(InvalidFrameError, match="cannot be whitened to tightness"):
        whiten(frame)
    with pytest.raises(InvalidFrameError, match="cannot be whitened to tightness"):
        retract(frame)
    start = random_tight_frame(6, 3, seed=1)
    assert _retract_step(start, frame.vectors - start.vectors, 1.0) is None


def test_tightness_failures_share_one_message():
    messages = []
    for build in (TightFrame, lambda vectors: gram_projection(Frame(vectors))):
        with pytest.raises(NotTightError) as info:
            build(DOUBLED)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == "tightness residual 1.000e+00 exceeds 1.0e-09"


def test_tight_frame_norm_trace_identity(rng):
    for n, k in [(4, 2), (8, 5), (9, 1)]:
        frame = random_tight_frame(n, k, rng)
        assert np.sum(frame.vectors**2) == pytest.approx(k, abs=1e-12)


def test_submatrix_of_orthogonal_is_tight(rng):
    # Lemma equivalence: any k rows of a random orthogonal matrix give a tight frame.
    orthogonal, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    for k in (1, 3, 5):
        assert is_tight(Frame(orthogonal[:k].T), 1e-12).ok


def test_tight_frame_constructor_rejects_loose():
    with pytest.raises(NotTightError):
        TightFrame(DOUBLED)


def test_json_roundtrip_is_exact(rng):
    # The CLI writes frames as json.dumps of frame_document; floats must survive exactly.
    frame = random_tight_frame(6, 3, rng)
    doc = json.loads(json.dumps(frame_document(frame)))
    assert doc["n"] == 6 and doc["k"] == 3
    assert np.array_equal(np.array(doc["vectors"]), frame.vectors)
