from itertools import combinations
from math import comb, fsum, sqrt

import numpy as np
import pytest

from framevol.exterior import (
    Form,
    compound_matrix,
    cross_product,
    form_inner,
    hodge_defining_residual,
    hodge_star,
    lagrange_residual,
    minor_vector,
    subset_minors,
    unit_decomposition_residual,
    verify_cross_tight,
    volume_identity_residual,
    wedge_coordinates,
    wedge_forms,
)
from framevol.frames import Frame, TightFrame, gram_projection, is_tight, random_tight_frame
from framevol.multiindex import MultiIndex, multi_indices


def brute_wedge(vectors):
    """Oracle: wedge coefficients via per-subset numpy determinants."""
    arr = np.asarray(vectors, dtype=float)
    ell, n = arr.shape
    return np.array([np.linalg.det(arr[:, list(cols)]) for cols in combinations(range(n), ell)])


def basis_form(n, level, subset):
    coeffs = np.zeros(comb(n, level))
    position = list(combinations(range(1, n + 1), level)).index(tuple(subset))
    coeffs[position] = 1.0
    return Form(n, level, coeffs)


# ---------------------------------------------------------------- wedge


def test_wedge_basis_pair():
    form = wedge_coordinates(np.eye(3)[:2])
    np.testing.assert_array_equal(form.coeffs, [1.0, 0.0, 0.0])


def test_wedge_example_vectors():
    form = wedge_coordinates([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    np.testing.assert_allclose(form.coeffs, [1.0, 1.0, 1.0])


def test_wedge_alternation():
    x = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(wedge_coordinates([x, x]).coeffs, 0.0, atol=1e-15)


def test_wedge_matches_brute_minors(rng):
    for ell, n in [(1, 4), (2, 5), (3, 6), (4, 4)]:
        vectors = rng.standard_normal((ell, n))
        np.testing.assert_allclose(
            wedge_coordinates(vectors).coeffs, brute_wedge(vectors), atol=1e-12
        )


# ---------------------------------------------------------------- compound


def test_compound_level_one_is_matrix(rng):
    matrix = rng.standard_normal((4, 5))
    np.testing.assert_array_equal(compound_matrix(matrix, 1), matrix)


def test_compound_diagonal():
    np.testing.assert_allclose(
        compound_matrix(np.diag([1.0, 2.0, 3.0]), 2), np.diag([2.0, 3.0, 6.0])
    )


def test_cauchy_binet(rng):
    for (a, c, b), level in [((4, 5, 4), 2), ((5, 6, 5), 3), ((6, 6, 6), 4)]:
        left = rng.standard_normal((a, c))
        right = rng.standard_normal((c, b))
        product = compound_matrix(left @ right, level)
        factored = compound_matrix(left, level) @ compound_matrix(right, level)
        np.testing.assert_allclose(product, factored, rtol=1e-9, atol=1e-9)


def test_compound_of_projection_is_projection(rng):
    frame = random_tight_frame(6, 3, rng)
    squared = compound_matrix(gram_projection(frame), 2)
    np.testing.assert_allclose(squared @ squared, squared, atol=1e-10)
    assert np.trace(squared) == pytest.approx(comb(3, 2), abs=1e-10)


def test_outer_product_sum_lemma(rng):
    # wedge power of sum of outer products equals the sum of wedge outer products
    n, t, level = 5, 6, 2
    vectors = rng.standard_normal((t, n))
    operator = vectors.T @ vectors
    lifted = compound_matrix(operator, level)
    total = np.zeros((comb(n, level), comb(n, level)))
    for sub in combinations(range(t), level):
        w = wedge_coordinates(vectors[list(sub)]).coeffs
        total += np.outer(w, w)
    np.testing.assert_allclose(lifted, total, rtol=1e-9, atol=1e-9)


def test_compound_validation():
    with pytest.raises(ValueError):
        compound_matrix(np.eye(3), 4)


# ---------------------------------------------------------------- inner product


def test_form_inner_basis():
    e12 = basis_form(4, 2, (1, 2))
    e13 = basis_form(4, 2, (1, 3))
    assert form_inner(e12, e12) == 1.0
    assert form_inner(e12, e13) == 0.0


def test_form_inner_matches_gram_determinant(rng):
    xs = rng.standard_normal((2, 4))
    ys = rng.standard_normal((2, 4))
    inner = form_inner(wedge_coordinates(xs), wedge_coordinates(ys))
    assert inner == pytest.approx(np.linalg.det(xs @ ys.T), abs=1e-12)


def test_form_inner_shape_mismatch():
    with pytest.raises(ValueError):
        form_inner(basis_form(4, 2, (1, 2)), basis_form(4, 1, (1,)))


# ---------------------------------------------------------------- Hodge star


def test_hodge_star_examples():
    star_e1 = hodge_star(basis_form(3, 1, (1,)))
    np.testing.assert_array_equal(star_e1.coeffs, basis_form(3, 2, (2, 3)).coeffs)
    star_e13 = hodge_star(basis_form(3, 2, (1, 3)))
    np.testing.assert_array_equal(star_e13.coeffs, -basis_form(3, 1, (2,)).coeffs)


def test_hodge_double_application(rng):
    for n in (3, 4, 5, 6):
        for level in range(n + 1):
            form = Form(n, level, rng.standard_normal(comb(n, level)))
            twice = hodge_star(hodge_star(form))
            expected = ((-1.0) ** (level * (n - level))) * form.coeffs
            np.testing.assert_allclose(twice.coeffs, expected, atol=1e-14)


def test_hodge_is_isometry(rng):
    form = Form(5, 2, rng.standard_normal(10))
    assert form_inner(form, form) == pytest.approx(
        form_inner(hodge_star(form), hodge_star(form)), rel=1e-14
    )


def test_hodge_defining_identity_small_n():
    for n in range(1, 9):
        assert hodge_defining_residual(n) < 1e-12


def test_hodge_determinant_identity(rng):
    # <a, star(b)> = (-1)^(l(n-l)) det(a_1, ..., a_l, b_1, ..., b_{n-l})
    for n, level in [(4, 2), (5, 2), (5, 3), (6, 1)]:
        a_vectors = rng.standard_normal((level, n))
        b_vectors = rng.standard_normal((n - level, n))
        lhs = form_inner(wedge_coordinates(a_vectors), hodge_star(wedge_coordinates(b_vectors)))
        det = np.linalg.det(np.vstack([a_vectors, b_vectors]))
        assert lhs == pytest.approx(((-1.0) ** (level * (n - level))) * det, abs=1e-10)


def test_hodge_complement_projection_lemma(rng):
    # star(compound(P, k) x) = compound(I - P, n - k) star(x) on random k-forms
    n, k = 6, 3
    frame = random_tight_frame(n, k, rng)
    proj = gram_projection(frame)
    lifted = compound_matrix(proj, k)
    dual_lifted = compound_matrix(np.eye(n) - proj, n - k)
    for _ in range(5):
        form = Form(n, k, rng.standard_normal(comb(n, k)))
        lhs = hodge_star(Form(n, k, lifted @ form.coeffs))
        rhs = dual_lifted @ hodge_star(form).coeffs
        np.testing.assert_allclose(lhs.coeffs, rhs, rtol=1e-9, atol=1e-9)


def test_wedge_forms_degree_overflow():
    with pytest.raises(ValueError):
        wedge_forms(basis_form(3, 2, (1, 2)), basis_form(3, 2, (1, 3)))


# ---------------------------------------------------------------- cross product


def test_cross_product_plane():
    np.testing.assert_allclose(cross_product([[1.0, 0.0]]), [0.0, 1.0])


def test_cross_product_r3():
    np.testing.assert_allclose(cross_product(np.eye(3)[:2]), [0.0, 0.0, 1.0])


def test_cross_product_mercedes_rotation(mercedes):
    rotated = cross_product([mercedes.vectors[0]])
    np.testing.assert_allclose(rotated, sqrt(2.0 / 3.0) * np.array([0.0, 1.0]), atol=1e-15)


def test_cross_product_defining_identity(rng):
    for k in (2, 3, 5):
        xs = rng.standard_normal((k - 1, k))
        crossed = cross_product(xs)
        for _ in range(100):
            y = rng.standard_normal(k)
            det = np.linalg.det(np.vstack([xs, y[None, :]]))
            assert crossed @ y == pytest.approx(det, abs=1e-10)


def test_cross_product_degenerate_input():
    np.testing.assert_allclose(cross_product([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), 0.0)


def test_cross_product_validation():
    with pytest.raises(ValueError):
        cross_product(np.eye(3))  # too many vectors
    with pytest.raises(ValueError):
        cross_product([[1.0]])  # k < 2


# ---------------------------------------------------------------- minor vectors


def test_minor_vector_standard_basis():
    frame = TightFrame(np.eye(2))
    d1 = minor_vector(frame, 1)
    np.testing.assert_array_equal(d1.form.coeffs, [0.0, 1.0])  # basis {1}, {2}
    assert d1.owner == 1


def test_minor_vector_inner_products_match_vectors(mercedes):
    for i in range(1, 4):
        for j in range(1, 4):
            lhs = form_inner(minor_vector(mercedes, i).form, minor_vector(mercedes, j).form)
            rhs = mercedes.vectors[i - 1] @ mercedes.vectors[j - 1]
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_minor_vector_owner_coordinates_vanish(rng):
    frame = random_tight_frame(5, 3, rng)
    subsets = list(combinations(range(1, 6), 2))
    for i in range(1, 6):
        coeffs = minor_vector(frame, i).form.coeffs
        for position, subset in enumerate(subsets):
            if i in subset:
                assert coeffs[position] == 0.0


def test_minor_vectors_decompose_identity_on_wedge_space(rng):
    # sum_i d_S(i) (x) d_S(i) acts as the identity on the range of compound(P, k-1)
    frame = random_tight_frame(5, 3, rng)
    lifted = compound_matrix(gram_projection(frame), 2)
    stacked = np.vstack([minor_vector(frame, i).form.coeffs for i in range(1, 6)])
    operator = stacked.T @ stacked
    np.testing.assert_allclose(operator @ lifted, lifted, atol=1e-10)


@pytest.mark.parametrize("n, k", [(4, 1), (5, 5), (7, 3), (9, 5)])
def test_minor_vectors_match_direct_determinants(n, k):
    # d_S(i) at J is det(v_i, v_J), owner first; the package gathers it from the d(L).
    frame = random_tight_frame(n, k, np.random.default_rng((n, k)))
    vectors = frame.vectors
    subsets = list(combinations(range(n), k - 1))
    for i in range(n):
        stack = np.array([np.vstack([vectors[i], vectors[list(J)]]) for J in subsets])
        expected = np.where([i in J for J in subsets], 0.0, np.linalg.det(stack))
        coeffs = minor_vector(frame, i + 1).form.coeffs
        np.testing.assert_allclose(coeffs, expected, rtol=1e-12, atol=1e-14)
        assert np.all(coeffs[[i in J for J in subsets]] == 0.0)


def test_minor_vector_bad_owner(mercedes):
    with pytest.raises(ValueError):
        minor_vector(mercedes, 0)


# ---------------------------------------------------------------- residual operations


def test_cross_tight_residuals(mercedes, rng):
    assert verify_cross_tight(TightFrame(np.eye(3))) == pytest.approx(0.0, abs=1e-15)
    assert verify_cross_tight(mercedes) < 1e-12
    assert verify_cross_tight(random_tight_frame(6, 3, rng)) < 1e-10


def test_unit_decomposition_level_one_matches_tightness(rng):
    frame = random_tight_frame(6, 4, rng)
    assert unit_decomposition_residual(frame, 1) == pytest.approx(
        is_tight(frame).residual, abs=1e-14
    )


def test_unit_decomposition_top_level_is_cauchy_binet(rng):
    frame = random_tight_frame(6, 3, rng)
    minors = subset_minors(frame)
    oracle = abs(fsum(d * d for d in minors) - 1.0)
    assert unit_decomposition_residual(frame, 3) == pytest.approx(oracle, abs=1e-13)


def test_unit_decomposition_random(rng):
    assert unit_decomposition_residual(random_tight_frame(7, 3, rng), 2) < 1e-10


def test_unit_decomposition_level_validation(rng):
    frame = random_tight_frame(4, 2, rng)
    with pytest.raises(ValueError):
        unit_decomposition_residual(frame, 3)


def test_volume_identity_top_size_is_exact(rng):
    frame = random_tight_frame(5, 2, rng)
    for index in multi_indices(5, 2):
        assert volume_identity_residual(frame, index) < 1e-13


def test_volume_identity_mercedes(mercedes):
    assert volume_identity_residual(mercedes, MultiIndex((1,), 3)) < 1e-15


def test_volume_identity_random_small_sets(rng):
    frame = random_tight_frame(7, 4, rng)
    for size in (1, 2):
        for index in multi_indices(7, size):
            assert volume_identity_residual(frame, index) < 1e-10


def test_lagrange_residual_diagonal_line():
    frame = TightFrame([[1.0 / sqrt(2.0)], [1.0 / sqrt(2.0)]])
    assert lagrange_residual(frame, MultiIndex((1,), 2)) < 1e-15


def test_lagrange_residual_mercedes(mercedes):
    assert lagrange_residual(mercedes, MultiIndex((1, 2), 3)) < 1e-12


def test_lagrange_residual_random_all_subsets(rng):
    frame = random_tight_frame(6, 3, rng)
    for index in multi_indices(6, 3):
        assert lagrange_residual(frame, index) < 1e-10


def test_lagrange_needs_strict_corank(rng):
    frame = random_tight_frame(3, 3, rng)
    with pytest.raises(ValueError):
        lagrange_residual(frame, MultiIndex((1, 2, 3), 3))


def test_form_validation():
    with pytest.raises(ValueError):
        Form(3, 2, [1.0, 0.0])  # wrong length
    with pytest.raises(ValueError):
        Form(3, 4, [0.0])  # level out of range
