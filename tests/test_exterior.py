import tracemalloc
from itertools import combinations
from math import comb, fsum, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framevol import exterior
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
)
from framevol.frames import (
    EmptyComplementError,
    TightFrame,
    gram_projection,
    is_tight,
    random_tight_frame,
)


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


def permutation_sign(sequence):
    """Oracle: sign of the permutation sorting ``sequence``, via its matrix determinant."""
    order = np.argsort(sequence, kind="stable")
    matrix = np.zeros((len(sequence), len(sequence)))
    matrix[np.arange(len(sequence)), order] = 1.0
    return round(float(np.linalg.det(matrix)))


# ---------------------------------------------------------------- subsets and lex rank


@pytest.mark.parametrize(
    "elements, n, expected",
    [((1, 2), 4, 0), ((1, 3), 4, 1), ((3, 4), 4, 5), ((3,), 3, 2), ((), 5, 0)],
)
def test_rank_examples(elements, n, expected):
    zero_based = np.array(elements, dtype=np.intp) - 1
    assert exterior._lex_rank(zero_based, n) == expected


@pytest.mark.parametrize(
    "r, n, level, expected",
    [(0, 4, 2, (1, 2)), (5, 4, 2, (3, 4)), (2, 3, 1, (3,))],
)
def test_unrank_examples(r, n, level, expected):
    assert tuple(exterior._subset_array(n, level)[r] + 1) == expected


def test_multi_indices_iterates_in_rank_order():
    subsets = exterior._subset_array(5, 3)
    assert subsets.tolist() == [list(sub) for sub in combinations(range(5), 3)]
    np.testing.assert_array_equal(exterior._lex_rank(subsets, 5), np.arange(10))


@settings(deadline=None)
@given(st.data())
def test_lex_rank_counts_lex_smaller_subsets(data):
    n = data.draw(st.integers(1, 70))
    m = data.draw(st.integers(0, min(8, n)))
    subset = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=m, max_size=m)))
    # A smaller subset first differs at position p, holding x there with c_{p-1} < x < c_p.
    smaller = sum(
        comb(n - 1 - x, m - 1 - p)
        for p in range(m)
        for x in range(subset[p - 1] + 1 if p else 0, subset[p])
    )
    assert exterior._lex_rank(np.array(subset, dtype=np.intp), n) == smaller


@pytest.mark.parametrize(
    "elements, n, expected",
    [((1,), 3, 1), ((2,), 3, -1), ((1, 2), 4, 1)],
)
def test_star_sign_examples(elements, n, expected):
    signs = exterior._star_signs(n, len(elements))
    assert signs[exterior._lex_rank(np.array(elements, dtype=np.intp) - 1, n)] == expected


def test_star_signs_match_permutation_parity_exhaustively():
    for n in range(1, 9):
        for level in range(n + 1):
            subsets = exterior._subset_array(n, level).tolist()
            expected = [
                permutation_sign(sub + [e for e in range(n) if e not in sub]) for sub in subsets
            ]
            np.testing.assert_array_equal(exterior._star_signs(n, level), expected)


# ---------------------------------------------------------------- minor kernel


def per_subset_minors(vectors):
    """Oracle: one np.linalg.det per ascending k-subset of the rows, in lex order."""
    n, k = vectors.shape
    return np.array([np.linalg.det(vectors[list(rows)]) for rows in combinations(range(n), k)])


@pytest.mark.parametrize("n", range(1, 11))
def test_minors_match_per_subset_determinants(n):
    rng = np.random.default_rng((n, 1))
    for k in range(n + 1):
        single = rng.standard_normal((n, k))
        stacked = rng.standard_normal((3, n, k))  # shaped like a compound_matrix chunk
        got = [exterior._minors(single), *exterior._minors(stacked)]
        for vectors, minors in zip([single, *stacked], got):
            expected = per_subset_minors(vectors)
            assert minors.shape == (comb(n, k),)
            if k == 1:
                np.testing.assert_array_equal(minors, vectors[:, 0])
            assert np.max(np.abs(minors - expected)) <= 1e-14 * np.max(np.abs(expected))


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


def test_compound_memory_is_bounded(rng):
    # Rows are chunked so the recursion's temporaries stay near 16 MB, never the
    # 924 x 15,048 floats of the whole (12, 12) level-6 recursion at once.
    matrix = rng.standard_normal((12, 12))
    tracemalloc.start()
    try:
        lifted = compound_matrix(matrix, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    rows = exterior._subset_array(12, 6)[[0, 500, 923]]
    expected = [per_subset_minors(matrix[r].T) for r in rows]
    np.testing.assert_allclose(lifted[[0, 500, 923]], expected, rtol=0, atol=1e-13)


def test_compound_validation():
    with pytest.raises(ValueError):
        compound_matrix(np.eye(3), 4)


def test_compound_of_an_empty_stack_is_empty():
    assert compound_matrix(np.zeros((0, 3, 3)), 2).shape == (0, 3, 3)
    assert compound_matrix(np.zeros((2, 0, 4, 3)), 3).shape == (2, 0, 4, 1)


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
    for n in range(1, 13):
        assert hodge_defining_residual(n) < 1e-12


def test_hodge_defining_check_memory_is_bounded():
    # Each level stars one ramp and a few dense forms, never a C(14, 7)^2 identity.
    tracemalloc.start()
    try:
        assert hodge_defining_residual(14) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_hodge_defining_check_catches_a_flipped_sign(monkeypatch):
    signs = exterior._star_signs

    def flipped(n, level):
        out = np.array(signs(n, level))
        if (n, level) == (5, 2):
            out[3] = -out[3]
        return out

    monkeypatch.setattr(exterior, "_star_signs", flipped)
    assert hodge_defining_residual(5) >= 1.0


def test_hodge_defining_check_catches_swapped_complements(monkeypatch):
    star = exterior._star

    def swapped(coeffs, n, level):
        out = star(coeffs, n, level)
        if (n, level) == (5, 2):
            out[..., [2, 7]] = out[..., [7, 2]]
        return out

    monkeypatch.setattr(exterior, "_star", swapped)
    assert hodge_defining_residual(5) >= 1.0


# Ablation gate: every mutation of the star below changes it, and the check must
# report each one with a residual of at least 1.
TRUE_SIGNS = exterior._star_signs
TRUE_STAR = exterior._star


def assert_every_mutation_caught(monkeypatch, mutations):
    """Patch each (n, name, replacement) in turn; the star must change and the check see it."""
    rng = np.random.default_rng(0)
    for n, name, replacement in mutations:
        with monkeypatch.context() as patch:
            patch.setattr(exterior, name, replacement)
            changed = False
            for level in range(n + 1):
                form = rng.standard_normal(comb(n, level))
                true = TRUE_SIGNS(n, level)[::-1] * form[::-1]
                changed |= not np.array_equal(exterior._star(form, n, level), true)
            assert changed, (n, name)
            assert hodge_defining_residual(n) >= 1.0, (n, name)


def test_hodge_check_catches_each_flipped_sign(monkeypatch):
    def flip(n, level, r):
        def signs(m, lev):
            out = np.array(TRUE_SIGNS(m, lev))
            if (m, lev) == (n, level):
                out[r] = -out[r]
            return out

        return signs

    mutations = [
        (n, "_star_signs", flip(n, level, r))
        for n in range(1, 9)
        for level in range(n + 1)
        for r in range(comb(n, level))
    ]
    assert len(mutations) == 510
    assert_every_mutation_caught(monkeypatch, mutations)


def test_hodge_check_catches_each_transposed_coordinate(monkeypatch):
    def transpose(n, level, i, j):
        def star(coeffs, m, lev):
            out = TRUE_STAR(coeffs, m, lev)
            if (m, lev) == (n, level):
                out[..., [i, j]] = out[..., [j, i]]
            return out

        return star

    mutations = [
        (n, "_star", transpose(n, level, i, j))
        for n in range(1, 7)
        for level in range(n + 1)
        for i, j in combinations(range(comb(n, level)), 2)
    ]
    assert len(mutations) == 574
    assert_every_mutation_caught(monkeypatch, mutations)


def test_hodge_check_catches_sign_formulas_off_by_one_level(monkeypatch):
    def shifted(shift):
        def signs(n, level):
            # C(level + shift, 2) as the polynomial x(x - 1)/2, defined at x = -1 too.
            offset = (level + shift) * (level + shift - 1) // 2
            inversions = exterior._subset_array(n, level).sum(axis=1) - offset
            return np.where(inversions % 2, -1.0, 1.0)

        return signs

    mutations = [(n, "_star_signs", shifted(s)) for n in range(1, 15) for s in (-1, 1)]
    assert_every_mutation_caught(monkeypatch, mutations)


def test_hodge_check_catches_a_missing_reversal(monkeypatch):
    def unreversed(coeffs, n, level):
        return exterior._star_signs(n, level) * coeffs

    # At n = 1 every level has one coordinate, so the reversal is a no-op there.
    mutations = [(n, "_star", unreversed) for n in range(2, 15)]
    assert_every_mutation_caught(monkeypatch, mutations)


@pytest.mark.parametrize("n", range(1, 11))
def test_complementation_reverses_lex_order(n):
    for level in range(n + 1):
        subsets = exterior._subset_array(n, level)
        complements = exterior._subset_array(n, n - level)[::-1]
        for subset, complement in zip(subsets.tolist(), complements.tolist()):
            assert sorted(subset + complement) == list(range(n))


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
    np.testing.assert_array_equal(d1.coeffs, [0.0, 1.0])  # basis {1}, {2}


def test_minor_vector_inner_products_match_vectors(mercedes):
    for i in range(1, 4):
        for j in range(1, 4):
            lhs = form_inner(minor_vector(mercedes, i), minor_vector(mercedes, j))
            rhs = mercedes.vectors[i - 1] @ mercedes.vectors[j - 1]
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_minor_vector_owner_coordinates_vanish(rng):
    frame = random_tight_frame(5, 3, rng)
    subsets = list(combinations(range(1, 6), 2))
    for i in range(1, 6):
        coeffs = minor_vector(frame, i).coeffs
        for position, subset in enumerate(subsets):
            if i in subset:
                assert coeffs[position] == 0.0


def test_minor_vectors_decompose_identity_on_wedge_space(rng):
    # sum_i d_S(i) (x) d_S(i) acts as the identity on the range of compound(P, k-1)
    frame = random_tight_frame(5, 3, rng)
    lifted = compound_matrix(gram_projection(frame), 2)
    stacked = np.vstack([minor_vector(frame, i).coeffs for i in range(1, 6)])
    operator = stacked.T @ stacked
    np.testing.assert_allclose(operator @ lifted, lifted, atol=1e-10)


@pytest.mark.parametrize("n, k", [(4, 1), (5, 5), (7, 3), (9, 5), (12, 6), (70, 2)])
def test_minor_vectors_match_direct_determinants(n, k):
    # d_S(i) at J is det(v_i, v_J), owner first; the package gathers it from the d(L).
    frame = random_tight_frame(n, k, np.random.default_rng((n, k)))
    vectors = frame.vectors
    subsets = list(combinations(range(n), k - 1))
    for i in range(n):
        stack = np.array([np.vstack([vectors[i], vectors[list(J)]]) for J in subsets])
        expected = np.where([i in J for J in subsets], 0.0, np.linalg.det(stack))
        coeffs = minor_vector(frame, i + 1).coeffs
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


def lagrange_oracle(frame):
    """Per-subset Lagrange residuals: np.ix_ blocks of P and of I - P, one det each."""
    proj = gram_projection(frame)
    perp = np.eye(frame.n) - proj
    worst = 0.0
    for rows in combinations(range(frame.n), frame.k):
        complement = [i for i in range(frame.n) if i not in rows]
        p_l = float(np.linalg.det(proj[np.ix_(rows, rows)]))
        p_perp = float(np.linalg.det(perp[np.ix_(complement, complement)]))
        worst = max(worst, abs(p_l - p_perp))
    return worst


def volume_identity_oracle(frame, size):
    """Per-subset volume identity residuals: one Gram det and one fsum per I."""
    squares = subset_minors(frame) ** 2
    tops = list(combinations(range(frame.n), frame.k))
    worst = 0.0
    for rows in combinations(range(frame.n), size):
        sub = frame.vectors[list(rows)]
        gram_det = float(np.linalg.det(sub @ sub.T))
        total = fsum(d for d, top in zip(squares, tops) if set(rows) <= set(top))
        worst = max(worst, abs(gram_det - total))
    return worst


@pytest.mark.parametrize("n, k", [(5, 1), (6, 3), (7, 4)])
def test_batched_residuals_match_per_subset_oracle(n, k):
    for seed in range(3):
        frame = random_tight_frame(n, k, np.random.default_rng((seed, n, k)))
        assert lagrange_residual(frame) == lagrange_oracle(frame)
        for size in range(k + 1):
            assert volume_identity_residual(frame, size) == volume_identity_oracle(frame, size)


def test_volume_identity_top_size_is_exact(rng):
    frame = random_tight_frame(5, 2, rng)
    assert volume_identity_residual(frame, 2) < 1e-13


def test_volume_identity_mercedes(mercedes):
    assert volume_identity_residual(mercedes, 1) < 1e-15


def test_volume_identity_random_small_sets(rng):
    frame = random_tight_frame(7, 4, rng)
    for size in (1, 2):
        assert volume_identity_residual(frame, size) < 1e-10


def test_volume_identity_size_validation(mercedes):
    for size in (-1, 3):
        with pytest.raises(ValueError):
            volume_identity_residual(mercedes, size)


def test_lagrange_residual_diagonal_line():
    frame = TightFrame([[1.0 / sqrt(2.0)], [1.0 / sqrt(2.0)]])
    assert lagrange_residual(frame) < 1e-15


def test_lagrange_residual_mercedes(mercedes):
    assert lagrange_residual(mercedes) < 1e-12


def test_lagrange_residual_random_all_subsets(rng):
    frame = random_tight_frame(6, 3, rng)
    assert lagrange_residual(frame) < 1e-10


def test_lagrange_needs_strict_corank(rng):
    frame = random_tight_frame(3, 3, rng)
    with pytest.raises(EmptyComplementError):  # the same error as complement_frame
        lagrange_residual(frame)


def test_form_validation():
    with pytest.raises(ValueError):
        Form(3, 2, [1.0, 0.0])  # wrong length
    with pytest.raises(ValueError):
        Form(3, 4, [0.0])  # level out of range
