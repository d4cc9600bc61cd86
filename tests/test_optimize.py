from dataclasses import fields
from itertools import combinations
from math import pi, sin, sqrt, tan

import numpy as np
import pytest

from framevol.exterior import cross_product
from framevol.frames import (
    Frame,
    TightFrame,
    is_tight,
    random_tight_frame,
)
from framevol.optimize import (
    AscentConfig,
    ascend,
    ascent_direction,
    determinant_expansion_check,
    objective,
    ratio_check,
    retract,
    stability_lower_bound,
    stability_scan,
)
from framevol.zonotope import first_order_residual, sign_vector, volume

# Best volumes established independently: the n=4 plane case is the exact
# l1 maximum on the Grassmannian quadric, the n=5 case is the equally
# spaced pentagon configuration.
BEST_4_2 = 1.0 + sqrt(2.0)
BEST_5_2 = 2.0 * (sin(pi / 5.0) + sin(2.0 * pi / 5.0))


def icosahedral_frame() -> TightFrame:
    """Six icosahedron axes scaled into a tight frame of R^3."""
    phi = (1.0 + sqrt(5.0)) / 2.0
    axes = np.array(
        [
            [0.0, 1.0, phi],
            [0.0, 1.0, -phi],
            [1.0, phi, 0.0],
            [1.0, -phi, 0.0],
            [phi, 0.0, 1.0],
            [-phi, 0.0, 1.0],
        ]
    )
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    return TightFrame(axes / sqrt(2.0))


# ---------------------------------------------------------------- objective


def test_objective_equals_volume_on_tight(mercedes):
    assert objective(mercedes) == pytest.approx(volume(mercedes), rel=1e-14)


def test_objective_scale_invariance(mercedes):
    scaled = Frame(3.7 * mercedes.vectors)
    assert objective(scaled) == pytest.approx(objective(mercedes), rel=1e-12)


def test_objective_gl_invariance(rng):
    frame = random_tight_frame(5, 3, rng)
    reference = objective(frame)
    for _ in range(20):
        basis, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        other, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        singulars = np.exp(rng.uniform(np.log(0.1), np.log(100.0), size=3))
        linear = (basis * singulars) @ other
        mapped = Frame(frame.vectors @ linear.T)
        assert abs(objective(mapped) - reference) / reference < 1e-9


# ---------------------------------------------------------------- ascent direction


def test_direction_vanishes_at_critical_frames(mercedes):
    assert np.max(np.abs(ascent_direction(mercedes))) < 1e-10
    assert np.max(np.abs(ascent_direction(TightFrame(np.eye(3))))) < 1e-14


@pytest.mark.parametrize("n, k", [(5, 2), (6, 3), (7, 4)])
def test_direction_matches_cross_product_formula(n, k):
    # x_i = g_i - v_i with g_i = (-1)^(k-1) sum_J sigma_S(i, J) [v_J] over (k-1)-subsets J.
    frame = random_tight_frame(n, k, np.random.default_rng((n, k)))
    subsets = list(combinations(range(n), k - 1))
    crosses = np.array([cross_product(frame.vectors[list(J)]) for J in subsets])
    g = np.array(
        [(-1.0) ** (k - 1) * sign_vector(frame, i).form.coeffs @ crosses for i in range(1, n + 1)]
    )
    np.testing.assert_allclose(ascent_direction(frame), g - frame.vectors, atol=1e-12)


def test_direction_matches_finite_differences():
    frame = random_tight_frame(5, 2, seed=12)
    direction = ascent_direction(frame)
    predicted = float(np.sum(direction**2))  # d(log G)/dt along the direction
    t = 1e-5
    base = objective(frame)
    slope = (objective(Frame(frame.vectors + t * direction)) - base) / (t * base)
    assert slope == pytest.approx(predicted, rel=1e-4)


# ---------------------------------------------------------------- retraction


def test_retract_fixes_tight_frames(mercedes):
    assert np.linalg.norm(retract(mercedes).vectors - mercedes.vectors) < 1e-14


def test_retract_doubled_direction():
    tight = retract(Frame([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    expected = np.array([[1.0 / sqrt(2.0), 0.0], [1.0 / sqrt(2.0), 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(tight.vectors, expected, atol=1e-15)


def test_retract_preserves_objective(rng):
    for _ in range(10):
        frame = Frame(rng.standard_normal((6, 3)))
        assert objective(retract(frame)) == pytest.approx(objective(frame), rel=1e-10)


# ---------------------------------------------------------------- ascend


def test_ascend_from_mercedes_terminates_immediately(mercedes):
    result = ascend(mercedes, AscentConfig(restarts=1, seed=0))
    assert result.converged
    assert result.iterations == 0
    assert result.volume == pytest.approx(sqrt(3.0), abs=1e-12)


def test_ascend_takes_a_tight_plain_frame_as_it_is():
    vectors = random_tight_frame(7, 3, np.random.default_rng((5, 0))).vectors
    plain, tight = ascend(Frame(vectors)), ascend(TightFrame(vectors))
    assert plain.volume == tight.volume
    assert plain.residual == tight.residual
    assert np.array_equal(plain.frame.vectors, tight.frame.vectors)
    assert [r.trace for r in plain.restarts] == [r.trace for r in tight.restarts]


@pytest.mark.parametrize(
    "n, k",
    sorted({(n, k) for n in range(3, 15) for k in (1, 2, n - 2, n - 1)}),
)
def test_ascend_reaches_closed_form_maxima(n, k):
    # sqrt(n) for k = 1 and n - 1; cot(pi / 2n), the regular 2n-gon, for k = 2
    # and, by McMullen duality, for k = n - 2.
    expected = sqrt(n) if k in (1, n - 1) else 1.0 / tan(pi / (2 * n))
    start = random_tight_frame(n, k, np.random.default_rng((5, n, k)))
    result = ascend(start, AscentConfig(restarts=1))
    assert result.converged
    assert result.volume == pytest.approx(expected, rel=1e-12)


def test_ascend_finds_mercedes_from_random_starts():
    cfg = AscentConfig(restarts=4, seed=2)
    start = random_tight_frame(3, 2, np.random.default_rng((2, 0)))
    result = ascend(start, cfg)
    assert result.volume == pytest.approx(sqrt(3.0), abs=1e-6)
    assert result.min_norm_sq == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert result.max_norm_sq == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert result.residual < 1e-8


def test_ascend_n4_k2_reaches_grassmannian_l1_maximum():
    cfg = AscentConfig(restarts=6, seed=2)
    start = random_tight_frame(4, 2, np.random.default_rng((2, 0)))
    result = ascend(start, cfg)
    assert result.volume == pytest.approx(BEST_4_2, abs=1e-9)
    assert result.residual < 1e-8


def test_ascend_n5_k2_reaches_pentagon_configuration():
    cfg = AscentConfig(restarts=6, seed=2)
    start = random_tight_frame(5, 2, np.random.default_rng((2, 0)))
    result = ascend(start, cfg)
    assert result.volume == pytest.approx(BEST_5_2, abs=1e-9)
    assert result.residual < 1e-8


def test_icosahedral_frame_is_critical():
    frame = icosahedral_frame()
    assert first_order_residual(frame) < 1e-12
    result = ascend(frame, AscentConfig(restarts=1, seed=0))
    assert result.converged
    assert result.volume == pytest.approx(volume(frame), rel=1e-12)


def test_ascend_traces_are_monotone():
    cfg = AscentConfig(restarts=3, seed=9)
    start = random_tight_frame(5, 3, np.random.default_rng((9, 0)))
    result = ascend(start, cfg)
    for record in result.restarts:
        trace = np.array(record.trace)
        assert np.all(np.diff(trace) >= 0.0)
        assert result.volume >= record.volume - 1e-12
    assert is_tight(result.frame, 1e-9).ok


def test_ascend_outputs_satisfy_maximizer_properties():
    from framevol.exterior import subset_minors
    from framevol.zonotope import hyperplane_projection_volume

    for n, k in [(4, 2), (5, 3)]:
        cfg = AscentConfig(restarts=6, seed=4)
        start = random_tight_frame(n, k, np.random.default_rng((4, 0)))
        result = ascend(start, cfg)
        assert result.residual < cfg.tolerance
        assert ratio_check(result.frame).ok
        minors = np.abs(subset_minors(result.frame))
        assert minors.min() > 1e-12 * minors.max()  # general position
        total = volume(result.frame)
        for i in range(1, n + 1):
            norm = float(np.linalg.norm(result.frame.vectors[i - 1]))
            gap = abs(hyperplane_projection_volume(result.frame, i) - norm * total)
            assert gap < 10.0 * cfg.tolerance


def test_ascend_reports_lowest_restart_among_rounding_ties():
    # The (3, 2) maximum sqrt 3 is reached by every restart, up to the last bits.
    start = random_tight_frame(3, 2, np.random.default_rng((1, 0)))
    result = ascend(start, AscentConfig(restarts=20, seed=1))
    top = max(record.volume for record in result.restarts)
    assert all(record.volume >= top * (1.0 - 1e-12) for record in result.restarts)
    assert result.frame is result.restarts[0].frame
    assert result.volume == result.restarts[0].volume


def test_ascend_evaluates_each_retracted_frame_once(monkeypatch):
    import framevol.optimize as optimize
    import framevol.zonotope as zonotope

    counts = {"det": 0, "minors": 0, "retract": 0}
    det, minors, retract_frame = np.linalg.det, zonotope._minors, optimize.retract

    def counting_det(a):
        counts["det"] += 1
        return det(a)

    def counting_minors(vectors):
        counts["minors"] += 1
        return minors(vectors)

    def counting_retract(frame):
        counts["retract"] += 1
        return retract_frame(frame)

    monkeypatch.setattr(np.linalg, "det", counting_det)
    monkeypatch.setattr(zonotope, "_minors", counting_minors)
    monkeypatch.setattr(optimize, "retract", counting_retract)
    start = random_tight_frame(7, 3, np.random.default_rng((5, 0)))
    result = ascend(start, AscentConfig(restarts=1))
    assert result.iterations >= 5
    assert counts["minors"] <= counts["retract"] + 2  # the start, plus one spare
    assert counts["det"] == 0  # every minor comes from the Laplace kernel


def test_ascend_work_does_not_hang_on_rounding(monkeypatch):
    # The ascent commutes with rotations and row permutations, which change
    # only the rounding.  A line search that compares volumes below their
    # rounding would backtrack to its limit on some copies and not on others.
    import framevol.optimize as optimize

    counts = []
    retract_frame = optimize.retract

    def counting_retract(frame):
        counts[-1] += 1
        return retract_frame(frame)

    monkeypatch.setattr(optimize, "retract", counting_retract)
    n, k = 11, 5
    start = random_tight_frame(n, k, np.random.default_rng((6, 0)))
    rng = np.random.default_rng(7)
    for _ in range(6):
        rotation = np.linalg.qr(rng.standard_normal((k, k)))[0]
        counts.append(0)
        result = ascend(TightFrame(start.vectors[rng.permutation(n)] @ rotation))
        assert result.converged
    assert max(counts) - min(counts) <= 2, counts


def test_ascend_pins_the_critical_points_reached():
    # The start of `maximize --n 10 --k 5 --restarts 2 --seed 3`.  A change of
    # the step rule that moves the critical point reached fails here.
    start = random_tight_frame(10, 5, np.random.default_rng((3, 0)))
    result = ascend(start, AscentConfig(restarts=2, seed=3))
    volumes = [record.volume for record in result.restarts]
    assert volumes == pytest.approx([14.045759848938328, 13.935779374549462], rel=1e-12)
    assert [record.iterations for record in result.restarts] == [14, 16]
    assert all(record.converged for record in result.restarts)


@pytest.mark.parametrize(
    "start, volume_at_stop",
    [
        (TightFrame(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])), 1.0),
        (retract(Frame([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])), sqrt(2.0)),
    ],
    ids=["zero-vector", "repeated-vector"],
)
def test_ascend_does_not_call_degenerate_critical_points_converged(start, volume_at_stop):
    # Both starts satisfy the first-order identity, because sigma vanishes on
    # their zero minors, yet neither is a maximum: that is sqrt 3.
    result = ascend(start, AscentConfig(restarts=1))
    assert result.residual < 1e-15
    assert result.volume == pytest.approx(volume_at_stop, rel=1e-12)
    assert not result.converged
    assert not result.restarts[0].converged


def test_ascend_config_has_only_tolerance_restarts_and_seed():
    assert [f.name for f in fields(AscentConfig)] == ["tolerance", "restarts", "seed"]


def test_ascend_config_validation():
    with pytest.raises(ValueError):
        AscentConfig(restarts=0)
    for tolerance in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            AscentConfig(tolerance=tolerance)


# ---------------------------------------------------------------- ratio check


def test_ratio_check_equal_norms(mercedes):
    check = ratio_check(mercedes)
    assert check.min_ratio == pytest.approx(1.0, abs=1e-12)
    assert check.ok


def test_ratio_check_doubled_direction():
    frame = retract(Frame([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    check = ratio_check(frame)
    assert check.min_ratio == pytest.approx(0.5, abs=1e-12)
    assert check.ok  # 1/2 > sqrt(2) - 1


def test_ratio_check_zero_vector():
    frame = Frame([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    check = ratio_check(frame)
    assert check.min_ratio == 0.0
    assert not check.ok


# ---------------------------------------------------------------- determinant expansion


def test_determinant_expansion_slope(rng):
    for _ in range(5):
        frame = random_tight_frame(6, 3, rng)
        directions = rng.standard_normal(frame.vectors.shape)
        check = determinant_expansion_check(frame, directions)
        assert check.relative_error < 1e-5
        # remainder after the predicted slope scales like t^2
        assert max(check.quadratic_ratios) <= 4.0 * min(check.quadratic_ratios) + 1.0


def test_trace_normalized_determinant_bound(rng):
    # AM-GM: det A <= 1 once sum |v_i|^2 = k
    for _ in range(200):
        vectors = rng.standard_normal((5, 3))
        vectors *= sqrt(3.0 / np.sum(vectors**2))
        det = np.linalg.det(vectors.T @ vectors)
        assert det <= 1.0 + 1e-12


# ---------------------------------------------------------------- stability scan


def test_stability_scan_q1():
    rows = stability_scan(1, 3, 5, AscentConfig(restarts=4, seed=7))
    assert [row.n for row in rows] == [3, 4, 5]
    first = rows[0]
    assert first.ratio == pytest.approx(1.0, abs=1e-6)
    for row in rows:
        assert row.k == row.n - 1
        assert row.ratio >= row.lower_bound - 1e-6
        assert row.lower_bound == pytest.approx(stability_lower_bound(1, row.n))


def test_stability_scan_validation():
    with pytest.raises(ValueError):
        stability_scan(3, 3, 5)
    with pytest.raises(ValueError):
        stability_scan(1, 5, 4)
