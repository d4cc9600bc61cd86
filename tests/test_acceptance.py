"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Tolerances are pinned here and never relaxed at runtime.
"""

import time
from math import sqrt

import numpy as np
import pytest

from framevol.cli import _cauchy_binet_residual
from framevol.exterior import (
    form_inner,
    hodge_defining_residual,
    lagrange_residual,
    minor_vector,
    unit_decomposition_residual,
    verify_cross_tight,
    volume_identity_residual,
)
from framevol.frames import Frame, is_tight, random_tight_frame
from framevol.optimize import (
    RATIO_BOUND,
    AscentConfig,
    ascend,
    determinant_expansion_check,
    objective,
    ratio_check,
    stability_lower_bound,
    stability_scan,
)
from framevol.zonotope import (
    hyperplane_projection_volume,
    mcmullen_check,
    sign_vector,
    volume,
)

SEED = 1000


def _report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _grid_cells(n_range, k_cap, strict_corank=False):
    cells = []
    for n in n_range:
        top = min(k_cap, n - 1 if strict_corank else n)
        for k in range(1, top + 1):
            cells.append((n, k))
    return cells


def _frames_over_grid(cells, count, seed):
    """Deterministic sample of ``count`` tight frames cycling over grid cells."""
    out = []
    trial = 0
    while len(out) < count:
        for n, k in cells:
            if len(out) >= count:
                break
            rng = np.random.default_rng((seed, n, k, trial))
            out.append((random_tight_frame(n, k, rng), rng))
        trial += 1
    return out


@pytest.fixture(scope="module")
def maximizer_runs():
    """Shared ascents for criteria 4-6: (n, k) -> (result, elapsed seconds)."""
    runs = {}
    for n, k in [(3, 2), (4, 2), (5, 2)]:
        cfg = AscentConfig(restarts=20, seed=SEED)
        start = random_tight_frame(n, k, np.random.default_rng((SEED, 0)))
        begin = time.perf_counter()
        runs[(n, k)] = (ascend(start, cfg), time.perf_counter() - begin)
    return runs


def test_criterion_1_identity_suite():
    tol = 1e-9
    budget = 10.0
    cells = _grid_cells(range(3, 11), 5)
    begin = time.perf_counter()
    frames = _frames_over_grid(cells, 100, SEED)
    worst = 0.0
    hodge_seen = {}
    binet_seen = {}
    for frame, _ in frames:
        n, k = frame.n, frame.k
        worst = max(worst, is_tight(frame).residual)
        worst = max(worst, verify_cross_tight(frame))
        if k >= 2:
            worst = max(worst, unit_decomposition_residual(frame, 2))
        worst = max(worst, unit_decomposition_residual(frame, k))
        for size in (1, 2):
            if size <= k:
                worst = max(worst, volume_identity_residual(frame, size))
        if n > k:
            worst = max(worst, lagrange_residual(frame))
        if n not in hodge_seen:
            hodge_seen[n] = hodge_defining_residual(n)
        if (n, k) not in binet_seen:
            binet_seen[(n, k)] = _cauchy_binet_residual(
                np.random.default_rng((SEED, n, k))
            )
    worst = max([worst, *hodge_seen.values(), *binet_seen.values()])
    elapsed = time.perf_counter() - begin
    ok = worst <= tol and elapsed < budget
    assert _report(
        1, ok, f"max residual {worst:.3e} (tol 1e-9), {elapsed:.1f}s over 100 frames"
    )


def test_criterion_2_determinant_expansion():
    rel_tol = 1e-5
    cells = _grid_cells(range(3, 9), 4)
    worst_rel = 0.0
    ratios_ok = True
    for frame, rng in _frames_over_grid(cells, 50, SEED + 1):
        directions = rng.standard_normal(frame.vectors.shape)
        directions /= np.linalg.norm(directions)
        while abs(2.0 * float(np.sum(directions * frame.vectors))) < 0.05:
            directions = rng.standard_normal(frame.vectors.shape)
            directions /= np.linalg.norm(directions)
        check = determinant_expansion_check(frame, directions)
        worst_rel = max(worst_rel, check.relative_error)
        ratios_ok = ratios_ok and (
            max(check.quadratic_ratios) <= 4.0 * min(check.quadratic_ratios) + 1.0
        )
    ok = worst_rel <= rel_tol and ratios_ok
    assert _report(
        2,
        ok,
        f"slope max rel err {worst_rel:.3e} (tol 1e-5), remainder O(t^2): {ratios_ok}",
    )


def test_criterion_3_mcmullen():
    tol = 1e-9
    cells = _grid_cells(range(2, 9), 7, strict_corank=True)
    worst = 0.0
    for frame, _ in _frames_over_grid(cells, 100, SEED + 2):
        worst = max(worst, mcmullen_check(frame).gap)
    ok = worst <= tol
    assert _report(3, ok, f"max |F - F_dual| {worst:.3e} over 100 frames (tol 1e-9)")


def test_criterion_4_maximizer_n3_k2(maximizer_runs):
    result, elapsed = maximizer_runs[(3, 2)]
    norms = np.sum(result.frame.vectors**2, axis=1)
    vol_ok = abs(result.volume - sqrt(3.0)) <= 1e-6
    norm_ok = bool(np.all(np.abs(norms - 2.0 / 3.0) <= 1e-6))
    res_ok = result.residual < 1e-8
    time_ok = elapsed < 5.0
    ok = vol_ok and norm_ok and res_ok and time_ok
    assert _report(
        4,
        ok,
        f"volume {result.volume:.9f} vs sqrt3 {sqrt(3.0):.9f}, "
        f"norms^2 in [{norms.min():.9f}, {norms.max():.9f}], "
        f"residual {result.residual:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_maximizers_n4_n5_k2(maximizer_runs):
    result4, _ = maximizer_runs[(4, 2)]
    result5, _ = maximizer_runs[(5, 2)]
    ok4 = abs(result4.volume - sqrt(6.0)) <= 1e-4
    ok5 = abs(result5.volume - sqrt(10.0)) <= 1e-3
    ok = ok4 and ok5
    assert _report(
        5,
        ok,
        f"n=4: best {result4.volume:.9f} vs sqrt6 {sqrt(6.0):.9f} "
        f"(gap {sqrt(6.0) - result4.volume:.2e}); "
        f"n=5: best {result5.volume:.9f} vs sqrt10 {sqrt(10.0):.9f} "
        f"(gap {sqrt(10.0) - result5.volume:.2e})",
    )


def test_criterion_6_first_order_identities_at_optima(maximizer_runs):
    worst_sigma = 0.0
    worst_projection = 0.0
    for (n, k), (result, _) in maximizer_runs.items():
        frame = result.frame
        vectors = frame.vectors
        total = volume(frame)
        for i in range(1, n + 1):
            sigma = sign_vector(frame, i)
            for j in range(1, n + 1):
                lhs = form_inner(sigma.form, minor_vector(frame, j))
                worst_sigma = max(worst_sigma, abs(lhs - vectors[i - 1] @ vectors[j - 1]))
            projected = hyperplane_projection_volume(frame, i)
            expected = float(np.linalg.norm(vectors[i - 1])) * total
            worst_projection = max(worst_projection, abs(projected - expected))
    ok = worst_sigma < 1e-6 and worst_projection < 1e-6
    assert _report(
        6,
        ok,
        f"max |<sigma,d> - <v,v>| {worst_sigma:.2e}, "
        f"max hyperplane identity gap {worst_projection:.2e} (tol 1e-6)",
    )


def test_criterion_7_ratio_bound_at_optima():
    tol = 1e-9
    worst_ratio = np.inf
    worst_case = None
    for n in range(3, 9):
        for k in sorted({2, 3, n - 2, n - 1} & set(range(1, n + 1))):
            cfg = AscentConfig(restarts=10, seed=SEED)
            start = random_tight_frame(n, k, np.random.default_rng((SEED, 0)))
            result = ascend(start, cfg)
            check = ratio_check(result.frame, tol)
            if check.min_ratio < worst_ratio:
                worst_ratio, worst_case = check.min_ratio, (n, k)
    ok = worst_ratio >= RATIO_BOUND - tol
    assert _report(
        7,
        ok,
        f"min |v_i|^2/|v_j|^2 = {worst_ratio:.6f} at (n,k)={worst_case}, "
        f"bound sqrt(2)-1 = {RATIO_BOUND:.6f}",
    )


def test_criterion_8_gl_invariance():
    tol = 1e-9
    rng = np.random.default_rng(SEED + 8)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(2, min(5, n) + 1))
        frame = random_tight_frame(n, k, rng)
        left, _ = np.linalg.qr(rng.standard_normal((k, k)))
        right, _ = np.linalg.qr(rng.standard_normal((k, k)))
        singulars = np.exp(rng.uniform(np.log(0.1), np.log(100.0), size=k))
        linear = (left * singulars) @ right  # condition number <= 1e3
        mapped = Frame(frame.vectors @ linear.T)
        reference = objective(frame)
        worst = max(worst, abs(objective(mapped) - reference) / reference)
    ok = worst < tol
    assert _report(8, ok, f"max relative G drift {worst:.3e} over 100 maps (tol 1e-9)")


def test_criterion_9_trace_normalized_determinant():
    rng = np.random.default_rng(SEED + 9)
    det_ok = True
    equality_ok = True
    worst_det = -np.inf
    for trial in range(1000):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, min(5, n) + 1))
        if trial % 10 == 0:
            vectors = random_tight_frame(n, k, rng).vectors.copy()
        else:
            vectors = rng.standard_normal((n, k))
        vectors *= sqrt(k / float(np.sum(vectors**2)))
        operator = vectors.T @ vectors
        det = float(np.linalg.det(operator))
        worst_det = max(worst_det, det)
        if det > 1.0 + 1e-12:
            det_ok = False
        if det >= 1.0 - 1e-9:
            residual = float(np.linalg.norm(operator - np.eye(k)))
            if residual >= 1e-6:
                equality_ok = False
    ok = det_ok and equality_ok
    assert _report(
        9,
        ok,
        f"max det A {worst_det:.15f} (bound 1 + 1e-12), "
        f"near-equality implies tightness: {equality_ok}",
    )


def test_criterion_10_stability_trend():
    rows = stability_scan(1, 3, 8, AscentConfig(restarts=8, seed=SEED))
    margins_ok = all(row.ratio >= row.lower_bound - 1e-6 for row in rows)
    trend_ok = rows[-1].ratio > stability_lower_bound(1, 3)
    ok = margins_ok and trend_ok
    detail = ", ".join(f"n={row.n}: {row.ratio:.6f}>={row.lower_bound:.6f}" for row in rows)
    assert _report(10, ok, f"{detail}; ratio(n=8) > bound(n=3): {trend_ok}")
