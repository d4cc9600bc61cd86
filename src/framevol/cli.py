"""Command-line experiment harness.

Subcommands:
  verify    -- run the identity suite over seeded random tight frames
  maximize  -- multistart ascent of the zonotope volume at fixed (n, k)
  sweep     -- stability scan at codimension q over a range of n
  bounds    -- upper-bound table for cube projections

Each command prints its human-readable notes to stderr and returns its data
document, a CSV header and the CSV rows; ``main`` renders JSON from the
document or CSV from the rows and writes it once, to stdout or --out.
Identical configurations produce byte-identical output.  Exit codes:
0 success, 1 identity violation, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from math import inf

import numpy as np

from .exterior import (
    hodge_defining_residual,
    compound_matrix,
    lagrange_residual,
    unit_decomposition_residual,
    verify_cross_tight,
    volume_identity_residual,
)
from .frames import frame_document, is_tight, random_tight_frame
from .optimize import (
    AscentConfig,
    OptimizationResult,
    ascend,
    determinant_expansion_check,
    stability_scan,
)
from .zonotope import bounds, mcmullen_check

DEFAULT_SEED = 7
DEFAULT_TOL = 1e-9
SLOPE_TOL = 1e-5  # relative tolerance of the determinant-expansion slope
MAX_N = 14  # C(n, k) cost cap

CSV_HEADER = "n,k,seed,volume,bound_binomial,bound_ball,residual,min_norm_sq,max_norm_sq"

_MIN_SLOPE = 0.05  # redraw perturbations whose predicted slope is this small


def _cauchy_binet_residual(rng: np.random.Generator) -> float:
    """Relative residual of compound(AB) = compound(A) compound(B) on random matrices."""
    worst = 0.0
    for a_rows, inner, b_cols, level in ((4, 5, 4, 2), (5, 6, 5, 3), (6, 6, 6, 2)):
        a = rng.standard_normal((a_rows, inner))
        b = rng.standard_normal((inner, b_cols))
        left = compound_matrix(a @ b, level)
        right = compound_matrix(a, level) @ compound_matrix(b, level)
        scale = max(1.0, float(np.linalg.norm(left)))
        worst = max(worst, float(np.linalg.norm(left - right)) / scale)
    return worst


def _expansion_directions(frame, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm perturbation directions whose predicted slope is not tiny.

    Normalizing keeps the higher-order coefficients of det A(t) small, so
    the quadratic fit extracts the slope cleanly at every frame size.
    """
    for _ in range(100):
        directions = rng.standard_normal(frame.vectors.shape)
        directions /= np.linalg.norm(directions)
        if abs(2.0 * float(np.sum(directions * frame.vectors))) >= _MIN_SLOPE:
            return directions
    return directions


def run_identity_trials(
    n: int, k: int, trials: int, seed: int, tol: float = DEFAULT_TOL
) -> tuple[list[list], list[str]]:
    """Max residual of every identity over ``trials`` seeded random tight frames.

    Returns the rows [identity, max residual, tolerance, pass] in name order
    and the identities skipped because n == k leaves no complement.
    """
    worst: dict[str, tuple[float, float]] = {}

    def bump(name: str, value: float, threshold: float = tol) -> None:
        worst[name] = (max(worst.get(name, (0.0,))[0], float(value)), threshold)

    bump("hodge_defining", hodge_defining_residual(n))
    bump("cauchy_binet", _cauchy_binet_residual(np.random.default_rng((seed, n, k))))
    for trial in range(trials):
        rng = np.random.default_rng((seed, n, k, trial))
        frame = random_tight_frame(n, k, rng)
        bump("tightness", is_tight(frame).residual)
        bump("cross_tight", verify_cross_tight(frame))
        if k >= 2:
            bump("unit_decomposition_l2", unit_decomposition_residual(frame, 2))
        bump("unit_decomposition_lk", unit_decomposition_residual(frame, k))
        for size in (1, 2):
            if size <= k:
                bump("volume_identity", volume_identity_residual(frame, size))
        if n > k:
            bump("lagrange", lagrange_residual(frame))
            bump("mcmullen", mcmullen_check(frame).gap)
        check = determinant_expansion_check(frame, _expansion_directions(frame, rng))
        bump("det_expansion_slope", check.relative_error, SLOPE_TOL)
    rows = [[name, value, limit, value <= limit] for name, (value, limit) in sorted(worst.items())]
    return rows, ["lagrange", "mcmullen"] if n == k else []


def _note(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _csv_cell(cell) -> str:
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, float):
        return repr(cell)
    return str(cell)


def _csv_row(n: int, k: int, seed: int, run) -> list:
    """The CSV_HEADER row of an OptimizationResult or a StabilityRow at (n, k)."""
    pair = bounds(n, k)
    return [
        n,
        k,
        seed,
        run.volume,
        pair.binomial,
        pair.ball,
        run.residual,
        run.min_norm_sq,
        run.max_norm_sq,
    ]


def cmd_verify(args: argparse.Namespace) -> tuple[dict, str, list[list], int]:
    rows, skipped = run_identity_trials(args.n, args.k, args.trials, args.seed, args.tol)
    for name in skipped:
        _note(args, f"notice: {name} skipped (n == k has no complement)")
    for name, value, limit, ok in rows:
        state = "ok" if ok else "VIOLATION"
        _note(args, f"{name:<24} max residual {value:.3e}  (tol {limit:.1e})  {state}")
    passed = all(row[3] for row in rows)
    doc = {
        "command": "verify",
        "n": args.n,
        "k": args.k,
        "trials": args.trials,
        "seed": args.seed,
        "identities": {
            name: {"max_residual": value, "tolerance": limit, "pass": ok}
            for name, value, limit, ok in rows
        },
        "skipped": skipped,
        "pass": passed,
    }
    return doc, "identity,max_residual,tolerance,pass", rows, 0 if passed else 1


def _result_document(args: argparse.Namespace, result: OptimizationResult) -> dict:
    pair = bounds(result.frame.n, result.frame.k)
    return {
        "command": args.command,
        "n": result.frame.n,
        "k": result.frame.k,
        "seed": args.seed,
        "config": asdict(result.config),
        "volume": result.volume,
        "bound_binomial": pair.binomial,
        "bound_ball": pair.ball,
        "gap_to_binomial": pair.binomial - result.volume,
        "residual": result.residual,
        "converged": result.converged,
        "iterations": result.iterations,
        "min_norm_sq": result.min_norm_sq,
        "max_norm_sq": result.max_norm_sq,
        "ratio_check": {"min_ratio": result.ratio.min_ratio, "pass": result.ratio.ok},
        "frame": frame_document(result.frame),
        "restarts": [
            {
                "restart": record.restart,
                "volume": record.volume,
                "residual": record.residual,
                "iterations": record.iterations,
                "converged": record.converged,
                "trace": list(record.trace),
            }
            for record in result.restarts
        ],
    }


def cmd_maximize(args: argparse.Namespace) -> tuple[dict, str, list[list], int]:
    start = random_tight_frame(args.n, args.k, np.random.default_rng((args.seed, 0)))
    result = ascend(start, args.config)
    if not result.converged:
        print(
            f"warning: best restart stalled at residual {result.residual:.3e}",
            file=sys.stderr,
        )
    pair = bounds(args.n, args.k)
    _note(args, f"volume         {result.volume:.9g}")
    _note(args, f"bound sqrt(C)  {pair.binomial:.9g}")
    _note(args, f"gap            {pair.binomial - result.volume:.9g}")
    _note(
        args,
        f"norm spread    [{result.min_norm_sq:.9g}, {result.max_norm_sq:.9g}]"
        f"  (min ratio {result.ratio.min_ratio:.9g})",
    )
    _note(args, f"residual       {result.residual:.3e}")
    row = _csv_row(args.n, args.k, args.seed, result)
    return _result_document(args, result), CSV_HEADER, [row], 0


def cmd_sweep(args: argparse.Namespace) -> tuple[dict, str, list[list], int]:
    rows = stability_scan(args.q, args.n_min, args.n_max, args.config)
    _note(args, f"{'n':>3} {'k':>3} {'volume':>14} {'ratio':>12} {'bound':>12}")
    for row in rows:
        _note(
            args,
            f"{row.n:>3} {row.k:>3} {row.volume:>14.9g} {row.ratio:>12.9g}"
            f" {row.lower_bound:>12.9g}",
        )
    doc = {
        "command": "sweep",
        "q": args.q,
        "seed": args.seed,
        "rows": [asdict(row) | {"seed": args.seed} for row in rows],
    }
    table = [_csv_row(row.n, row.k, args.seed, row) for row in rows]
    return doc, CSV_HEADER, table, 0


def cmd_bounds(args: argparse.Namespace) -> tuple[dict, str, list[list], int]:
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        for k in range(1, n + 1):
            if args.k in (None, k):
                pair = bounds(n, k)
                rows.append([n, k, pair.binomial, pair.ball, pair.ball < pair.binomial])
    _note(args, f"{'n':>3} {'k':>3} {'sqrt(C(n,k))':>14} {'ball bound':>14}")
    for n, k, binomial, ball, flagged in rows:
        marker = "  (ball < binomial)" if flagged else ""
        _note(args, f"{n:>3} {k:>3} {binomial:>14.9g} {ball:>14.9g}{marker}")
    header = "n,k,bound_binomial,bound_ball,ball_below_binomial"
    doc = {"command": "bounds", "rows": [dict(zip(header.split(","), row)) for row in rows]}
    return doc, header, rows, 0


def _seed(text: str) -> int:
    """argparse type of --seed: numpy takes only non-negative integer seeds."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framevol",
        description="Tight-frame identities and zonotope volume maximization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None, help="write data output to this path")
        p.add_argument(
            "--format", dest="fmt", choices=("json", "csv"), default="json",
            help="data output format",
        )
        p.add_argument("--quiet", action="store_true", help="suppress diagnostics")

    def add_run(p: argparse.ArgumentParser, tol: float) -> None:
        p.add_argument("--seed", type=_seed, default=DEFAULT_SEED, help="master RNG seed")
        p.add_argument("--tol", type=float, default=tol, help=f"tolerance (default {tol:g})")
        add_output(p)

    verify = sub.add_parser("verify", help="run the identity suite on random tight frames")
    verify.add_argument("--n", type=int, required=True)
    verify.add_argument("--k", type=int, required=True)
    verify.add_argument("--trials", type=int, default=20)
    add_run(verify, DEFAULT_TOL)

    maximize = sub.add_parser("maximize", help="maximize the zonotope volume at (n, k)")
    maximize.add_argument("--n", type=int, required=True)
    maximize.add_argument("--k", type=int, required=True)
    maximize.add_argument("--restarts", type=int, default=8)
    add_run(maximize, AscentConfig.tolerance)

    sweep = sub.add_parser("sweep", help="stability scan at codimension q")
    sweep.add_argument("--q", type=int, required=True)
    sweep.add_argument("--n-min", dest="n_min", type=int, required=True)
    sweep.add_argument("--n-max", dest="n_max", type=int, required=True)
    sweep.add_argument("--restarts", type=int, default=6)
    add_run(sweep, AscentConfig.tolerance)

    bound = sub.add_parser("bounds", help="print projection volume bounds")
    bound.add_argument("--n", type=int, default=None)
    bound.add_argument("--k", type=int, default=None)
    bound.add_argument("--n-min", dest="n_min", type=int, default=None)
    bound.add_argument("--n-max", dest="n_max", type=int, default=None)
    add_output(bound)
    for command in sub.choices.values():
        command.set_defaults(usage_error=command.error)
    return parser


def _validate(args: argparse.Namespace) -> None:
    error = args.usage_error  # the subcommand's own parser reports the usage line
    if args.command in ("verify", "maximize"):
        if not 1 <= args.k <= args.n:
            error(f"need 1 <= k <= n, got n={args.n}, k={args.k}")
        if args.n > MAX_N:
            error(f"n={args.n} exceeds the n <= {MAX_N} cost cap")
    if args.command == "verify":
        if args.trials < 1:
            error("--trials must be positive")
        if not 0.0 < args.tol < inf:
            error("--tol must be finite and positive")
    elif args.command == "sweep":
        if not 0 < args.q < args.n_min:
            error(f"need 0 < q < n-min, got q={args.q}, n-min={args.n_min}")
        if args.n_max < args.n_min:
            error("empty range: --n-max below --n-min")
        if args.n_max > MAX_N:
            error(f"n-max={args.n_max} exceeds the n <= {MAX_N} cost cap")
    elif args.command == "bounds":
        if args.n is not None:
            if (args.n_min, args.n_max) != (None, None):
                error("--n cannot be combined with --n-min or --n-max")
            args.n_min = args.n_max = args.n
        if args.n_min is None or args.n_max is None:
            error("bounds needs --n or both --n-min and --n-max")
        if args.n_max > MAX_N:
            error(f"n={args.n_max} exceeds the n <= {MAX_N} cost cap")
        if args.k is not None and not 1 <= args.k <= args.n_max:
            error(f"--k must lie in [1, {args.n_max}], got {args.k}")
        if args.n_max < args.n_min:
            error("empty range: --n-max below --n-min")
        if args.n_min < 1:
            error("n must be positive")
    if args.command in ("maximize", "sweep"):
        try:
            args.config = AscentConfig(tolerance=args.tol, restarts=args.restarts, seed=args.seed)
        except ValueError as exc:
            error(str(exc))


_COMMANDS = {
    "verify": cmd_verify,
    "maximize": cmd_maximize,
    "sweep": cmd_sweep,
    "bounds": cmd_bounds,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        args.usage_error(f"unrecognized arguments: {' '.join(unknown)}")
    _validate(args)
    doc, header, rows, code = _COMMANDS[args.command](args)
    if args.fmt == "json":
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = "\n".join([header, *(",".join(map(_csv_cell, row)) for row in rows)]) + "\n"
    if args.out is None:
        sys.stdout.write(text)
        return code
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
