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
from dataclasses import asdict, fields
from math import comb, inf

import numpy as np

from .exterior import (
    _cross_tight,
    _gram_defect,
    _lagrange,
    _unit_decomposition,
    _volume_identity,
    compound_matrix,
    hodge_defining_residual,
)
from .frames import frame_document, random_tight_frame
from .optimize import AscentConfig, OptimizationResult, _expansion_fit, ascend, stability_scan
from .zonotope import _mcmullen_volumes, bounds

DEFAULT_SEED = 7
DEFAULT_TOL = 1e-9
SLOPE_TOL = 1e-5  # relative tolerance of the determinant-expansion slope
MAX_N = 14  # C(n, k) cost cap

CSV_HEADER = "n,k,seed,volume,bound_binomial,bound_ball,residual,min_norm_sq,max_norm_sq"

_MIN_SLOPE = 0.05  # redraw perturbations whose predicted slope is this small
# Entries allowed in the largest stacked temporary of one block of trial frames, the
# Lagrange gather of C(n, k) * max(k, n - k)^2 entries per frame: 7 frames at (8, 4).
# Larger blocks save little more time and raise the peak memory of a verify run.
_BLOCK_ENTRIES = 1 << 13


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

    Trial t draws its frame and directions with the seed (seed, n, k, t); the
    identities then run over blocks of stacked frames, through the kernels of
    their per-frame functions.  Returns the rows [identity, max residual,
    tolerance, pass] in name order and the identities skipped at n == k.
    """
    worst: dict[str, tuple[float, float]] = {}
    complement = n > k  # the complement identities need n - k >= 1

    def bump(name: str, values, threshold: float = tol) -> None:
        worst[name] = (max(worst.get(name, (0.0,))[0], *map(float, values)), threshold)

    bump("hodge_defining", [hodge_defining_residual(n)])
    bump("cauchy_binet", [_cauchy_binet_residual(np.random.default_rng((seed, n, k)))])
    block = max(1, _BLOCK_ENTRIES // (comb(n, k) * max(k, n - k) ** 2))
    for start in range(0, trials, block):
        frames, directions = [], []
        for trial in range(start, min(start + block, trials)):
            rng = np.random.default_rng((seed, n, k, trial))
            frame = random_tight_frame(n, k, rng)
            frames.append(frame.vectors)
            directions.append(_expansion_directions(frame, rng))
        vectors = np.stack(frames)
        bump("tightness", _gram_defect(vectors))
        bump("cross_tight", _cross_tight(vectors))
        if k >= 2:
            bump("unit_decomposition_l2", _unit_decomposition(vectors, 2))
        bump("unit_decomposition_lk", _unit_decomposition(vectors, k))
        for size in (1, 2):
            if size <= k:
                bump("volume_identity", _volume_identity(vectors, size))
        if complement:
            bump("lagrange", _lagrange(vectors))
            primal, dual = _mcmullen_volumes(vectors)
            bump("mcmullen", np.abs(primal - dual))
        bump("det_expansion_slope", _expansion_fit(vectors, np.stack(directions))[:, 2], SLOPE_TOL)
    rows = [[name, value, limit, value <= limit] for name, (value, limit) in sorted(worst.items())]
    return rows, [] if complement else ["lagrange", "mcmullen"]


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
    volumes = [run.volume, pair.binomial, pair.ball]
    return [n, k, seed, *volumes, run.residual, run.min_norm_sq, run.max_norm_sq]


def cmd_verify(args: argparse.Namespace) -> tuple[dict, str, list[list], int]:
    rows, skipped = run_identity_trials(args.n, args.k, args.trials, args.seed, args.tol)
    for name in skipped:
        _note(args, f"notice: {name} skipped (n == k has no complement)")
    for name, value, limit, ok in rows:
        state = "ok" if ok else "VIOLATION"
        _note(args, f"{name:<24} max residual {value:.3e}  (tol {limit:.1e})  {state}")
    passed = all(row[3] for row in rows)
    echo = {"command": "verify", "n": args.n, "k": args.k, "trials": args.trials, "seed": args.seed}
    identities = {
        name: {"max_residual": value, "tolerance": limit, "pass": ok}
        for name, value, limit, ok in rows
    }
    doc = echo | {"identities": identities, "skipped": skipped, "pass": passed}
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
            {f.name: getattr(record, f.name) for f in fields(record) if f.name != "frame"}
            for record in result.restarts
        ],
    }


def cmd_maximize(args: argparse.Namespace) -> tuple[dict, str, list[list], int]:
    start = random_tight_frame(args.n, args.k, np.random.default_rng((args.seed, 0)))
    result = ascend(start, args.config)
    if not result.converged:
        print(f"warning: best restart stalled at residual {result.residual:.3e}", file=sys.stderr)
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


def _count(low: int, high: float = inf):
    """argparse type of an integer option in [low, high]; a finite high is the n cost cap."""
    span = f"in [{low}, {high}] (the n <= {high} cost cap)" if high < inf else f">= {low}"

    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"expected an integer {span}, got {text!r}")
        return value

    return count


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite positive number."""
    try:
        tol = float(text)
    except ValueError:
        tol = -1.0
    if not 0.0 < tol < inf:
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framevol",
        description="Tight-frame identities and zonotope volume maximization.",
        epilog="Options must be spelled in full; prefixes such as --n-mi are refused.",
        allow_abbrev=False,
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
        p.add_argument("--seed", type=_count(0), default=DEFAULT_SEED, help="master RNG seed")
        p.add_argument("--tol", type=_tolerance, default=tol, help=f"tolerance (default {tol:g})")
        add_output(p)

    def add_command(name: str, summary: str, run) -> argparse.ArgumentParser:
        command = sub.add_parser(name, help=summary, allow_abbrev=False)
        # The subcommand's own parser reports its usage errors, with its usage line.
        command.set_defaults(run=run, usage_error=command.error)
        return command

    size, positive = _count(1, MAX_N), _count(1)
    verify = add_command("verify", "run the identity suite on random tight frames", cmd_verify)
    verify.add_argument("--n", type=size, required=True)
    verify.add_argument("--k", type=positive, required=True)
    verify.add_argument("--trials", type=positive, default=20)
    add_run(verify, DEFAULT_TOL)

    maximize = add_command("maximize", "maximize the zonotope volume at (n, k)", cmd_maximize)
    maximize.add_argument("--n", type=size, required=True)
    maximize.add_argument("--k", type=positive, required=True)
    maximize.add_argument("--restarts", type=positive, default=8)
    add_run(maximize, AscentConfig.tolerance)

    sweep = add_command("sweep", "stability scan at codimension q", cmd_sweep)
    sweep.add_argument("--q", type=positive, required=True)
    sweep.add_argument("--n-min", dest="n_min", type=size, required=True)
    sweep.add_argument("--n-max", dest="n_max", type=size, required=True)
    sweep.add_argument("--restarts", type=positive, default=6)
    add_run(sweep, AscentConfig.tolerance)

    bound = add_command("bounds", "print projection volume bounds", cmd_bounds)
    bound.add_argument("--n-min", dest="n_min", type=size, required=True)
    bound.add_argument("--n-max", dest="n_max", type=size, required=True)
    bound.add_argument("--k", type=positive, default=None)
    add_output(bound)
    return parser


def _validate(args: argparse.Namespace) -> None:
    """Check the rules between options; each option's own range is its argparse type."""
    error = args.usage_error
    if args.command in ("verify", "maximize") and args.k > args.n:
        error(f"need k <= n, got n={args.n}, k={args.k}")
    if args.command == "sweep" and args.q >= args.n_min:
        error(f"need q < n-min, got q={args.q}, n-min={args.n_min}")
    if args.command in ("sweep", "bounds") and args.n_max < args.n_min:
        error("empty range: --n-max below --n-min")
    if args.command == "bounds" and args.k is not None and args.k > args.n_max:
        error(f"need k <= n-max, got k={args.k}, n-max={args.n_max}")
    if args.command in ("maximize", "sweep"):
        args.config = AscentConfig(tolerance=args.tol, restarts=args.restarts, seed=args.seed)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        args.usage_error(f"unrecognized arguments: {' '.join(unknown)}")
    _validate(args)
    doc, header, rows, code = args.run(args)
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
