"""Command-line experiment harness.

Subcommands:
  verify    -- run the identity suite over seeded random tight frames
  maximize  -- multistart ascent of the zonotope volume at fixed (n, k)
  sweep     -- stability scan at codimension q over a range of n
  bounds    -- upper-bound table for cube projections

Machine-readable data (JSON or CSV) goes to stdout or --out; progress and
human-readable summaries go to stderr.  Identical configurations produce
byte-identical output.  Exit codes: 0 success, 1 identity violation,
2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass

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
from .multiindex import multi_indices
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


class OutputError(RuntimeError):
    """Writing the data output failed."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    n: int | None = None
    k: int | None = None
    q: int | None = None
    n_min: int | None = None
    n_max: int | None = None
    trials: int = 20
    restarts: int = 8
    seed: int = DEFAULT_SEED
    tol: float | None = None
    out: str | None = None
    fmt: str = "json"
    quiet: bool = False


@dataclass
class IdentityReport:
    n: int
    k: int
    trials: int
    seed: int
    residuals: dict[str, float]
    thresholds: dict[str, float]
    skipped: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(
            self.residuals[name] <= self.thresholds[name] for name in self.residuals
        )


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
) -> IdentityReport:
    """Max residual of every identity over ``trials`` seeded random tight frames."""
    residuals: dict[str, float] = {}
    thresholds: dict[str, float] = {}
    skipped: list[str] = []

    def bump(name: str, value: float, threshold: float = tol) -> None:
        residuals[name] = max(residuals.get(name, 0.0), float(value))
        thresholds[name] = threshold

    bump("hodge_defining", hodge_defining_residual(n))
    bump("cauchy_binet", _cauchy_binet_residual(np.random.default_rng((seed, n, k))))
    if n == k:
        skipped.extend(["lagrange", "mcmullen"])

    for trial in range(trials):
        rng = np.random.default_rng((seed, n, k, trial))
        frame = random_tight_frame(n, k, rng)
        bump("tightness", is_tight(frame).residual)
        bump("cross_tight", verify_cross_tight(frame))
        if k >= 2:
            bump("unit_decomposition_l2", unit_decomposition_residual(frame, 2))
        bump("unit_decomposition_lk", unit_decomposition_residual(frame, k))
        for size in (1, 2):
            if size > k:
                continue
            for index in multi_indices(n, size):
                bump("volume_identity", volume_identity_residual(frame, index))
        if n > k:
            for index in multi_indices(n, k):
                bump("lagrange", lagrange_residual(frame, index))
            bump("mcmullen", mcmullen_check(frame).gap)
        check = determinant_expansion_check(frame, _expansion_directions(frame, rng))
        bump("det_expansion_slope", check.relative_error, SLOPE_TOL)
    return IdentityReport(
        n=n,
        k=k,
        trials=trials,
        seed=seed,
        residuals=residuals,
        thresholds=thresholds,
        skipped=tuple(skipped),
    )


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {out}: {exc}") from exc


def _note(cfg: RunConfig, message: str) -> None:
    if not cfg.quiet:
        print(message, file=sys.stderr)


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _csv_text(header: str, rows: list[list]) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(_csv_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _csv_cell(cell) -> str:
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, float):
        return repr(cell)
    return str(cell)


def _run_row(cfg_seed: int, result: OptimizationResult) -> list:
    frame = result.frame
    pair = bounds(frame.n, frame.k)
    return [
        frame.n,
        frame.k,
        cfg_seed,
        result.volume,
        pair.binomial,
        pair.ball,
        result.residual,
        result.min_norm_sq,
        result.max_norm_sq,
    ]


def cmd_verify(cfg: RunConfig) -> int:
    tol = cfg.tol if cfg.tol is not None else DEFAULT_TOL
    report = run_identity_trials(cfg.n, cfg.k, cfg.trials, cfg.seed, tol)
    for name in report.skipped:
        _note(cfg, f"notice: {name} skipped (n == k has no complement)")
    for name in sorted(report.residuals):
        value = report.residuals[name]
        limit = report.thresholds[name]
        state = "ok" if value <= limit else "VIOLATION"
        _note(cfg, f"{name:<24} max residual {value:.3e}  (tol {limit:.1e})  {state}")
    doc = {
        "command": "verify",
        "n": report.n,
        "k": report.k,
        "trials": report.trials,
        "seed": report.seed,
        "identities": {
            name: {
                "max_residual": report.residuals[name],
                "tolerance": report.thresholds[name],
                "pass": report.residuals[name] <= report.thresholds[name],
            }
            for name in sorted(report.residuals)
        },
        "skipped": list(report.skipped),
        "pass": report.passed,
    }
    if cfg.fmt == "json":
        _emit(_json_text(doc), cfg.out)
    else:
        rows = [
            [name, report.residuals[name], report.thresholds[name],
             report.residuals[name] <= report.thresholds[name]]
            for name in sorted(report.residuals)
        ]
        _emit(_csv_text("identity,max_residual,tolerance,pass", rows), cfg.out)
    return 0 if report.passed else 1


def _ascent_config(cfg: RunConfig) -> AscentConfig:
    return AscentConfig(
        tolerance=cfg.tol if cfg.tol is not None else 1e-8,
        restarts=cfg.restarts,
        seed=cfg.seed,
    )


def _result_document(cfg: RunConfig, result: OptimizationResult) -> dict:
    pair = bounds(result.frame.n, result.frame.k)
    return {
        "command": cfg.command,
        "n": result.frame.n,
        "k": result.frame.k,
        "seed": cfg.seed,
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


def cmd_maximize(cfg: RunConfig) -> int:
    start = random_tight_frame(cfg.n, cfg.k, np.random.default_rng((cfg.seed, 0)))
    result = ascend(start, _ascent_config(cfg))
    if not result.converged:
        print(
            f"warning: best restart stalled at residual {result.residual:.3e}",
            file=sys.stderr,
        )
    pair = bounds(cfg.n, cfg.k)
    _note(cfg, f"volume         {result.volume:.9g}")
    _note(cfg, f"bound sqrt(C)  {pair.binomial:.9g}")
    _note(cfg, f"gap            {pair.binomial - result.volume:.9g}")
    _note(
        cfg,
        f"norm spread    [{result.min_norm_sq:.9g}, {result.max_norm_sq:.9g}]"
        f"  (min ratio {result.ratio.min_ratio:.9g})",
    )
    _note(cfg, f"residual       {result.residual:.3e}")
    if cfg.fmt == "json":
        _emit(_json_text(_result_document(cfg, result)), cfg.out)
    else:
        _emit(_csv_text(CSV_HEADER, [_run_row(cfg.seed, result)]), cfg.out)
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    rows = stability_scan(cfg.q, cfg.n_min, cfg.n_max, _ascent_config(cfg))
    _note(cfg, f"{'n':>3} {'k':>3} {'volume':>14} {'ratio':>12} {'bound':>12}")
    for row in rows:
        _note(
            cfg,
            f"{row.n:>3} {row.k:>3} {row.volume:>14.9g} {row.ratio:>12.9g}"
            f" {row.lower_bound:>12.9g}",
        )
    if cfg.fmt == "json":
        doc = {
            "command": "sweep",
            "q": cfg.q,
            "seed": cfg.seed,
            "rows": [asdict(row) | {"seed": cfg.seed} for row in rows],
        }
        _emit(_json_text(doc), cfg.out)
    else:
        table = [
            [
                row.n,
                row.k,
                cfg.seed,
                row.volume,
                bounds(row.n, row.k).binomial,
                bounds(row.n, row.k).ball,
                row.residual,
                row.min_norm_sq,
                row.max_norm_sq,
            ]
            for row in rows
        ]
        _emit(_csv_text(CSV_HEADER, table), cfg.out)
    return 0


def cmd_bounds(cfg: RunConfig) -> int:
    if cfg.n is not None:
        ns = [cfg.n]
    else:
        ns = list(range(cfg.n_min, cfg.n_max + 1))
    rows = []
    for n in ns:
        ks = [cfg.k] if cfg.k is not None else list(range(1, n + 1))
        for k in ks:
            if not 1 <= k <= n:
                continue
            pair = bounds(n, k)
            rows.append([n, k, pair.binomial, pair.ball, pair.ball < pair.binomial])
    _note(cfg, f"{'n':>3} {'k':>3} {'sqrt(C(n,k))':>14} {'ball bound':>14}")
    for n, k, binomial, ball, flagged in rows:
        marker = "  (ball < binomial)" if flagged else ""
        _note(cfg, f"{n:>3} {k:>3} {binomial:>14.9g} {ball:>14.9g}{marker}")
    if cfg.fmt == "json":
        doc = {
            "command": "bounds",
            "rows": [
                {
                    "n": n,
                    "k": k,
                    "bound_binomial": binomial,
                    "bound_ball": ball,
                    "ball_below_binomial": flagged,
                }
                for n, k, binomial, ball, flagged in rows
            ],
        }
        _emit(_json_text(doc), cfg.out)
    else:
        _emit(
            _csv_text("n,k,bound_binomial,bound_ball,ball_below_binomial", rows),
            cfg.out,
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framevol",
        description="Tight-frame identities and zonotope volume maximization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master RNG seed")
        p.add_argument("--tol", type=float, default=None, help="tolerance override")
        p.add_argument("--out", default=None, help="write data output to this path")
        p.add_argument(
            "--format", dest="fmt", choices=("json", "csv"), default="json",
            help="data output format",
        )
        p.add_argument("--quiet", action="store_true", help="suppress diagnostics")

    verify = sub.add_parser("verify", help="run the identity suite on random tight frames")
    verify.add_argument("--n", type=int, required=True)
    verify.add_argument("--k", type=int, required=True)
    verify.add_argument("--trials", type=int, default=20)
    add_common(verify)

    maximize = sub.add_parser("maximize", help="maximize the zonotope volume at (n, k)")
    maximize.add_argument("--n", type=int, required=True)
    maximize.add_argument("--k", type=int, required=True)
    maximize.add_argument("--restarts", type=int, default=8)
    add_common(maximize)

    sweep = sub.add_parser("sweep", help="stability scan at codimension q")
    sweep.add_argument("--q", type=int, required=True)
    sweep.add_argument("--n-min", dest="n_min", type=int, required=True)
    sweep.add_argument("--n-max", dest="n_max", type=int, required=True)
    sweep.add_argument("--restarts", type=int, default=6)
    add_common(sweep)

    bound = sub.add_parser("bounds", help="print projection volume bounds")
    bound.add_argument("--n", type=int, default=None)
    bound.add_argument("--k", type=int, default=None)
    bound.add_argument("--n-min", dest="n_min", type=int, default=None)
    bound.add_argument("--n-max", dest="n_max", type=int, default=None)
    add_common(bound)
    return parser


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(
        command=args.command,
        n=getattr(args, "n", None),
        k=getattr(args, "k", None),
        q=getattr(args, "q", None),
        n_min=getattr(args, "n_min", None),
        n_max=getattr(args, "n_max", None),
        trials=getattr(args, "trials", 20),
        restarts=getattr(args, "restarts", 8),
        seed=args.seed,
        tol=args.tol,
        out=args.out,
        fmt=args.fmt,
        quiet=args.quiet,
    )
    if cfg.command in ("verify", "maximize"):
        if not 1 <= cfg.k <= cfg.n:
            parser.error(f"need 1 <= k <= n, got n={cfg.n}, k={cfg.k}")
        if cfg.n > MAX_N:
            parser.error(f"n={cfg.n} exceeds the n <= {MAX_N} cost cap")
        if cfg.command == "verify" and cfg.trials < 1:
            parser.error("--trials must be positive")
        tol = DEFAULT_TOL if cfg.tol is None else cfg.tol
        if cfg.command == "verify" and not 0.0 < tol < float("inf"):
            parser.error("--tol must be finite and positive")
    elif cfg.command == "sweep":
        if cfg.q is None or cfg.n_min is None or cfg.n_max is None:
            parser.error("sweep needs --q, --n-min and --n-max")
        if not 0 < cfg.q < cfg.n_min:
            parser.error(f"need 0 < q < n-min, got q={cfg.q}, n-min={cfg.n_min}")
        if cfg.n_max < cfg.n_min:
            parser.error("empty range: --n-max below --n-min")
        if cfg.n_max > MAX_N:
            parser.error(f"n-max={cfg.n_max} exceeds the n <= {MAX_N} cost cap")
    elif cfg.command == "bounds":
        if cfg.n is None and (cfg.n_min is None or cfg.n_max is None):
            parser.error("bounds needs --n or both --n-min and --n-max")
        top = cfg.n if cfg.n is not None else cfg.n_max
        low = cfg.n if cfg.n is not None else cfg.n_min
        if top > MAX_N:
            parser.error(f"n={top} exceeds the n <= {MAX_N} cost cap")
        if cfg.n is not None and cfg.k is not None and not 1 <= cfg.k <= cfg.n:
            parser.error(f"need 1 <= k <= n, got n={cfg.n}, k={cfg.k}")
        if cfg.n is None and cfg.n_max < cfg.n_min:
            parser.error("empty range: --n-max below --n-min")
        if low < 1:
            parser.error("n must be positive")
    if cfg.command in ("maximize", "sweep"):
        try:
            _ascent_config(cfg)
        except ValueError as exc:
            parser.error(str(exc))
    return cfg


_COMMANDS = {
    "verify": cmd_verify,
    "maximize": cmd_maximize,
    "sweep": cmd_sweep,
    "bounds": cmd_bounds,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    cfg = _validate(parser, parser.parse_args(argv))
    try:
        return _COMMANDS[cfg.command](cfg)
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
