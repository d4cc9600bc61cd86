"""Timings of framevol's identity checks, written as ``BENCH_<label>.json``.

Run from the root of a checkout:

    PYTHONPATH=src python bench/run.py --label L [--out PATH] [--compare FILE]

The rows are the median and quartiles, in seconds, of

- each public identity function on one seeded tight frame, at every shape
  of ``SHAPES``;
- the minor kernel ``_minors`` on one frame and on a stack of 7 frames, and
  ``compound_matrix(V, k - 1)`` of one frame, at every shape of
  ``KERNEL_SHAPES``;
- the Hodge self-check ``hodge_defining_residual(n)`` at every n of
  ``HODGE_SHAPES``;
- ``run_identity_trials(8, 4, 60, seed)``, the trials ``framevol verify``
  runs;
- fresh interpreters running ``python -c pass``, ``import numpy``,
  ``import framevol.cli``, ``framevol verify --n 8 --k 4 --trials 60``,
  ``framevol verify --n 14 --k 7`` and ``framevol verify --n 14 --k 2``, so
  start-up shows apart from the work.

An in-process repeat loops its call until it lasts ``MIN_REPEAT_S`` and
reports the time per call, after one call that fills the caches.  The
header records the machine, Python, numpy, the BLAS thread cap and the
repeat count.  The script imports framevol from ``PYTHONPATH``, so the same
script measures any checkout, and its interpreters get that framevol too.
``--compare`` prints each row's median against the median in an earlier
file, and lists with ``-`` the rows of the earlier file that the new one
lacks; it reads that file before measuring anything.  BLAS and OpenMP are
capped at one thread unless the environment already sets a cap.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SHAPES = ((6, 3), (8, 4), (12, 6), (14, 7))
KERNEL_SHAPES = ((8, 4), (13, 6), (14, 7))
HODGE_SHAPES = (8, 12, 14)
REPEATS = 11
MIN_REPEAT_S = 0.02
TRIALS = (8, 4, 60, 7)  # run_identity_trials(n, k, trials, seed)
CLI_ROWS = {
    "python -c pass": ["-c", "pass"],
    "import numpy": ["-c", "import numpy"],
    "import framevol.cli": ["-c", "import framevol.cli"],
    "framevol verify --n 8 --k 4 --trials 60": [
        "-m", "framevol", "verify", "--n", "8", "--k", "4", "--trials", "60",
    ],
    "framevol verify --n 14 --k 7": ["-m", "framevol", "verify", "--n", "14", "--k", "7"],
    "framevol verify --n 14 --k 2": ["-m", "framevol", "verify", "--n", "14", "--k", "2"],
}


def summary(seconds: list[float], loops: int) -> dict:
    """Median and quartiles of per-call times (a single repeat is its own quartiles)."""
    median = statistics.median(seconds)
    q1, _, q3 = statistics.quantiles(seconds, n=4) if len(seconds) > 1 else (median,) * 3
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "loops": loops}


def time_call(call, repeats: int) -> dict:
    """Per-call time of ``call`` over ``repeats`` repeats of a calibrated loop."""
    call()
    start = time.perf_counter()
    call()
    once = time.perf_counter() - start
    loops = max(1, int(MIN_REPEAT_S / max(once, 1e-9)))
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            call()
        seconds.append((time.perf_counter() - start) / loops)
    return summary(seconds, loops)


def time_interpreter(args: list[str], repeats: int, env: dict) -> dict:
    """Wall time of a fresh interpreter running ``args``, after one warm-up run."""
    seconds = []
    for index in range(repeats + 1):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, *args], env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, check=True,
        )
        if index:
            seconds.append(time.perf_counter() - start)
    return summary(seconds, 1)


def identity_calls(n: int, k: int) -> dict:
    """Each public identity function on one seeded tight frame at (n, k), by row name."""
    import numpy as np

    from framevol import (
        determinant_expansion_check,
        lagrange_residual,
        mcmullen_check,
        random_tight_frame,
        unit_decomposition_residual,
        verify_cross_tight,
        volume_identity_residual,
    )

    rng = np.random.default_rng((n, k))
    frame = random_tight_frame(n, k, rng)
    directions = rng.standard_normal((n, k))
    directions /= np.linalg.norm(directions)
    calls = {
        "verify_cross_tight": lambda: verify_cross_tight(frame),
        "unit_decomposition_residual(2)": lambda: unit_decomposition_residual(frame, 2),
        "unit_decomposition_residual(k)": lambda: unit_decomposition_residual(frame, k),
        "volume_identity_residual(1)": lambda: volume_identity_residual(frame, 1),
        "volume_identity_residual(2)": lambda: volume_identity_residual(frame, 2),
        "lagrange_residual": lambda: lagrange_residual(frame),
        "mcmullen_check": lambda: mcmullen_check(frame),
        "determinant_expansion_check": lambda: determinant_expansion_check(frame, directions),
    }
    return {f"{name} at ({n},{k})": call for name, call in calls.items()}


def kernel_calls(n: int, k: int) -> dict:
    """The minor kernel on one frame and on a stack of 7, and one (k-1)-compound, by row name."""
    import numpy as np

    from framevol.exterior import _minors, compound_matrix

    stack = np.random.default_rng((n, k)).standard_normal((7, n, k))
    frame = stack[0].copy()
    calls = {
        "_minors": lambda: _minors(frame),
        "_minors, 7 frames": lambda: _minors(stack),
        "compound_matrix(V, k-1)": lambda: compound_matrix(frame, k - 1),
    }
    return {f"{name} at ({n},{k})": call for name, call in calls.items()}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(label: str) -> dict:
    """The BENCH document of the framevol on PYTHONPATH."""
    import numpy as np

    import framevol
    from framevol.cli import run_identity_trials
    from framevol.exterior import hodge_defining_residual

    calls = {}
    for n, k in SHAPES:
        calls.update(identity_calls(n, k))
    for n, k in KERNEL_SHAPES:
        calls.update(kernel_calls(n, k))
    for n in HODGE_SHAPES:
        calls[f"hodge_defining_residual({n})"] = lambda n=n: hodge_defining_residual(n)
    rows = {name: time_call(call, REPEATS) for name, call in calls.items()}
    rows["run_identity_trials(%d,%d,%d)" % TRIALS[:3]] = time_call(
        lambda: run_identity_trials(*TRIALS), REPEATS
    )
    src = str(Path(framevol.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for name, args in CLI_ROWS.items():
        rows[name] = time_interpreter(args, REPEATS, env)
    return {
        "label": label,
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        },
        "repeats": REPEATS,
        "rows": rows,
    }


def compare(new: dict, old: dict) -> list[str]:
    """One line per row of either file: the old and new medians and their ratio."""
    lines = [f"{'row':<56} {'old_s':>11} {'new_s':>11} {'new/old':>8}"]
    for name, row in new["rows"].items():
        before = old["rows"].get(name)
        if before is None:
            lines.append(f"{name:<56} {'-':>11} {row['median_s']:>11.3e} {'-':>8}")
            continue
        ratio = row["median_s"] / before["median_s"]
        lines.append(
            f"{name:<56} {before['median_s']:>11.3e} {row['median_s']:>11.3e} {ratio:>8.3f}"
        )
    for name, row in old["rows"].items():
        if name not in new["rows"]:
            lines.append(f"{name:<56} {row['median_s']:>11.3e} {'-':>11} {'-':>8}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0], allow_abbrev=False)
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--out", type=Path, help="write here instead of the checkout root")
    parser.add_argument("--compare", type=Path, help="an earlier BENCH file to compare with")
    args = parser.parse_args(argv)
    old = None
    if args.compare is not None:
        try:
            old = json.loads(args.compare.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read --compare file: {exc}")
    for var in BLAS_VARS:  # before numpy loads, so this process gets the cap too
        os.environ.setdefault(var, "1")
    doc = measure(args.label)
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    if old is not None:
        print(f"{args.label} against {old['label']} ({args.compare})")
        print("\n".join(compare(doc, old)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
