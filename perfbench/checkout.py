"""Where the checkout is, and the environment every benchmark process runs in.

The benchmark runs from the root of a source checkout: framevol is
imported from its ``src/`` directory, never from an installed copy, and
every process the benchmark starts gets the same thread caps, so BLAS and
OpenMP use one thread on the 2-core machine the figures were taken on.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def cap_threads() -> None:
    """Cap BLAS/OpenMP threads; must run before numpy is first imported."""
    os.environ.update(THREAD_CAPS)


def child_env() -> dict[str, str]:
    """Environment of a child interpreter: thread caps and the checkout's sources."""
    env = dict(os.environ)
    env.update(THREAD_CAPS)
    env["PYTHONPATH"] = str(SRC)
    return env


def peak_rss_mb() -> float:
    """High-water mark of this process's own resident memory (VmHWM), in MB.

    Unlike ``ru_maxrss``, VmHWM starts afresh at exec, so it never holds the
    memory of the process that started this one.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0  # the kernel reports kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def import_framevol():
    """Import framevol from this checkout's ``src/``; exit with 2 if it is not there."""
    package = SRC / "framevol"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no framevol sources at {package}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import framevol

    if Path(framevol.__file__).resolve().parent != package.resolve():
        print(f"perfbench: framevol imported from {framevol.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return framevol
