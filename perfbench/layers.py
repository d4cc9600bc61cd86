"""Per-layer tracing from outside the program.

A ``Tracer`` replaces every public function of the framevol modules, at
every module that binds it, with a wrapper that counts calls and adds up
inclusive time (``s``) and self time (``self_s``: inclusive time minus the
time of wrapped calls made inside it).  ``Frame.__init__`` is wrapped as
``frames.Frame`` and ``numpy.linalg.{det,matrix_rank,eigh}`` are wrapped
where framevol looks them up.  The determinant wrapper also counts the
matrices in each stack and computes, from their shapes, the LU flops and
the bytes read and written.  The ``ascend`` wrapper counts the accepted
steps recorded in its result.  ``uninstall`` restores every binding.
"""

from __future__ import annotations

import importlib
import sys
from math import prod
from time import perf_counter

import numpy as np

MODULES = ("multiindex", "frames", "exterior", "zonotope", "optimize", "cli")
NUMPY_LINALG = ("det", "matrix_rank", "eigh")

# Per-layer metrics printed by a traced run, with their units.  Every
# count and time is per attempted operation of the traced phase.
PER_LAYER = (
    ("numpy.linalg.det.calls", "1/op"),
    ("numpy.linalg.det.matrices", "1/op"),
    ("numpy.linalg.det.s", "s/op"),
    ("numpy.linalg.det.flops", "computed_flop/op"),
    ("numpy.linalg.det.bytes", "computed_B/op"),
    ("frames.Frame.calls", "1/op"),
    ("frames.Frame.s", "s/op"),
    ("numpy.linalg.matrix_rank.calls", "1/op"),
    ("numpy.linalg.matrix_rank.s", "s/op"),
    ("frames.whiten.calls", "1/op"),
    ("frames.whiten.s", "s/op"),
    ("numpy.linalg.eigh.calls", "1/op"),
    ("optimize.ascent_direction.calls", "1/op"),
    ("optimize.ascent_direction.s", "s/op"),
    ("optimize.retract.calls", "1/op"),
    ("optimize.retract.s", "s/op"),
    ("zonotope.volume.calls", "1/op"),
    ("zonotope.volume.s", "s/op"),
    ("zonotope.first_order_residual.calls", "1/op"),
    ("zonotope.first_order_residual.s", "s/op"),
    ("optimize.accepted_steps_per_retract", "ratio"),
    ("exterior.subset_minors.calls", "1/op"),
    ("exterior.subset_minors.s", "s/op"),
    ("exterior.hodge_defining_residual.s", "s/op"),
    ("exterior.wedge_forms.calls", "1/op"),
    ("exterior.wedge_forms.s", "s/op"),
    ("multiindex.merge_sign.calls", "1/op"),
    ("exterior.lagrange_residual.calls", "1/op"),
    ("exterior.lagrange_residual.s", "s/op"),
    ("exterior.volume_identity_residual.calls", "1/op"),
    ("exterior.volume_identity_residual.s", "s/op"),
    ("exterior.compound_matrix.calls", "1/op"),
    ("exterior.compound_matrix.s", "s/op"),
    ("exterior.verify_cross_tight.calls", "1/op"),
    ("exterior.verify_cross_tight.s", "s/op"),
    ("exterior.unit_decomposition_residual.calls", "1/op"),
    ("exterior.unit_decomposition_residual.s", "s/op"),
    ("zonotope.mcmullen_check.calls", "1/op"),
    ("zonotope.mcmullen_check.s", "s/op"),
    ("cli.import_s", "s"),
    ("trace.overhead_s", "s"),
    ("machine.probe_s", "s"),
)

_FIELDS = ("calls", "s", "self_s", "matrices", "flops", "bytes", "accepted_steps")


class Tracer:
    """Counters per wrapped function; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        self.stats: dict[str, dict[str, float]] = {}
        self._stack: list[float] = []  # child time of each open wrapped call
        self._undo: list[tuple[object, str, object]] = []

    def _stat(self, key: str) -> dict[str, float]:
        if key not in self.stats:
            self.stats[key] = dict.fromkeys(_FIELDS, 0)
        return self.stats[key]

    def _wrap(self, key: str, fn, after=None):
        stat = self._stat(key)
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = stack.pop()
                stat["calls"] += 1
                stat["s"] += elapsed
                stat["self_s"] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(stat, args, result)
            return result

        return wrapper

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap the public functions of every loaded framevol module."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("framevol")
        loaded = [
            sys.modules[f"framevol.{short}"]
            for short in MODULES
            if f"framevol.{short}" in sys.modules
        ]
        binders = [package, *loaded]
        for module in loaded:
            short = module.__name__.rpartition(".")[2]
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue
                after = _count_accepted_steps if name == "ascend" else None
                wrapper = self._wrap(f"{short}.{name}", fn, after)
                for binder in binders:
                    for bound_name, value in list(vars(binder).items()):
                        if value is fn:
                            self._patch(binder, bound_name, wrapper)
        frame_cls = sys.modules["framevol.frames"].Frame
        self._patch(frame_cls, "__init__", self._wrap("frames.Frame", frame_cls.__init__))
        for name in NUMPY_LINALG:
            after = _count_det_work if name == "det" else None
            fn = getattr(np.linalg, name)
            self._patch(np.linalg, name, self._wrap(f"numpy.linalg.{name}", fn, after))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def merge(self, stats: dict[str, dict[str, float]]) -> None:
        """Add the counters of another tracer (say, one in a child process)."""
        for key, values in stats.items():
            stat = self._stat(key)
            for field in _FIELDS:
                stat[field] += values.get(field, 0)

    def metrics(self, ops: int, import_s: float, overhead_s: float, probe_s: float) -> dict:
        """The PER_LAYER metrics, each count and time divided by ``ops``."""
        values = {}
        for name, _unit in PER_LAYER:
            key, _, field = name.rpartition(".")
            if key in ("cli", "trace", "machine"):
                continue
            values[name] = self.stats.get(key, {}).get(field, 0) / ops
        retracts = self.stats.get("optimize.retract", {}).get("calls", 0)
        accepted = self.stats.get("optimize.ascend", {}).get("accepted_steps", 0)
        values["optimize.accepted_steps_per_retract"] = accepted / retracts if retracts else 0.0
        values["cli.import_s"] = import_s
        values["trace.overhead_s"] = overhead_s
        values["machine.probe_s"] = probe_s
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def _count_det_work(stat, args, _result) -> None:
    shape = np.shape(args[0])
    size = shape[-1]
    count = prod(shape[:-2])
    itemsize = getattr(args[0], "itemsize", 8)
    stat["matrices"] += count
    stat["flops"] += count * (2.0 * size**3 / 3.0)  # LU factorization per matrix
    stat["bytes"] += count * (size * size + 1) * itemsize  # matrix read, determinant written


def _count_accepted_steps(stat, _args, result) -> None:
    # Each accepted ascent step or rotation appends one volume to its restart's trace.
    stat["accepted_steps"] += sum(len(record.trace) - 1 for record in result.restarts)
