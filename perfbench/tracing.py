"""In-memory spans around the public functions of the xxzchain modules.

The library is observed from outside: each traced function is replaced by a
wrapper in every loaded ``xxzchain`` module that holds a reference to it
(``from .x import y`` copies the name into the importing module, so patching
only the defining module would miss most calls), and the originals are put
back by ``uninstall``.  A span is ``[id, parent, name, start, end, attrs]``;
the layer of a span is the first dotted part of its name (the module).
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) pairs wrapped in a traced child.  Sweep entry points
# return generators; their work happens in ``next()``, which gets a span of
# its own (``sweep.<name>.next``).
TRACED = (
    ("chain", "build_sector_basis"),
    ("hamiltonian", "build_full"),
    ("hamiltonian", "build_sector"),
    ("eigensolver", "decompose"),
    ("entanglement", "ground_state_density"),
    ("entanglement", "thermal_state"),
    ("entanglement", "reduce_pair_mixed"),
    ("entanglement", "concurrence"),
    ("channel", "design_channel"),
    ("channel", "fold_single_excitation"),
    ("channel", "ratio_profile"),
    ("closed_forms", "c1n_channel"),
    ("sweep", "classify_ground_state"),
)
TRACED_GENERATORS = (
    ("sweep", "phase_scan"),
    ("sweep", "concurrence_curve"),
    ("sweep", "channel_curve"),
)

ROOT = "cli"


def _decompose_attrs(args, kwargs, dec):
    dim = int(dec.order)
    # computed bytes: read the dim x dim input, write dim x dim vectors
    # plus dim eigenvalues (float64); cache misses are not counted
    return {"dim": dim, "bytes": 8 * (2 * dim * dim + dim)}


def _nbytes_result(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _nbytes_first_arg(args, kwargs, result):
    return {"bytes": int(args[0].nbytes)}


def _ground_reads(args, kwargs, result):
    from xxzchain.eigensolver import ground_space

    return {"reads": len(ground_space(args[0]))}


def _thermal_reads(args, kwargs, result):
    return {"reads": int(args[1].order)}


def _design_attrs(args, kwargs, design):
    return {"reads": 1, "near_degenerate": bool(design.near_degenerate)}


ATTRS = {
    "eigensolver.decompose": _decompose_attrs,
    "hamiltonian.build_full": _nbytes_result,
    "entanglement.reduce_pair_mixed": _nbytes_first_arg,
    "entanglement.ground_state_density": _ground_reads,
    "entanglement.thermal_state": _thermal_reads,
    "channel.design_channel": _design_attrs,
}


class Tracer:
    """Span recorder plus the wrappers it installs; one per traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: list[object] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [len(self.spans), parent, name, 0.0, 0.0, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[3] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    def wrap(self, name: str, fn, attrs=None):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if attrs is not None:
                rec[5] = attrs(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def wrap_generator(self, name: str, fn):
        def steps(it):
            step = name + ".next"
            while True:
                rec = self._open(step)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(rec)
                yield item

        def traced(*args, **kwargs):
            return steps(self.call(name, fn, *args, **kwargs))

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Bind a wrapper for every traced function into each loaded
        xxzchain module that refers to it."""
        modules = _xxzchain_modules()
        targets = [(t, False) for t in TRACED] + [(t, True) for t in TRACED_GENERATORS]
        for (module, func), is_gen in targets:
            original = getattr(sys.modules["xxzchain." + module], func)
            name = f"{module}.{func}"
            wrapper = (self.wrap_generator(name, original) if is_gen
                       else self.wrap(name, original, ATTRS.get(name)))
            self._wrappers.append(wrapper)
            for mod in modules:
                if getattr(mod, func, None) is original:
                    self._saved.append((mod, func, original))
                    setattr(mod, func, wrapper)

    def uninstall(self) -> None:
        for mod, func, original in reversed(self._saved):
            setattr(mod, func, original)
        self._saved.clear()

    def leftover(self) -> list[str]:
        """Module attributes still bound to one of this tracer's wrappers."""
        return [
            f"{mod.__name__}.{name}"
            for mod in _xxzchain_modules()
            for name, value in vars(mod).items()
            if any(value is w for w in self._wrappers)
        ]

    def records(self) -> list[dict]:
        return [
            {"run": self.run_id, "id": s[0], "parent": s[1], "name": s[2],
             "start": s[3], "end": s[4], "attrs": s[5]}
            for s in self.spans
        ]


def _xxzchain_modules() -> list:
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "xxzchain" or k.startswith("xxzchain."))]


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the time covered by its direct children.

    Spans come from one thread, so children nest inside their parent and
    never overlap each other.
    """
    selfs = [s["end"] - s["start"] for s in spans]
    index = {s["id"]: k for k, s in enumerate(spans)}
    for s in spans:
        if s["parent"] >= 0:
            selfs[index[s["parent"]]] -= s["end"] - s["start"]
    return selfs


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
