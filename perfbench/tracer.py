"""Outside-in tracer for the eitlab benchmark.

The program has no spans of its own, so the tracer wraps its public
functions from outside.  Modules import each other's functions by name
(`from .forward import assemble`), so wrapping one module attribute is not
enough: `install` rebinds every name, in every `eitlab.*` namespace, that
refers to a wrapped function, and `uninstall` puts every original back.
Three methods are wrapped on their classes as well: `FemSystem.lu` (the
interior factorization), `CorrectorSolver.correction` and
`FieldSolution._locate` (brute-force point location).

A span records its name, start, end, parent span, op id and self time.
Self time is the duration minus the time covered by child spans and by
aggregated leaf calls.  The fundsol kernels are called hundreds of
thousands of times per 3D probe op, so they get no span each: their calls,
points and busy time are summed into counters instead, and a kernel that
calls another kernel counts once.  Everything stays in memory until
`write_spans` runs after the timed phase.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("geometry", "fundsol", "quadrature", "forward", "dtn", "singular",
          "stability", "cli")

# Span names that differ from "<module>.<function>".
RENAMES = {
    "dtn.h_half_gram": "dtn.gram",
    "singular.half_space_probe_integral": "singular.half_space",
    "singular.s_k_evaluate": "singular.s_k",
    "stability.gauss_newton_reconstruct": "stability.gauss_newton",
    "stability.sensitivity_jacobian": "stability.sensitivity",
    "stability.stability_sweep": "stability.sweep",
}
# The kernels are hot leaves: counted under one name, not spanned.
KERNEL_LAYER = "fundsol"
KERNEL = "fundsol.kernel"


class _LUProxy:
    """Factorized interior block whose `solve` is traced."""

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        columns = 1 if np.ndim(rhs) == 1 else np.shape(rhs)[1]
        tr = self._tracer
        tr.count("forward.lu_solve.columns", columns)
        if "dtn.dtn_matrix" in tr.open_names():
            tr.count("dtn.rhs_columns", columns)
        with tr.span("forward.lu_solve"):
            return self._lu.solve(rhs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _interior_nnz(matrix, interior) -> int:
    mask = np.zeros(matrix.shape[0], dtype=bool)
    mask[interior] = True
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    return int(np.count_nonzero(mask[rows] & mask[matrix.indices]))


class Tracer:
    """Spans and counters for one benchmark run."""

    def __init__(self):
        self.spans: list[tuple] = []        # (id, name, start, end, parent, op, self_s)
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.tracing_s = 0.0                # tracer work inside spans, in no self time
        self.op_id = -1
        self._stack: list[list] = []        # open spans: [id, name, parent, start, child_s]
        self._next_id = 0
        self._rebound: list[tuple] = []     # (owner, name, original)
        self._leaf_depth = 0

    # --- recording ----------------------------------------------------------

    def open_names(self) -> list[str]:
        return [frame[1] for frame in self._stack]

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def span(self, name: str):
        return _Span(self, name)

    def _enter(self, name: str) -> list:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, name, parent, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, failed: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        sid, name, parent, start, child = frame
        dur = end - start
        self._exclude(dur)
        own = dur - child
        self.spans.append((sid, name, start, end, parent, self.op_id, own))
        self.self_s[name] = self.self_s.get(name, 0.0) + own
        self.calls[name] = self.calls.get(name, 0) + 1
        if failed:
            self.count(name.split(".")[0] + ".errors")

    def _exclude(self, dur: float) -> None:
        """Take `dur` out of the self time of the innermost open span."""
        if self._stack:
            self._stack[-1][4] += dur

    def _leaf_done(self, dur: float, x) -> None:
        self._exclude(dur)
        self.self_s[KERNEL] = self.self_s.get(KERNEL, 0.0) + dur
        self.calls[KERNEL] = self.calls.get(KERNEL, 0) + 1
        self.count(KERNEL + ".points", len(x) if getattr(x, "ndim", 1) > 1 else 1)

    # --- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        if name.startswith(KERNEL_LAYER + "."):
            clock = time.perf_counter

            @functools.wraps(fn)
            def counted(x, *args, **kwargs):
                if tracer._leaf_depth:          # a kernel inside a kernel counts once
                    return fn(x, *args, **kwargs)
                tracer._leaf_depth = 1
                start = clock()
                try:
                    return fn(x, *args, **kwargs)
                except BaseException:
                    tracer.count(KERNEL_LAYER + ".errors")
                    raise
                finally:
                    tracer._leaf_depth = 0
                    tracer._leaf_done(clock() - start, x)
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if name == "stability.gauss_newton":
                tracer.count("stability.gn_iterations", result.iterations)
            return result
        return spanned

    def _wrap_lu(self, prop: property) -> property:
        tracer = self
        getter = prop.fget

        def lu(system):
            if system._lu is None:
                with tracer.span("forward.factorize"):
                    raw = getter(system)
                start = time.perf_counter()      # the fill count is tracing work
                fill = (raw.L.nnz + raw.U.nnz) / _interior_nnz(system.matrix,
                                                              system.interior)
                tracer.count("forward.lu_fill.sum", fill)
                spent = time.perf_counter() - start
                tracer.tracing_s += spent
                tracer._exclude(spent)
            else:
                raw = getter(system)
            return _LUProxy(raw, tracer)
        return property(lu, doc=prop.__doc__)

    def targets(self) -> dict:
        """Original function object -> span name, for every wrapped function."""
        import eitlab.cli  # noqa: F401  (the package does not import cli itself)
        out = {}
        for layer in LAYERS:
            mod = sys.modules[f"eitlab.{layer}"]
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    full = f"{layer}.{attr}"
                    out[obj] = RENAMES.get(full, full)
        return out

    def install(self) -> None:
        """Rebind every wrapped name; `uninstall` must follow."""
        if self._rebound:
            raise RuntimeError("tracer already installed")
        from eitlab import forward, singular

        wrappers = {fn: self._wrap(name, fn) for fn, name in self.targets().items()}
        for modname, mod in sorted(sys.modules.items()):
            if mod is None or not (modname == "eitlab" or modname.startswith("eitlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._rebind(mod, attr, wrappers[value])

        self._rebind(forward.FemSystem, "lu", self._wrap_lu(vars(forward.FemSystem)["lu"]))
        self._rebind(singular.CorrectorSolver, "correction",
                     self._wrap("singular.correction",
                                vars(singular.CorrectorSolver)["correction"]))
        locate = vars(forward.FieldSolution)["_locate"]

        @functools.wraps(locate)
        def located(solution, points):
            self.count("forward.locate.points", len(np.atleast_2d(points)))
            with self.span("forward.locate"):
                return locate(solution, points)
        self._rebind(forward.FieldSolution, "_locate", located)

    def _rebind(self, owner, attr: str, value) -> None:
        self._rebound.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._rebound:
            owner, attr, original = self._rebound.pop()
            setattr(owner, attr, original)

    # --- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for sid, name, start, end, parent, op, own in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start": start,
                                    "end": end, "parent": parent, "op": op,
                                    "self_s": own}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "frame")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = self.tracer._enter(self.name)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer._exit(self.frame, exc_type is not None)
        return False
