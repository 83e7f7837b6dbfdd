"""Benchmark of eitlab: four seeded workloads, end to end or traced by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload dtn-sweep --seed 1 --seconds 15 --trace 0

The load is a closed loop: one process, one operation at a time, one BLAS
thread and `threads=1` for sweeps.  Set-up (imports,
seeded input generation and an untimed warm-up op at a small size) is done
SETUP_REPEATS times; `setup_s` is the import time plus the median set-up.
The timed phase then repeats the workload's op until `--seconds` have passed,
checking every op's outputs with the workload's gate.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates untraced
and traced ops and reports the per-layer metrics, averaged per traced op,
plus `trace.overhead` (traced against untraced ops per second).  The last
line of standard output is the JSON result; the full run record (machine,
library versions, sizes, latencies, gate diagnostics) and, for traced runs,
every span go to `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, set before numpy loads.  On a 2-CPU machine shared with
# other work, a second BLAS thread made ops slower and their times noisier.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, GateError  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"

DEFAULT_SEED = 1
HELD_OUT_SEED = 20101008      # kept out of tuning; use it to confirm a claimed gain
SETUP_REPEATS = 3

END_TO_END = {"setup_s": "s", "ops_per_s": "op/s", "op_p50_s": "s", "peak_rss_mb": "MiB"}

# name -> unit; a name ending in ".s" is self time, ".calls" a span count.
PER_LAYER = {
    "geometry.generate_mesh.s": "s",
    "geometry.mesh_hash.s": "s",
    "geometry.mesh_hash.calls": "count",
    "forward.assemble.s": "s",
    "forward.factorize.s": "s",
    "forward.factorize.calls": "count",
    "forward.lu_fill": "ratio",
    "forward.lu_solve.s": "s",
    "forward.lu_solve.columns": "count",
    "forward.locate.s": "s",
    "forward.locate.points": "count",
    "dtn.dtn_matrix.s": "s",
    "dtn.dtn_matrix.calls": "count",
    "dtn.rhs_columns": "count",
    "dtn.boundary_operators.s": "s",
    "dtn.gram.s": "s",
    "dtn.operator_norm.s": "s",
    "stability.gauss_newton.s": "s",
    "stability.gn_iterations": "count",
    "stability.sensitivity.s": "s",
    "stability.sweep.s": "s",
    "singular.half_space.s": "s",
    "singular.half_space.calls": "count",
    "singular.correction.s": "s",
    "singular.correction.calls": "count",
    "singular.s_k.s": "s",
    "fundsol.kernel.s": "s",
    "fundsol.kernel.calls": "count",
    "fundsol.kernel.points": "count",
    "quadrature.s": "s",
    "cli.run_scenario.s": "s",
    "cli.csv_bytes": "B",
    "geometry.errors": "count",
    "fundsol.errors": "count",
    "quadrature.errors": "count",
    "forward.errors": "count",
    "dtn.errors": "count",
    "singular.errors": "count",
    "stability.errors": "count",
    "cli.errors": "count",
    "trace.overhead": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import eitlab from this checkout's `src`, or exit if it is missing."""
    src = ROOT / "src"
    if not (src / "eitlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no eitlab sources under {src}")
    sys.path.insert(0, str(src))
    import eitlab
    import eitlab.cli  # noqa: F401
    if Path(eitlab.__file__).resolve().parent != src / "eitlab":
        sys.exit(f"perfbench: eitlab imported from {eitlab.__file__}, not {src}")


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "platform": platform.platform(), "commit": git_commit()}


class Loop:
    """Closed-loop op runner: latencies, failures and gate diagnostics."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies = {False: [], True: []}     # keyed by traced
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.diagnostics = None
        self.csv_bytes = 0

    def op(self, tracer=None) -> None:
        self.attempted += 1
        if tracer is not None:
            tracer.op_id += 1
            tracer.install()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = self.workload.run()
            else:
                with tracer.span("perfbench.op"):
                    out = self.workload.run()
        except Exception as exc:   # an op that raises is a failed op, not a crash
            out = None
            self.failed += 1
            self.errors.append(f"op {self.attempted}: {type(exc).__name__}: {exc}")
        finally:
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        self.latencies[tracer is not None].append(dt)
        if out is None:
            return
        try:
            self.diagnostics = self.workload.gate(out)
        except GateError as exc:
            self.failed += 1
            self.errors.append(f"op {self.attempted}: gate: {exc}")
        if tracer is not None:
            self.csv_bytes += self.workload.csv_bytes(out)


def layer_metrics(tracer, n_ops: int, csv_bytes: int, overhead: float) -> dict:
    self_s, calls, counters = tracer.self_s, tracer.calls, tracer.counters
    out = {}
    for name in PER_LAYER:
        if name == "quadrature.s":
            v = sum(t for k, t in self_s.items() if k.startswith("quadrature."))
        elif name == "forward.lu_fill":
            n = calls.get("forward.factorize", 0)
            out[name] = counters.get("forward.lu_fill.sum", 0.0) / n if n else 0.0
            continue
        elif name == "cli.csv_bytes":
            v = csv_bytes
        elif name == "trace.overhead":
            out[name] = overhead
            continue
        elif name.endswith(".s"):
            v = self_s.get(name[:-2], 0.0)
        elif name.endswith(".calls"):
            v = calls.get(name[:-6], 0)
        else:
            v = counters.get(name, 0)
        out[name] = v / n_ops
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    make = WORKLOADS[args.workload]
    t_import = time.perf_counter() - T_START

    OUT_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT))
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            make(args.seed, workdir, small=True).run()
            workload = make(args.seed, workdir)
            setups.append(time.perf_counter() - t0)
        setup_s = t_import + statistics.median(setups)

        loop = Loop(workload)
        tracer = Tracer() if args.trace else None
        start = time.perf_counter()
        while True:
            loop.op()
            if tracer is not None:
                loop.op(tracer)
            if time.perf_counter() - start >= args.seconds:
                break
        wall = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = loop.latencies[False]
    if tracer is None:
        metrics = {"setup_s": setup_s, "ops_per_s": len(plain) / wall,
                   "op_p50_s": statistics.median(plain), "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    else:
        traced = loop.latencies[True]
        overhead = (len(traced) / sum(traced)) / (len(plain) / sum(plain))
        metrics = layer_metrics(tracer, len(traced), loop.csv_bytes, overhead)
        units = PER_LAYER

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "sizes": workload.sizes(), "n_ops": len(plain),
              "latencies_s": plain, "traced_latencies_s": loop.latencies[True],
              "setup_repeats_s": setups, "import_s": t_import,
              "diagnostics": loop.diagnostics, "errors": loop.errors,
              "metrics": metrics}
    (OUT_ROOT / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if tracer is not None:
        tracer.write_spans(OUT_ROOT / f"{tag}-spans.jsonl")

    for name, value in metrics.items():
        print(f"{name:28s} {value:14.6g} {units[name]}")
    print(f"n_ops {len(plain)}  attempted {loop.attempted}  failed {loop.failed}  "
          f"record {OUT_ROOT.name}/{tag}.json")
    for err in loop.errors:
        print("error:", err)
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
