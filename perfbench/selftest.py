"""Self-test of the benchmark's own machinery; exits non-zero on a failure.

    python3 perfbench/selftest.py

It checks that
- `BENCHMARK.json` lists exactly the metrics `run.py` reports, with the
  same units;
- the tracer rebinds names in every `eitlab.*` namespace, restores every
  original afterwards, and records nothing during an untraced op, so
  untraced runs call the original function objects;
- self times add up: over one traced op, the self times of all spans, the
  aggregated kernel time and the tracer's own counting time equal the
  duration of the root spans;
- every gate passes a genuine output and trips on a corrupted one, and the
  byte-identity check trips when a later op's output differs.
"""

from __future__ import annotations

import copy
import inspect
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import run  # noqa: E402

run.import_program()

from eitlab import forward, singular  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import (WORKLOADS, GateError, Probe3d, DEPTH_FRACTIONS,  # noqa: E402
                       probe_closed_form)

FAILURES: list[str] = []


def expect(ok: bool, message: str) -> None:
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        FAILURES.append(message)


def trips(check, out) -> bool:
    try:
        check(out)
    except GateError:
        return True
    return False


def test_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect(layers == run.PER_LAYER, "BENCHMARK.json per_layer matches run.PER_LAYER")
    expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
           "BENCHMARK.json workloads match workloads.WORKLOADS")


def _bindings() -> dict:
    out = {}
    for modname, mod in list(sys.modules.items()):
        if mod is not None and (modname == "eitlab" or modname.startswith("eitlab.")):
            for attr, value in vars(mod).items():
                if inspect.isfunction(value):
                    out[(modname, attr)] = value
    for cls, attr in ((forward.FemSystem, "lu"), (singular.CorrectorSolver, "correction"),
                      (forward.FieldSolution, "_locate")):
        out[(cls.__name__, attr)] = vars(cls)[attr]
    return out


def test_rebinding(workdir: Path) -> None:
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    during = _bindings()
    tracer.uninstall()
    after = _bindings()
    changed = {k for k in before if during[k] is not before[k]}
    modules = {k[0] for k in changed}
    expect({"eitlab"} | {f"eitlab.{layer}" for layer in LAYERS} <= modules,
           f"install rebinds names in every eitlab namespace ({len(changed)} names)")
    expect(during[("eitlab.singular", "two_phase_gamma_grad")]
           is not before[("eitlab.singular", "two_phase_gamma_grad")],
           "a function imported by name into another module is rebound there too")
    expect(all(after[k] is before[k] for k in before) and after.keys() == before.keys(),
           "uninstall restores every original function object")

    for make in WORKLOADS.values():
        make(1, workdir, small=True).run()
    expect(not tracer.spans and not tracer.calls and not tracer.counters,
           "untraced ops after uninstall record nothing")


def test_self_time(workdir: Path) -> None:
    tracer = Tracer()
    workload = WORKLOADS["singular-2d"](1, workdir, small=True)
    tracer.install()
    try:
        with tracer.span("perfbench.op"):
            workload.run()
    finally:
        tracer.uninstall()
    roots = sum(end - start for _, _, start, end, parent, _, _ in tracer.spans
                if parent is None)
    total_self = (sum(own for *_, own in tracer.spans) + tracer.self_s["fundsol.kernel"]
                  + tracer.tracing_s)
    ids = {sid for sid, *_ in tracer.spans}
    expect(all(parent is None or parent in ids for _, _, _, _, parent, _, _ in tracer.spans),
           "every span's parent is a recorded span")
    expect(all(own >= -1e-9 for *_, own in tracer.spans), "self times are not negative")
    expect(abs(roots - total_self) <= 1e-9 * max(len(tracer.spans), 1) + 1e-6,
           f"self times partition the root spans ({total_self:.6f} s vs {roots:.6f} s)")


def _rewrite(out: dict, fname: str, row: int, col: str, value) -> dict:
    bad = copy.deepcopy(out)
    bad["tables"][fname][row][col] = repr(value)
    header = list(bad["tables"][fname][0])
    lines = [",".join(header)] + [",".join(r[h] for h in header)
                                  for r in bad["tables"][fname]]
    bad["csv"][fname] = ("\n".join(lines) + "\n").encode("ascii")
    return bad


def test_gates(workdir: Path) -> None:
    # dtn-sweep and gauss-newton: genuine small outputs, then corrupted copies
    sweep = WORKLOADS["dtn-sweep"](1, workdir, small=True)
    out = sweep.run()
    expect(not trips(sweep.gate, out), "dtn-sweep gate passes a genuine output")
    ratio = [float(r["ratio"]) for r in out["tables"]["sweep.csv"]]
    expect(trips(sweep.check, _rewrite(out, "sweep.csv", 2, "ratio", ratio[0] * 0.9)),
           "dtn-sweep gate trips when E/eps does not rise with depth")
    expect(trips(sweep.check, _rewrite(out, "sweep.csv", 1, "eps", math.nan)),
           "dtn-sweep gate trips on a non-finite eps")
    expect(trips(sweep.gate, _rewrite(out, "sweep.csv", 0, "h", 0.5)),
           "byte-identity check trips when a later op's CSV differs")

    gn = WORKLOADS["gauss-newton"](1, workdir, small=True)
    out = gn.run()
    expect(not trips(gn.gate, out), "gauss-newton gate passes a genuine output")
    last = len(out["tables"]["recon_log.csv"]) - 1
    expect(trips(gn.check, _rewrite(out, "recon_log.csv", last, "err_inf", 1e-3)),
           "gauss-newton gate trips on a noiseless error above 1e-6")
    sigma = out["manifest"]["results"]["sigma_min"]
    expect(trips(gn.check, _rewrite(out, "noise_sweep.csv", 0, "err_inf",
                                    4 * gn.eta / sigma)),
           "gauss-newton gate trips on a noisy error above 3 eta / sigma_min")

    # probe-3d: the full op takes tens of seconds, so the genuine output is
    # built from the closed form in the CSV layout the CLI writes
    probe = Probe3d(1, workdir)
    a1 = [complex(*v) for v in probe.config["admittivity"]["values"]]
    a2 = [complex(*v) for v in probe.config["admittivity_2"]["values"]]
    radii = [f * probe.rho0 for f in DEPTH_FRACTIONS]
    vals = [abs(probe_closed_form(a1[0], a1[1], a2[0], a2[1], r, probe.rho0))
            for r in radii]
    slope = (math.log(vals[-1]) - math.log(vals[0])) / (math.log(radii[-1])
                                                         - math.log(radii[0]))
    body = "r,abs_S,fit_slope\n" + "".join(f"{r!r},{v!r},{slope!r}\n"
                                             for r, v in zip(radii, vals))
    out = {"csv": {"s_rate.csv": body.encode()}, "manifest": {},
           "tables": {"s_rate.csv": [dict(zip(("r", "abs_S", "fit_slope"),
                                              line.split(",")))
                                     for line in body.splitlines()[1:]]}}
    expect(not trips(probe.check, out), "probe-3d gate passes the closed form")
    expect(trips(probe.check, _rewrite(out, "s_rate.csv", 4, "abs_S",
                                       vals[4] * (1 + 1e-5))),
           "probe-3d gate trips on |S| 1e-5 off the closed form")
    for i in range(5):
        out = _rewrite(out, "s_rate.csv", i, "fit_slope", -1.2)
    expect(trips(probe.check, out), "probe-3d gate trips on a fit slope of -1.2")

    sing = WORKLOADS["singular-2d"](1, workdir, small=True)
    out = sing.run()
    expect(not trips(sing.gate, out), "singular-2d gate passes a genuine output")
    expect(trips(sing.check, dict(out, verdict="blow-up")),
           "singular-2d gate trips on a blow-up verdict")
    expect(trips(sing.check, dict(out, residual=math.nan)),
           "singular-2d gate trips on a non-finite weak residual")
    expect(trips(sing.gate, dict(out, values=out["values"] * (1 + 1e-12))),
           "output-identity check trips when a later op's values differ")


def main() -> int:
    run.OUT_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_ROOT))
    try:
        test_benchmark_json()
        test_rebinding(workdir)
        test_self_time(workdir)
        test_gates(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
