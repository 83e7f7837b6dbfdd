"""Seeded inputs, operations and correctness gates of the four workloads.

Each workload turns a seed into inputs (scenario configs or arrays), runs one
operation on them, and checks the outputs with a gate built on a principle
that does not come from the code under test.  Operations reach the program
through module attributes (`cli.run_scenario`, `singular.CorrectorSolver`),
never through names bound at import, so the tracer's rebinding sees them.

`small=True` gives the untimed warm-up instance of the same operation: the
same layers at a size that costs a fraction of a second.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

DEPTH_FRACTIONS = [2.0 ** (-j) for j in range(3, 8)]      # depths rho0/8 ... rho0/128
LAMBDA = 10.0


def _gamma(rng) -> list:
    """Seeded complex admittivity well inside the lambda = 10 box."""
    return [float(rng.uniform(0.8, 2.0)), float(rng.uniform(-0.8, 0.8))]


def _adm(values) -> dict:
    return {"values": values, "lambda": LAMBDA}


class GateError(Exception):
    """An operation's outputs failed their correctness gate."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


class Workload:
    """Seeded inputs plus one op; every op of a run must give the same outputs."""

    name = ""
    reference = None

    def run(self) -> dict:
        raise NotImplementedError

    def check(self, out: dict) -> dict:
        """Raise GateError unless `out` is correct; return accuracy diagnostics."""
        raise NotImplementedError

    def digest(self, out: dict) -> str:
        raise NotImplementedError

    def gate(self, out: dict) -> dict:
        diagnostics = self.check(out)
        digest = self.digest(out)
        if self.reference is None:
            self.reference = digest
        _require(digest == self.reference, "outputs differ from the first op of this run")
        return diagnostics

    def csv_bytes(self, out: dict) -> int:
        return 0


# --- CLI workloads -----------------------------------------------------------

class CliWorkload(Workload):
    """One scenario config run through `cli.run_scenario` per op."""

    def __init__(self, seed: int, workdir: Path, small: bool = False):
        self.seed = seed
        self.small = small
        self.config = self.make_config(np.random.default_rng(seed))
        tag = f"{self.name}-small" if small else self.name
        self.config_path = workdir / f"{tag}.json"
        self.out_dir = workdir / f"{tag}-out"
        self.config_path.write_text(json.dumps(self.config, indent=1), encoding="utf-8")

    def make_config(self, rng) -> dict:
        raise NotImplementedError

    def run(self):
        from eitlab import cli
        out = cli.run_scenario(self.config_path, out_dir=self.out_dir, threads=1)
        csvs = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        return {"csv": csvs, "manifest": manifest,
                "tables": {k: _parse_csv(v) for k, v in csvs.items()}}

    def digest(self, out) -> str:
        """CSV bodies must be byte-identical across ops."""
        h = hashlib.sha256()
        for name, body in sorted(out["csv"].items()):
            h.update(name.encode() + b"\0" + body)
        return h.hexdigest()

    def csv_bytes(self, out) -> int:
        return sum(len(v) for v in out["csv"].values())

    def sizes(self) -> dict:
        return _mesh_sizes(self.config)


def _parse_csv(body: bytes) -> list[dict]:
    lines = body.decode("ascii").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _mesh_sizes(config: dict) -> dict:
    from eitlab import forward, geometry
    part = config["partition"]
    p = geometry.build_partition(part["n_strips"],
                                 with_extension=part.get("with_extension", False))
    mesh = geometry.generate_mesh(p, config["mesh"]["h"])
    adm = forward.Admittivity(tuple(1.0 for _ in range(part["n_strips"])))
    system = forward.assemble(mesh, adm)
    ii = system.interior
    return {"nodes": mesh.n_nodes, "boundary_nodes": len(mesh.boundary_nodes),
            "interior_nnz": int(system.matrix[np.ix_(ii, ii)].nnz)}


class DtnSweep(CliWorkload):
    """E/eps sweep: one seeded complex jump moved through each strip."""

    name = "dtn-sweep"

    def make_config(self, rng) -> dict:
        base = [_gamma(rng) for _ in range(3)]
        size = rng.uniform(0.3, 0.6)
        phase = rng.uniform(-math.pi / 4, math.pi / 4)
        jump = (size * math.cos(phase), size * math.sin(phase))
        admittivities = [_adm(base)]
        for strip in range(3):
            vals = [list(v) for v in base]
            vals[strip] = [vals[strip][0] + jump[0], vals[strip][1] + jump[1]]
            admittivities.append(_adm(vals))
        return {"version": 1, "experiment": "sweep", "seed": self.seed,
                "partition": {"n_strips": 3},
                "mesh": {"h": 1 / 16 if self.small else 1 / 128},
                "admittivities": admittivities, "params": {"arc": "bottom"}}

    def check(self, out) -> dict:
        rows = out["tables"]["sweep.csv"]
        _require(len(rows) == 3, f"expected 3 sweep rows, got {len(rows)}")
        eps = [float(r["eps"]) for r in rows]
        ratio = [float(r["ratio"]) for r in rows]
        _require(all(math.isfinite(e) and e > 0 for e in eps),
                 f"eps not finite and positive: {eps}")
        # bottom-edge data sees a deeper strip more weakly
        _require(all(a < b for a, b in zip(ratio, ratio[1:])),
                 f"E/eps does not rise with the depth of the perturbed strip: {ratio}")
        return {"eps": eps, "ratio": ratio,
                "min_step": min(b / a for a, b in zip(ratio, ratio[1:]))}


class GaussNewton(CliWorkload):
    """Reconstruction of a seeded truth from the all-ones guess, plus noise."""

    name = "gauss-newton"
    eta = 1e-3

    def make_config(self, rng) -> dict:
        return {"version": 1, "experiment": "reconstruct", "seed": self.seed,
                "partition": {"n_strips": 3},
                "mesh": {"h": 1 / 16 if self.small else 1 / 64},
                "admittivity": _adm([_gamma(rng) for _ in range(3)]),
                "params": {"noise_levels": [self.eta]}}

    def check(self, out) -> dict:
        res = out["manifest"]["results"]
        log = out["tables"]["recon_log.csv"]
        err0 = float(log[-1]["err_inf"])
        _require(err0 <= 1e-6, f"noiseless err_inf {err0:.3e} > 1e-6")
        _require(len(log) - 1 <= 15, f"{len(log) - 1} iterations > 15")
        noisy = out["tables"]["noise_sweep.csv"]
        err = float(noisy[0]["err_inf"])
        bound = 3.0 * self.eta / float(res["sigma_min"])
        _require(math.isfinite(err) and err <= bound,
                 f"noisy err_inf {err:.3e} > 3 eta / sigma_min = {bound:.3e}")
        return {"iterations": len(log) - 1, "err_inf": err0, "noisy_err_inf": err,
                "noisy_err_over_eta_per_sigma_min": 3.0 * err / bound}


def probe_closed_form(g1: complex, g2: complex, g1b: complex, g2b: complex,
                      r: float, rho0: float) -> complex:
    """Half-space probe integral in closed form (axisymmetric, source below).

    Both kernels take their cross branch above the interface, so the
    integrand is jump * c1 * c2 * grad(1/4 pi |x-y|)^2 with c = 2/(g+ + g-).
    """
    jump = g2 - g2b
    c1 = 2.0 / (g2 + g1)
    c2 = 2.0 / (g2b + g1b)
    base = (1.0 / r - 1.0 / (r + rho0)
            - math.log((r + rho0) ** 2 / (r ** 2 + rho0 ** 2)) / (2 * r))
    return jump * c1 * c2 * base / (16 * math.pi)


class Probe3d(CliWorkload):
    """Depth rate of the 3D half-space probe integral at five depths."""

    name = "probe-3d"
    rho0 = 0.25
    # jump * c1 * c2 scales the whole integrand.  dblquad's adaptive work
    # depends on the size of its real and imaginary parts, so the seed draws
    # three strip values and the fourth is solved to keep it fixed.
    strength = -0.2 + 0.2j

    def make_config(self, rng) -> dict:
        g1, g2, g1b = (complex(*_gamma(rng)) for _ in range(3))
        c1 = 2.0 / (g2 + g1)
        g2b = (2.0 * c1 * g2 - self.strength * g1b) / (self.strength + 2.0 * c1)
        a1 = [[g1.real, g1.imag], [g2.real, g2.imag]]
        a2 = [[g1b.real, g1b.imag], [g2b.real, g2b.imag]]
        fracs = [0.5, 0.25] if self.small else DEPTH_FRACTIONS
        return {"version": 1, "experiment": "s-rate", "seed": self.seed,
                "admittivity": _adm(a1), "admittivity_2": _adm(a2),
                "params": {"k": 2, "rho0": self.rho0, "radii_over_rho0": fracs}}

    def check(self, out) -> dict:
        rows = out["tables"]["s_rate.csv"]
        slope = float(rows[0]["fit_slope"])
        _require(abs(slope + 1.0) <= 0.1, f"fit slope {slope:.4f} not within 0.1 of -1")
        a1 = [complex(*v) for v in self.config["admittivity"]["values"]]
        a2 = [complex(*v) for v in self.config["admittivity_2"]["values"]]
        rel = []
        for row in rows:
            r = float(row["r"])
            want = abs(probe_closed_form(a1[0], a1[1], a2[0], a2[1], r, self.rho0))
            got = float(row["abs_S"])
            rel.append(abs(got - want) / want)
            _require(rel[-1] <= 1e-6, f"|S| at r={r:.5g}: {got!r} vs closed form {want!r}")
        return {"fit_slope": slope, "max_rel_err": max(rel)}

    def sizes(self) -> dict:
        return {"depths": len(self.config["params"]["radii_over_rho0"])}


# --- library workload ----------------------------------------------------------

class Singular2d(Workload):
    """Singular-solution layer through library calls (no CLI kind covers it).

    One op builds the mesh and two corrector solvers, samples the probe field
    S_2(., z) on a box straddling interface 2 (one corrector per box node),
    runs the near-interface asymptotics at five dyadic radii, and evaluates
    one singular solution and its gradient at seeded interior points.
    """

    name = "singular-2d"

    def __init__(self, seed: int, workdir: Path | None = None, small: bool = False):
        rng = np.random.default_rng(seed)
        self.small = small
        self.h = 1 / 16 if small else 1 / 64
        self.h_box = 0.1 if small else 0.03
        strips = [complex(*_gamma(rng)) for _ in range(3)]
        self.values_1 = tuple(strips)
        self.values_2 = tuple(strips[:2]) + (strips[2] + complex(rng.uniform(0.5, 1.5),
                                                                 rng.uniform(-0.5, 0.5)),)
        self.z = (float(rng.uniform(0.40, 0.60)), float(rng.uniform(-0.30, -0.20)))
        self.source = (float(rng.uniform(0.40, 0.60)), float(rng.uniform(0.40, 0.60)))
        n_points = 100 if small else 1000
        pts = np.column_stack([rng.uniform(0.01, 0.99, 4 * n_points),
                               rng.uniform(-1 / 3 + 0.01, 0.99, 4 * n_points)])
        far = np.linalg.norm(pts - np.asarray(self.source), axis=1) > 0.02
        self.points = pts[far][:n_points]

    def run(self):
        from eitlab import forward, geometry, singular
        p = geometry.build_partition(3, with_extension=True)
        mesh = geometry.generate_mesh(p, self.h)
        sv1 = singular.CorrectorSolver(mesh, forward.Admittivity(self.values_1))
        sv2 = singular.CorrectorSolver(mesh, forward.Admittivity(self.values_2))
        box = geometry.Rect(0.40, 1 / 3 - 0.12, 0.60, 1 / 3 + 0.12)
        residual, svals, _ = singular.probe_field_residual(
            sv1, sv2, 2, np.array(self.z), box, self.h_box, link2=1)
        radii = [p.r0 * 2.0 ** (-j) for j in range(2, 7)]
        rows, slope, verdict = singular.asymptotics_check(sv1, 2, radii)
        g = sv1.correction(np.array(self.source))
        values = g.evaluate(self.points)
        grads = g.gradient(self.points)
        return {"residual": residual, "probe_values": svals, "verdict": verdict,
                "slope": slope, "deviations": np.array([r.deviation for r in rows]),
                "values": values, "gradients": grads}

    def digest(self, out) -> str:
        h = hashlib.sha256()
        for key in ("probe_values", "deviations", "values", "gradients"):
            h.update(np.ascontiguousarray(out[key]).tobytes())
        return h.hexdigest()

    def check(self, out) -> dict:
        _require(out["verdict"] == "bounded",
                 f"asymptotics verdict {out['verdict']!r} (slope {out['slope']:.3f})")
        _require(math.isfinite(out["residual"]),
                 f"probe-field weak residual {out['residual']!r} is not finite")
        for key in ("probe_values", "values", "gradients"):
            _require(bool(np.all(np.isfinite(out[key]))), f"non-finite {key}")
        return {"residual": out["residual"], "asymptotics_slope": out["slope"]}

    def sizes(self) -> dict:
        return _mesh_sizes({"partition": {"n_strips": 3, "with_extension": True},
                            "mesh": {"h": self.h}}) | {"points": len(self.points)}


WORKLOADS = {w.name: w for w in (DtnSweep, GaussNewton, Probe3d, Singular2d)}
