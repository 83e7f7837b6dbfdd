"""Batch front door: scenario configs, subcommand dispatch, CSV artifacts.

A scenario is a single JSON file with an explicit schema version; unknown
keys anywhere are rejected so that every archived config replays exactly.
`run` executes one experiment and writes CSV tables plus a manifest (config
echo, mesh hash, tool version, wall time); all randomness flows from one
seed, so CSV bodies are byte-identical across reruns.

Exit codes: 0 success, 2 validation failure, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dtn import dtn_matrix
from .forward import (Admittivity, EllipticityError, SolverError, boundary_trace,
                      caccioppoli_ratio, field_from_function, solve_dirichlet)
from .fundsol import SingularPointError, TwoPhaseCoeffs
from .geometry import (GeometryError, InvalidSpecError, TooCoarseError, _open_new,
                       _write_csv, build_partition, generate_mesh, mesh_hash)
from .singular import (CorrectorSolver, PlacementError, alessandrini_pair,
                       asymptotics_check, half_space_probe_rate)
from .stability import (ConstantTracker, constant_bound, gauss_newton_reconstruct,
                        random_harmonic_polynomial, sensitivity_jacobian,
                        stability_sweep, three_sphere_check,
                        worst_case_perturbation)

__all__ = ["ValidationError", "NumericFailure", "run_scenario",
           "list_experiments", "main"]


class ValidationError(ValueError):
    """Config rejected before any computation started."""


class NumericFailure(RuntimeError):
    """Experiment produced non-finite or otherwise unusable numbers."""


# --- config parsing ----------------------------------------------------------

def _require_keys(obj: dict, path: str, required: tuple, optional: tuple) -> None:
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: expected an object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ValidationError(f"{path}: unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ValidationError(f"{path}: missing keys {missing}")


def _number(obj, path: str) -> float:
    # JSON admits NaN and Infinity, and 1e999 parses to inf
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        try:
            x = float(obj)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    raise ValidationError(f"{path}: expected a finite number, got {obj!r}")


def _numbers(obj, path: str) -> list[float]:
    if not isinstance(obj, list):
        raise ValidationError(f"{path}: expected a list of numbers")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(obj)]


def _radii(obj, path: str) -> list[float]:
    # a log-log slope needs two distinct radii
    fracs = _numbers(obj, path)
    if min(fracs, default=0.0) <= 0 or len(set(fracs)) < 2:
        raise ValidationError(f"{path}: expected at least two distinct positive numbers")
    return fracs


def _positive(obj, path: str) -> float:
    x = _number(obj, path)
    if not x > 0:
        raise ValidationError(f"{path}: expected a positive number, got {x!r}")
    return x


def _int(obj, path: str, minimum: int | None = None) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise ValidationError(f"{path}: expected an integer, got {obj!r}")
    if minimum is not None and obj < minimum:
        raise ValidationError(f"{path}: expected an integer >= {minimum}, got {obj}")
    return obj


def _complex_pair(obj, path: str) -> complex:
    if (not isinstance(obj, list)) or len(obj) != 2:
        raise ValidationError(f"{path}: expected [re, im]")
    return complex(_number(obj[0], path + "[0]"), _number(obj[1], path + "[1]"))


def _parse_admittivity(obj, path: str) -> Admittivity:
    _require_keys(obj, path, ("values",), ("lambda",))
    if not isinstance(obj["values"], list) or not obj["values"]:
        raise ValidationError(f"{path}.values: expected a nonempty list")
    vals = [_complex_pair(v, f"{path}.values[{i}]") for i, v in enumerate(obj["values"])]
    lam = _number(obj.get("lambda", 10.0), path + ".lambda")
    try:
        return Admittivity(tuple(vals), lam=lam)
    except EllipticityError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _parse_partition(obj, path: str):
    _require_keys(obj, path, ("n_strips",), ("rect", "with_extension"))
    n = _int(obj["n_strips"], path + ".n_strips")
    rect = obj.get("rect", [0.0, 0.0, 1.0, 1.0])
    if not isinstance(rect, list) or len(rect) != 4:
        raise ValidationError(f"{path}.rect: expected [x0, y0, x1, y1]")
    we = obj.get("with_extension", False)
    if not isinstance(we, bool):
        raise ValidationError(f"{path}.with_extension: expected a boolean")
    try:
        return build_partition(n, tuple(_number(v, path + ".rect") for v in rect),
                               with_extension=we)
    except InvalidSpecError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


_TOP_KEYS = ("version", "experiment", "seed", "out_dir", "partition", "mesh",
             "admittivity", "admittivity_2", "admittivities", "params")


class Scenario:
    def __init__(self, raw: dict):
        _require_keys(raw, "config", ("version", "experiment"),
                      tuple(k for k in _TOP_KEYS if k not in ("version", "experiment")))
        if _int(raw["version"], "config.version") != 1:
            raise ValidationError(f"config.version: unsupported version {raw['version']!r}")
        if not isinstance(raw["experiment"], str) or raw["experiment"] not in EXPERIMENTS:
            raise ValidationError(
                f"config.experiment: unknown kind {raw['experiment']!r}; "
                f"choose from {sorted(EXPERIMENTS)}")
        self.raw = raw
        self.experiment = raw["experiment"]
        self.seed = _int(raw.get("seed", 0), "config.seed", minimum=0)
        self.out_dir = raw.get("out_dir")
        if not isinstance(self.out_dir, (str, type(None))):
            raise ValidationError("config.out_dir: expected a string")
        self.params = raw.get("params", {})
        if not isinstance(self.params, dict):
            raise ValidationError("config.params: expected an object")

        self.partition = _parse_partition(raw["partition"], "config.partition") \
            if "partition" in raw else None
        self.admittivity = _parse_admittivity(raw["admittivity"], "config.admittivity") \
            if "admittivity" in raw else None
        self.admittivity_2 = _parse_admittivity(raw["admittivity_2"], "config.admittivity_2") \
            if "admittivity_2" in raw else None
        if not isinstance(raw.get("admittivities", []), list):
            raise ValidationError("config.admittivities: expected a list")
        self.admittivities = [
            _parse_admittivity(a, f"config.admittivities[{i}]")
            for i, a in enumerate(raw.get("admittivities", []))]
        self._check_strip_counts()

        self.mesh = None
        if "mesh" in raw:
            _require_keys(raw["mesh"], "config.mesh", ("h",), ())
            if self.partition is None:
                raise ValidationError("config.mesh: a mesh needs a partition")
            h = _number(raw["mesh"]["h"], "config.mesh.h")
            try:
                self.mesh = generate_mesh(self.partition, h)
            except (TooCoarseError, InvalidSpecError) as exc:
                raise ValidationError(f"config.mesh.h: {exc}") from exc

    def need(self, *attrs):
        for attr in attrs:
            if getattr(self, attr) in (None, []):
                raise ValidationError(
                    f"config: experiment {self.experiment!r} requires {attr!r}")

    def _check_strip_counts(self) -> None:
        """Every admittivity has one value per strip of the partition, or,
        without a partition, as many values as the first admittivity."""
        named = [("config.admittivity", self.admittivity),
                 ("config.admittivity_2", self.admittivity_2)]
        named += [(f"config.admittivities[{i}]", a) for i, a in enumerate(self.admittivities)]
        named = [(path, a) for path, a in named if a is not None]
        if not named:
            return
        n = self.partition.n_strips if self.partition is not None else named[0][1].n
        for path, adm in named:
            if adm.n != n:
                raise ValidationError(f"{path}: {adm.n} values for {n} strips")


def _params(scn: Scenario, required: tuple, optional: tuple) -> dict:
    _require_keys(scn.params, "config.params", required, optional)
    return scn.params


def _check_finite(rows, context: str) -> None:
    for row in rows:
        for v in row:
            if isinstance(v, (float, np.floating)) and not math.isfinite(v):
                raise NumericFailure(f"{context}: non-finite value in output")


# --- experiment runners -------------------------------------------------------
# each runner returns (csv files dict name -> (header, rows), manifest extras)

def _datum_fn(params: dict, path: str):
    kind = params.get("datum", "x1")
    if kind == "x1":
        return lambda x, y: x + 0j
    if kind == "x2":
        return lambda x, y: y + 0j
    if isinstance(kind, dict):
        _require_keys(kind, path, ("kind", "degree"), ("part",))
        if kind["kind"] != "harmonic":
            raise ValidationError(f"{path}.kind: unknown datum {kind['kind']!r}")
        m = _int(kind["degree"], path + ".degree")
        part = kind.get("part", "re")
        if part not in ("re", "im"):
            raise ValidationError(f"{path}.part: expected 're' or 'im'")
        if part == "re":
            return lambda x, y: ((x + 1j * y) ** m).real + 0j
        return lambda x, y: ((x + 1j * y) ** m).imag + 0j
    raise ValidationError(f"{path}: unknown datum {kind!r}")


def _run_forward(scn: Scenario, rng):
    scn.need("partition", "mesh", "admittivity")
    params = _params(scn, (), ("datum",))
    fn = _datum_fn(params, "config.params.datum")
    with np.errstate(all="ignore"):     # a pole on the boundary is reported below
        trace = boundary_trace(scn.mesh, fn)
    if not np.all(np.isfinite(trace)):
        raise NumericFailure("forward: the datum is not finite at every boundary node")
    return {"solution.csv": solve_dirichlet(scn.mesh, scn.admittivity, trace).table()}, {}


def _arc_positions(scn: Scenario, which: str) -> np.ndarray | None:
    if which == "full":
        return None
    if which == "bottom":
        # the trace order starts with the bottom row of the node grid
        return np.arange(scn.mesh.grid.shape[1])
    raise ValidationError(f"config.params.arc: expected 'full' or 'bottom', got {which!r}")


def _run_dtn_norm(scn: Scenario, rng):
    scn.need("partition", "mesh", "admittivity", "admittivity_2")
    params = _params(scn, (), ("arc",))
    arc = _arc_positions(scn, params.get("arc", "full"))
    r, = stability_sweep([(scn.admittivity, scn.admittivity_2)], scn.mesh, arc=arc)
    return {"dtn_norm.csv": (("E", "eps", "ratio", "h"), [(r.E, r.eps, r.ratio, r.h)])}, \
        {"E": r.E, "eps": r.eps}


def _random_admissible(rng, n: int, lam: float) -> Admittivity:
    re = rng.uniform(max(1.0 / lam, 0.5), 2.5, size=n)
    im = rng.uniform(-1.0, 1.0, size=n)
    return Admittivity(tuple(re + 1j * im), lam=lam)


def _run_identity_check(scn: Scenario, rng):
    scn.need("partition", "mesh", "admittivity")
    params = _params(scn, (), ("n_pairs",))
    n_pairs = _int(params.get("n_pairs", 5), "config.params.n_pairs", minimum=1)
    nb = len(scn.mesh.boundary_nodes)
    lam = scn.admittivity.lam
    rows = []
    for i in range(n_pairs):
        a1 = scn.admittivity if i == 0 else _random_admissible(rng, scn.admittivity.n, lam)
        a2 = scn.admittivity_2 if (i == 0 and scn.admittivity_2 is not None) \
            else _random_admissible(rng, scn.admittivity.n, lam)
        f1 = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
        f2 = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
        lhs, rhs = alessandrini_pair(a1, a2, f1, f2, scn.mesh)
        rel = abs(lhs - rhs) / max(abs(lhs), 1e-300)
        rows.append((i, lhs.real, lhs.imag, rhs.real, rhs.imag, rel))
    worst = max(r[-1] for r in rows)
    return {"identity.csv": (("pair_id", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
                              "rel_err"), rows)}, {"max_rel_err": worst}


def _run_asymptotics(scn: Scenario, rng):
    scn.need("partition", "mesh", "admittivity")
    params = _params(scn, ("link",), ("radii_over_r0",))
    link = _int(params["link"], "config.params.link")
    fracs = _radii(params.get("radii_over_r0", [2.0 ** (-j) for j in range(2, 7)]),
                   "config.params.radii_over_r0")
    radii = [f * scn.partition.r0 for f in fracs]
    solver = CorrectorSolver(scn.mesh, scn.admittivity)
    rows_raw, slope, verdict = asymptotics_check(solver, link, radii)
    rows = [(r.r, r.deviation, r.grad_deviation) for r in rows_raw]
    return {"asymptotics.csv": (("r", "deviation", "grad_deviation"), rows)}, \
        {"slope": slope, "verdict": verdict}


def _run_s_rate(scn: Scenario, rng):
    scn.need("admittivity", "admittivity_2")
    params = _params(scn, ("k",), ("rho0", "radii_over_rho0"))
    k = _int(params["k"], "config.params.k")
    if not 2 <= k <= scn.admittivity.n:
        raise ValidationError("config.params.k: need an interior interface index")
    rho0 = _positive(params.get("rho0", 0.25), "config.params.rho0")
    fracs = _radii(params.get("radii_over_rho0", [2.0 ** (-j) for j in range(3, 8)]),
                   "config.params.radii_over_rho0")
    jump = scn.admittivity.value_for(k) - scn.admittivity_2.value_for(k)
    if jump == 0:
        raise ValidationError(f"config.admittivity_2: equals config.admittivity at strip "
                              f"{k}, so the probe integral vanishes at every depth")
    c1 = TwoPhaseCoeffs(scn.admittivity.value_for(k), scn.admittivity.value_for(k - 1))
    c2 = TwoPhaseCoeffs(scn.admittivity_2.value_for(k), scn.admittivity_2.value_for(k - 1))
    # rho0 ** 2 overflows from about 1e155, and a depth of about 1e-200 rho0
    # puts a quadrature node on the source
    try:
        radii, vals, slope = half_space_probe_rate(c1, c2, jump,
                                                   [f * rho0 for f in fracs], rho0)
    except (OverflowError, SingularPointError) as exc:
        raise NumericFailure(f"s-rate at rho0 = {rho0!r}: probe quadrature failed: "
                             f"{exc}") from exc
    rows = [(float(r), float(abs(v)), slope) for r, v in zip(radii, vals)]
    return {"s_rate.csv": (("r", "abs_S", "fit_slope"), rows)}, {"fit_slope": slope}


def _run_reconstruct(scn: Scenario, rng):
    scn.need("partition", "mesh", "admittivity")
    params = _params(scn, (), ("guess", "noise_levels", "max_iter"))
    truth = scn.admittivity
    max_iter = _int(params.get("max_iter", 30), "config.params.max_iter", minimum=0)
    if "guess" in params:
        if not isinstance(params["guess"], list) or len(params["guess"]) != truth.n:
            raise ValidationError(f"config.params.guess: expected {truth.n} [re, im] pairs")
        gvals = [_complex_pair(v, "config.params.guess") for v in params["guess"]]
        guess = Admittivity(tuple(gvals), lam=truth.lam)
    else:
        guess = Admittivity(tuple(1.0 for _ in truth.values), lam=truth.lam)

    levels = _numbers(params.get("noise_levels", []), "config.params.noise_levels")
    # only the noise direction needs the truth's Jacobian; both give the
    # target from the same Schur complement, bit for bit
    if levels:
        sens = sensitivity_jacobian(scn.mesh, truth)
        target = sens.dtn
    else:
        target = dtn_matrix(scn.mesh, truth).matrix
    res = gauss_newton_reconstruct(target, scn.mesh, guess,
                                   max_iter=max_iter, truth=truth)
    log_rows = [(it, mis, err) for it, mis, err in res.history]
    files = {"recon_log.csv": (("iter", "misfit", "err_inf"), log_rows)}
    extras = {"iterations": res.iterations, "converged": res.converged,
              "final_err_inf": res.history[-1][2]}

    if levels:
        S = worst_case_perturbation(sens)
        noise_rows = []
        for eta in levels:
            with np.errstate(over="ignore"):
                noisy = target + eta * S
            if not np.isfinite(noisy).all():
                raise NumericFailure(f"noise level {eta}: perturbed DtN map is not finite")
            r = gauss_newton_reconstruct(noisy, scn.mesh, guess,
                                         max_iter=max_iter, truth=truth)
            noise_rows.append((eta, r.history[-1][1], r.admittivity.max_jump(truth)))
        files["noise_sweep.csv"] = (("eta", "misfit", "err_inf"), noise_rows)
        extras["sigma_min"] = sens.sigma_min
    return files, extras


def _run_constant_bound(scn: Scenario, rng):
    params = _params(scn, (), ("n_max", "C", "dim"))
    n_max = _int(params.get("n_max", 6), "config.params.n_max", minimum=1)
    C = _number(params.get("C", 1.0), "config.params.C")
    dim = _int(params.get("dim", 3), "config.params.dim")
    try:
        tracker = ConstantTracker(n=dim, c_base=C)
        bounds = [constant_bound(N, tracker) for N in range(1, n_max + 1)]
    except ValueError as exc:
        raise ValidationError(f"config.params: {exc}") from exc
    rows = []
    for N, cb in enumerate(bounds, start=1):
        t = cb.log10
        rows.append((N, t.to_float() if t.to_float() != math.inf else "",
                     t.depth, t.value))
    return {"constant_bound.csv": (("N", "log10_bound", "tower_depth",
                                    "tower_value"), rows)}, {}


def _run_sweep(scn: Scenario, rng, threads: int = 1):
    scn.need("partition", "mesh", "admittivities")
    if len(scn.admittivities) < 2:
        raise ValidationError("config.admittivities: sweep needs at least two entries")
    params = _params(scn, (), ("pairs", "arc"))
    idx_pairs = params.get("pairs")
    if idx_pairs is None:
        idx_pairs = [[0, i] for i in range(1, len(scn.admittivities))]
    if not isinstance(idx_pairs, list) or not idx_pairs:
        raise ValidationError("config.params.pairs: expected a nonempty list of [i, j] pairs")
    pairs = []
    for pr in idx_pairs:
        if (not isinstance(pr, list)) or len(pr) != 2:
            raise ValidationError("config.params.pairs: expected [i, j] pairs")
        i, j = (_int(v, "config.params.pairs", minimum=0) for v in pr)
        try:
            pairs.append((scn.admittivities[i], scn.admittivities[j]))
        except IndexError as exc:
            raise ValidationError(f"config.params.pairs: index out of range {pr}") from exc
    arc = _arc_positions(scn, params.get("arc", "full"))
    recs = stability_sweep(pairs, scn.mesh, threads=threads, arc=arc)
    rows = [(sid, scn.partition.n_strips, r.E, r.eps, r.ratio, r.h)
            for sid, r in enumerate(recs)]
    return {"sweep.csv": (("scenario_id", "N", "E", "eps", "ratio", "h"), rows)}, \
        {"max_ratio": max(r.ratio for r in recs)}


def _run_three_sphere(scn: Scenario, rng):
    params = _params(scn, (), ("n_samples", "max_degree", "radius"))
    n_samples = _int(params.get("n_samples", 200), "config.params.n_samples", minimum=0)
    max_degree = _int(params.get("max_degree", 6), "config.params.max_degree", minimum=0)
    if n_samples == max_degree == 0:
        raise ValidationError("config.params: n_samples and max_degree are both 0, "
                              "so there is no sample")
    radius = _positive(params.get("radius", 1.0), "config.params.radius")
    rows = []
    for m in range(1, max_degree + 1):
        u = (lambda mm: (lambda x, y: ((np.asarray(x) + 1j * np.asarray(y)) ** mm).real))(m)
        rows.append((f"monomial_{m}", three_sphere_check(u, (0.0, 0.0), radius)))
    for i in range(n_samples):
        u = random_harmonic_polynomial(rng, max_degree)
        rows.append((f"random_{i}", three_sphere_check(u, (0.0, 0.0), radius)))
    rows = [(name, math.nan if ratio is None else ratio) for name, ratio in rows]
    return {"three_sphere.csv": (("sample_id", "ratio"), rows)}, \
        {"max_ratio": max(r[1] for r in rows)}


def _run_caccioppoli(scn: Scenario, rng):
    scn.need("partition", "mesh")
    params = _params(scn, ("x0", "rho", "R"), ("n_samples", "max_degree"))
    x0 = params["x0"]
    if not isinstance(x0, list) or len(x0) != 2:
        raise ValidationError("config.params.x0: expected [x, y]")
    x0 = tuple(_number(v, "config.params.x0") for v in x0)
    rho = _positive(params["rho"], "config.params.rho")
    R = _number(params["R"], "config.params.R")
    if not rho < R:
        raise ValidationError(f"config.params: need rho < R, got rho={rho}, R={R}")
    n_samples = _int(params.get("n_samples", 50), "config.params.n_samples", minimum=1)
    max_degree = _int(params.get("max_degree", 4), "config.params.max_degree", minimum=0)
    rows = []
    for i in range(n_samples):
        u = random_harmonic_polynomial(rng, max_degree, center=x0)
        rows.append((i, caccioppoli_ratio(field_from_function(scn.mesh, u), x0, rho, R)))
    return {"caccioppoli.csv": (("sample_id", "ratio"), rows)}, \
        {"max_ratio": max(r[1] for r in rows)}


EXPERIMENTS = {
    "forward": (_run_forward,
                "one Dirichlet solve; writes the nodal field",
                "datum: 'x1' | 'x2' | {kind: 'harmonic', degree, part}"),
    "dtn-norm": (_run_dtn_norm,
                 "coefficient gap E vs weighted DtN-difference norm eps",
                 "arc: 'full' | 'bottom'"),
    "identity-check": (_run_identity_check,
                       "interior bilinear misfit equals the boundary pairing",
                       "n_pairs: int"),
    "asymptotics": (_run_asymptotics,
                    "boundedness of the singular solution minus its "
                    "cross-interface limit profile",
                    "link: interface index; radii_over_r0: [floats]"),
    "s-rate": (_run_s_rate,
               "depth scaling of the half-space probe integral (slope -1 in 3D)",
               "k: interface index; rho0: float; radii_over_rho0: [floats]"),
    "reconstruct": (_run_reconstruct,
                    "Gauss-Newton recovery from a synthetic DtN target, "
                    "optional worst-case noise sweep",
                    "guess: [[re,im],...]; noise_levels: [floats]; max_iter: int"),
    "constant-bound": (_run_constant_bound,
                       "chained stability constant per region count, in log10",
                       "n_max: int; C: float; dim: int >= 3"),
    "sweep": (_run_sweep,
              "E/eps table over admittivity pairs, optionally with "
              "bottom-edge local data",
              "pairs: [[i,j],...]; arc: 'full' | 'bottom'"),
    "three-sphere": (_run_three_sphere,
                     "empirical three-sphere constants of harmonic samples "
                     "(monomials are extremal with ratio 1)",
                     "n_samples: int; max_degree: int; radius: float"),
    "caccioppoli": (_run_caccioppoli,
                    "interior gradient-vs-function energy ratios on "
                    "concentric balls",
                    "x0: [x,y]; rho; R; n_samples; max_degree"),
}


def list_experiments(as_json: bool = False) -> str:
    if as_json:
        payload = [{"kind": k, "description": d, "params": p}
                   for k, (_, d, p) in sorted(EXPERIMENTS.items())]
        return json.dumps(payload, indent=2, sort_keys=True)
    lines = ["available experiments:"]
    for k, (_, desc, params) in sorted(EXPERIMENTS.items()):
        lines.append(f"  {k:15s} {desc}")
        lines.append(f"  {'':15s} params: {params}")
    return "\n".join(lines)


def run_scenario(config_path, out_dir=None, seed=None, threads: int = 1) -> Path:
    """Execute one scenario file; returns the output directory."""
    t0 = time.perf_counter()
    _int(threads, "--threads", minimum=1)
    path = Path(config_path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValidationError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config parse error at line {exc.lineno}, "
                              f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("config: expected a JSON object")

    scn = Scenario(raw)
    if seed is not None:
        scn.seed = _int(seed, "--seed", minimum=0)
    rng = np.random.default_rng(scn.seed)

    out = Path(out_dir) if out_dir is not None else \
        Path(scn.out_dir) if scn.out_dir else Path(f"runs/{path.stem}")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory: {exc}") from exc

    runner = EXPERIMENTS[scn.experiment][0]
    try:
        if scn.experiment == "sweep":
            files, extras = runner(scn, rng, threads=threads)
        else:
            files, extras = runner(scn, rng)
    except (EllipticityError, InvalidSpecError, TooCoarseError, GeometryError,
            PlacementError) as exc:
        raise ValidationError(str(exc)) from exc
    except SolverError as exc:
        raise NumericFailure(str(exc)) from exc
    for name, (_, rows) in files.items():
        _check_finite(rows, f"{scn.experiment} {name}")

    written = []
    for name, (header, rows) in files.items():
        _write_csv(out / name, header, rows)
        written.append(name)

    manifest = {
        "tool": "eitlab",
        "tool_version": __version__,
        "experiment": scn.experiment,
        "seed": scn.seed,
        "threads": threads,
        "config": raw,
        "outputs": sorted(written),
        "mesh_hash": mesh_hash(scn.mesh) if scn.mesh is not None else None,
        "wall_time_s": time.perf_counter() - t0,
        "results": extras,
    }
    with _open_new(out / "manifest.json", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True, default=str)
        f.write("\n")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="eitlab", description="batch experiments on strip-partitioned "
                                   "complex-admittivity problems")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute one scenario config")
    p_run.add_argument("config", help="path to a scenario JSON file")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--threads", type=int, default=1, help="worker threads for sweeps")
    p_list = sub.add_parser("list", help="print the experiment catalog")
    p_list.add_argument("--json", action="store_true", help="machine-readable catalog")

    args = parser.parse_args(argv)
    if args.command == "list":
        print(list_experiments(as_json=args.json))
        return 0
    try:
        out = run_scenario(args.config, out_dir=args.out, seed=args.seed,
                           threads=args.threads)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
