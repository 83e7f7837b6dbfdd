"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
Desk scale throughout: at most 6 strips, mesh size at least 1/128.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg as sla

import eitlab as el
from eitlab.dtn import dtn_matrix
from eitlab.forward import (Admittivity, caccioppoli_ratio, field_from_function,
                            solve_dirichlet, solve_real_system)
from eitlab.fundsol import TwoPhaseCoeffs, laplace_gamma, transmission_residual, \
    two_phase_gamma
from eitlab.singular import (CorrectorSolver, alessandrini_pair,
                             asymptotics_check, half_space_probe_rate)
from eitlab.stability import (TAU, ConstantTracker, constant_bound,
                              gauss_newton_reconstruct, random_harmonic_polynomial,
                              sensitivity_jacobian, three_sphere_check,
                              worst_case_perturbation)
from test_forward import layered_profile


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_alessandrini_identity(strips3_mesh64):
    t0 = time.perf_counter()
    p, m = strips3_mesh64
    rng = np.random.default_rng(101)
    nb = len(m.boundary_nodes)
    worst = 0.0
    for _ in range(20):
        vals = [complex(rng.uniform(0.5, 2.5), rng.uniform(-1, 1)) for _ in range(3)]
        vals2 = [complex(rng.uniform(0.5, 2.5), rng.uniform(-1, 1)) for _ in range(3)]
        a1, a2 = Admittivity(vals), Admittivity(vals2)
        f1 = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
        f2 = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
        lhs, rhs = alessandrini_pair(a1, a2, f1, f2, m)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    dt = time.perf_counter() - t0
    report(1, worst <= 1e-10 and dt < 60.0,
           f"20 random pairs at h=1/64: max rel gap {worst:.3e} "
           f"(tol 1e-10), runtime {dt:.1f}s (< 60s)")


def test_criterion_2_transmission_residuals():
    rng = np.random.default_rng(202)
    lam = 10.0
    worst_v = worst_f = 0.0
    for _ in range(50):
        def draw():
            while True:
                g = complex(rng.uniform(1 / lam, 5.0), rng.uniform(-5.0, 5.0))
                if abs(g) <= lam:
                    return g
        gp, gm = draw(), draw()
        c = TwoPhaseCoeffs(gp, gm)
        t = np.linspace(-2, 2, 40)
        s2 = np.column_stack([t, np.zeros_like(t)])
        vj, fj = transmission_residual(c, (0.3, -0.4), s2, n=2)
        worst_v, worst_f = max(worst_v, vj), max(worst_f, fj)
        s3 = np.column_stack([t, 0.3 * t, np.zeros_like(t)])
        vj, fj = transmission_residual(c, (0.1, 0.2, 0.5), s3, n=3)
        worst_v, worst_f = max(worst_v, vj), max(worst_f, fj)
    c_eq = TwoPhaseCoeffs(1.7 - 0.8j, 1.7 - 0.8j)
    vj_eq, fj_eq = transmission_residual(
        c_eq, (0.0, -0.2), np.column_stack([np.linspace(-1, 1, 20), np.zeros(20)]), n=2)
    ok = worst_v <= 1e-12 and worst_f <= 1e-12 and vj_eq == 0.0 and fj_eq == 0.0
    report(2, ok, f"50 random pairs: max value jump {worst_v:.2e}, max flux "
                  f"jump {worst_f:.2e} (tol 1e-12); equal pair exact "
                  f"({vj_eq}, {fj_eq})")


def test_criterion_3_dtn_spectral_oracle(disk_mesh64):
    d = dtn_matrix(disk_mesh64, Admittivity([1.0]))
    scale = np.abs(d.matrix).max()
    sym = np.abs(d.matrix - d.matrix.T).max() / scale
    kern = np.abs(d.matrix @ np.ones(len(d.matrix))).max() / scale
    w = np.sort(sla.eigh(d.matrix.real, d.mass, eigvals_only=True))
    ks = np.repeat(np.arange(1, 9), 2)
    rel = np.abs(w[1:17] - ks) / ks
    ok = rel.max() <= 0.02 and sym <= 1e-10 and kern <= 1e-10
    report(3, ok, f"disk h=1/64: eigenvalue error {rel.max():.4%} (tol 2%) "
                  f"for |k|<=8, symmetry {sym:.1e}, constant kernel {kern:.1e} "
                  f"(tol 1e-10)")


def test_criterion_4_asymptotics(strips2_mesh64):
    p, m = strips2_mesh64
    solver = CorrectorSolver(m, Admittivity([1.0, 2.0 + 1.0j]))
    radii = [p.r0 * 2.0 ** (-j) for j in range(2, 7)]
    rows, slope, verdict = asymptotics_check(solver, 2, radii)
    c = TwoPhaseCoeffs(2.0 + 1.0j, 1.0)
    x, y = np.array([0.05, 0.21]), np.array([0.0, -0.17])
    free_dev = abs(two_phase_gamma(x, y, c, n=2)
                   - c.cross_coefficient * laplace_gamma(x, y, n=2))
    ok = slope >= -0.1 and verdict == "bounded" and free_dev == 0.0
    report(4, ok, f"gamma=(1, 2+i), dyadic radii r0/4..r0/64: log-deviation "
                  f"slope {slope:.3f} (>= -0.1), verdict {verdict}; free-space "
                  f"branch deviation {free_dev}")


def test_criterion_5_probe_rate_3d():
    t0 = time.perf_counter()
    c1 = TwoPhaseCoeffs(2.0 + 0.5j, 1.0)
    c2 = TwoPhaseCoeffs(1.5, 1.0)
    rho0 = 0.25
    radii = [rho0 * 2.0 ** (-j) for j in range(3, 8)]
    _, vals, slope = half_space_probe_rate(c1, c2, (2.0 + 0.5j) - 1.5, radii, rho0)
    dt = time.perf_counter() - t0
    ok = abs(slope + 1.0) <= 0.1 and dt < 60.0
    report(5, ok, f"half-space quadrature at 5 dyadic depths: log-log slope "
                  f"{slope:.3f} (-1 +/- 0.1), runtime {dt:.1f}s (< 60s)")


def test_criterion_6_three_sphere():
    ident = abs(4.0 ** (1.0 - TAU) - 3.0)
    worst_mono = 0.0
    for mdeg in range(1, 7):
        u = (lambda mm: (lambda x, y: ((np.asarray(x) + 1j * np.asarray(y)) ** mm).real))(mdeg)
        worst_mono = max(worst_mono, abs(three_sphere_check(u, (0.0, 0.0), 1.0) - 1.0))
    rng = np.random.default_rng(606)
    worst = max(three_sphere_check(random_harmonic_polynomial(rng, 6), (0.0, 0.0), 0.5)
                for _ in range(200))
    ok = ident <= 1e-12 and worst_mono <= 1e-12 and worst <= 1.5
    report(6, ok, f"4^(1-tau)-3 = {ident:.1e} (tol 1e-12); monomial ratio "
                  f"deviation {worst_mono:.1e}; random suite max {worst:.3f} (<= 1.5)")


def test_criterion_7_constant_tracker():
    tracker = ConstantTracker(n=3, c_base=1.0)
    bounds = [constant_bound(N, tracker) for N in range(1, 7)]
    log10_1 = bounds[0].log10.to_float()
    increasing = all(a.log10 < b.log10 for a, b in zip(bounds, bounds[1:]))
    geometric = all(not (b.log10 < a.log10.mul(2.0))
                    for a, b in zip(bounds, bounds[1:]))
    ok = abs(log10_1 - 110.9) <= 0.1 and increasing and geometric
    report(7, ok, f"N=1 log10 bound {log10_1:.4f} (110.9 +/- 0.1); "
                  f"N=1..6 strictly increasing: {increasing}, log-bound growth "
                  f">= x2 per region: {geometric}; N=6 bound {bounds[-1].log10!r}")


def test_criterion_8_reconstruction_stability():
    p = el.build_partition(3)
    m = el.generate_mesh(p, 1 / 32)
    truth = Admittivity([1.2, 1.0 + 0.7j, 2.0 - 0.3j])
    target = dtn_matrix(m, truth).matrix
    guess = Admittivity([1.0, 1.0, 1.0])
    res = gauss_newton_reconstruct(target, m, guess, truth=truth)
    err0 = res.admittivity.max_jump(truth)

    sens = sensitivity_jacobian(m, truth)
    S = worst_case_perturbation(sens)
    etas = np.array([1e-4, 1e-3, 1e-2])
    errs = []
    for eta in etas:
        r = gauss_newton_reconstruct(target + eta * S, m, guess,
                                     tol=1e-14, truth=truth)
        errs.append(r.admittivity.max_jump(truth))
    slope = float(np.polyfit(np.log(etas), np.log(errs), 1)[0])
    c_emp = float(np.exp(np.mean(np.log(errs) - np.log(etas))))
    factor = c_emp * sens.sigma_min
    ok = (err0 <= 1e-6 and res.iterations <= 15
          and abs(slope - 1.0) <= 0.15 and 1 / 3 <= factor <= 3.0)
    report(8, ok, f"noiseless recovery {err0:.2e} (<= 1e-6) in "
                  f"{res.iterations} iterations (<= 15); noise slope "
                  f"{slope:.3f} (1 +/- 0.15); C_emp*sigma_min {factor:.3f} "
                  f"(within factor 3)")


def test_criterion_9_forward_oracles():
    p = el.build_partition(2)
    m = el.generate_mesh(p, 1 / 32)
    msgs = []
    ok = True

    for vals in ([1.0, 3.0], [1.0, 1.0 + 1.0j]):
        profile, _ = layered_profile(vals, [0.5, 0.5])
        u = solve_dirichlet(m, Admittivity(vals), lambda x, y: profile(y))
        err = np.abs(u.values - profile(m.nodes[:, 1])).max()
        ok &= err <= 1e-10
        msgs.append(f"layered {vals}: {err:.1e}")

    a = Admittivity([1.0, 1.0 + 1.0j])
    f = lambda x, y: x + 1j * x * y
    gap = np.abs(solve_dirichlet(m, a, f).values
                 - solve_real_system(m, a, f).values).max()
    ok &= gap <= 1e-10
    msgs.append(f"real-vs-complex {gap:.1e}")

    p1 = el.build_partition(1)
    maxes = []
    for h in (1 / 16, 1 / 32):
        mm = el.generate_mesh(p1, h)
        rng = np.random.default_rng(909)
        vals = [caccioppoli_ratio(field_from_function(
            mm, random_harmonic_polynomial(rng, 4, center=(0.5, 0.5))),
            (0.5, 0.5), 0.15, 0.3, depth=6) for _ in range(15)]
        maxes.append(max(vals))
    stable = math.isfinite(maxes[0]) and math.isfinite(maxes[1]) \
        and abs(maxes[0] - maxes[1]) <= 0.1 * maxes[1]
    ok &= stable
    msgs.append(f"caccioppoli max {maxes[0]:.4f} -> {maxes[1]:.4f} (stable)")
    report(9, ok, "; ".join(msgs) + " (tol 1e-10)")
