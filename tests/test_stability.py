import math

import numpy as np
import pytest
from scipy.sparse.linalg import splu

import eitlab as el
from eitlab import dtn, forward
from eitlab.dtn import dtn_matrix, h_half_gram, operator_norm
from eitlab.forward import Admittivity, FemSystem, assemble, region_stiffness
from eitlab.stability import (TAU, ConstantTracker, TowerFloat, _project_admissible,
                              constant_bound, delta_recursion, gauss_newton_reconstruct,
                              omega, omega_inverse, omega_inverse_log, omega_iterate,
                              perturb_dtn, random_harmonic_polynomial,
                              sensitivity_jacobian, stability_sweep,
                              three_sphere_check, worst_case_perturbation)


def test_omega_branch_continuity():
    assert omega(math.exp(-3), 3) == pytest.approx(3 ** -0.25, rel=1e-14)
    assert omega(math.exp(-3) * (1 + 1e-12), 3) == pytest.approx(3 ** -0.25, rel=1e-9)
    assert omega(0.5, 3) == 3 ** -0.25          # capped branch
    assert omega(123.0, 3) == 3 ** -0.25


def test_omega_rejects_bad_inputs():
    with pytest.raises(ValueError):
        omega(0.0, 3)
    with pytest.raises(ValueError):
        omega(-1.0, 3)
    with pytest.raises(ValueError):
        omega(0.5, 2)        # degenerate dimension
    with pytest.raises(ValueError):
        omega_inverse(0.9, 3)   # above the increasing-branch range


def test_omega_inverse_closed_form():
    assert omega_inverse(0.5, 3) == pytest.approx(math.exp(-16), rel=1e-14)
    assert omega_inverse(0.5, 3) == pytest.approx(1.1253517471925912e-07, rel=1e-12)


def test_omega_roundtrip():
    cap = 3 ** -0.25
    for y in np.linspace(0.205, cap * 0.999, 17):
        t = omega_inverse(float(y), 3)
        assert omega(t, 3) == pytest.approx(float(y), rel=1e-12, abs=1e-12)


def test_omega_iterates_grow_toward_fixed_point():
    # composition moves values up toward the fixed point n^(-(n-2)/4); the
    # inverse iterates therefore collapse toward zero
    t = 1e-4
    seq = [omega_iterate(t, k, 3) for k in range(4)]
    assert seq[0] < seq[1] < seq[2]
    assert seq[3] == seq[2] == 3 ** -0.25     # fixed point of the capped branch
    y = 0.5
    l1 = omega_inverse_log(y, 3)
    l2 = -math.exp(-4.0 * l1)    # log of the second inverse iterate
    assert l2 < l1 < 0


def test_delta_recursion_zero_data():
    dr = delta_recursion(0.0, 1.0, 2.0, 5)
    assert all(d == 0.0 for d in dr.deltas)
    assert dr.final_bound == 0.0
    dr0 = delta_recursion(0.0, 0.0, 1.0, 3)
    assert dr0.final_bound == 0.0


def test_delta_recursion_zero_gap():
    eps, C = 1e-3, 1.5
    dr = delta_recursion(eps, 0.0, C, 4)
    for k, d in enumerate(dr.deltas):
        assert d <= (C + 1.0) ** k * eps + 1e-15
    assert dr.deltas[0] == 0.0


def test_delta_recursion_matches_closed_form(rng):
    for _ in range(25):
        eps = 10.0 ** rng.uniform(-8, -1)
        E = 10.0 ** rng.uniform(-3, 1)
        C = rng.uniform(0.1, 4.0)
        M = int(rng.integers(1, 7))
        dr = delta_recursion(eps, E, C, M)
        assert dr.final_bound == pytest.approx(dr.closed_form, rel=1e-12)


def test_delta_recursion_monotone_in_inputs():
    base = delta_recursion(1e-4, 1.0, 1.0, 3).final_bound
    assert delta_recursion(2e-4, 1.0, 1.0, 3).final_bound >= base
    assert delta_recursion(1e-4, 2.0, 1.0, 3).final_bound >= base
    assert delta_recursion(1e-4, 1.0, 2.0, 3).final_bound >= base
    assert delta_recursion(1e-4, 1.0, 1.0, 4).final_bound >= base


def test_tower_float_basics():
    a = TowerFloat.from_float(5.0)
    assert a.to_float() == 5.0
    b = a.exp()
    assert b.to_float() == pytest.approx(math.exp(5.0))
    c = TowerFloat.from_float(1e8).exp()       # exp(1e8), far beyond floats
    assert c.to_float() == math.inf
    assert c.ln().to_float() == pytest.approx(1e8)
    assert TowerFloat.from_float(3.0) < TowerFloat.from_float(4.0)
    assert TowerFloat.from_float(700.0) < c
    assert c.mul(10.0)._key() > c._key()


def test_constant_bound_single_region():
    tracker = ConstantTracker(n=3, c_base=1.0)
    cb = constant_bound(1, tracker)
    assert cb.log10.to_float() == pytest.approx(110.878, abs=0.1)
    assert cb.linear == math.inf or cb.linear > 1e100


def test_constant_bound_small_base():
    tracker = ConstantTracker(n=3, c_base=1e-12)
    cb = constant_bound(1, tracker)
    # limit C -> 0: bound -> e^16 / 2
    assert cb.log10.to_float() == pytest.approx((16 - math.log(2)) / math.log(10), rel=1e-6)


def test_constant_bound_monotone_geometric():
    tracker = ConstantTracker(n=3, c_base=1.0)
    bounds = [constant_bound(N, tracker) for N in range(1, 7)]
    for a, b in zip(bounds, bounds[1:]):
        assert a.log10 < b.log10
        assert not (b.log10 < a.log10.mul(2.0))


@pytest.mark.parametrize("dim, C", [(3, 1.0), (3, 1e-6), (4, 5.0), (5, 1e3), (10, 1.0),
                                    (7, 100.0)])
def test_constant_bound_matches_the_plain_tower_loop(dim, C):
    # N inversions of L -> exp(p L), one TowerFloat step each, then the log10
    tracker = ConstantTracker(n=dim, c_base=C)
    checked = 0
    for N in range(1, 400):
        try:
            got = constant_bound(N, tracker).log10
        except ValueError:                 # outside the invertible branch
            continue
        L = TowerFloat.from_float(math.log(2.0) + N * math.log(C + 1.0))
        for _ in range(N):
            L = L.mul(4.0 / (dim - 2)).exp()
        ref = L.add_float(-math.log(2.0)).mul(1.0 / math.log(10.0))
        assert (got.depth, got.value) == (ref.depth, ref.value)
        checked += 1
    assert checked > 0


def test_constant_bound_branch_precondition():
    # large dimension shrinks the invertible range until the start violates it
    tracker = ConstantTracker(n=10, c_base=0.1)
    with pytest.raises(ValueError):
        constant_bound(1, tracker)


def test_tracker_invariants():
    assert 0 < TAU < 1
    with pytest.raises(ValueError):
        ConstantTracker(n=2)


def test_three_sphere_monomials_exact():
    assert abs(4.0 ** (1.0 - TAU) - 3.0) <= 1e-12
    for m in range(1, 7):
        u = (lambda mm: (lambda x, y: ((np.asarray(x) + 1j * np.asarray(y)) ** mm).real))(m)
        assert three_sphere_check(u, (0.0, 0.0), 1.0) == pytest.approx(1.0, abs=1e-12)


def test_three_sphere_constant_and_zero():
    const = lambda x, y: np.full(np.shape(x), 2.5)
    assert three_sphere_check(const, (0.0, 0.0), 0.7) == pytest.approx(1.0, abs=1e-14)
    zero = lambda x, y: np.zeros(np.shape(x))
    assert three_sphere_check(zero, (0.0, 0.0), 0.7) is None


def test_three_sphere_random_suite():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        u = random_harmonic_polynomial(rng, 6)
        ratio = three_sphere_check(u, (0.0, 0.0), 0.5)
        worst = max(worst, ratio)
    assert worst <= 1.5


def test_sensitivity_disk_column_is_unit_dtn(disk_mesh32):
    sens = sensitivity_jacobian(disk_mesh32, Admittivity([2.0 + 0.5j]))
    lam1 = dtn_matrix(disk_mesh32, Admittivity([1.0])).matrix
    rel = np.abs(sens.columns[0] - lam1).max() / np.abs(lam1).max()
    assert rel <= 1e-10


def test_sensitivity_matches_finite_differences():
    p = el.build_partition(3)
    m = el.generate_mesh(p, 1 / 16)
    a = Admittivity([1.0, 1.0 + 0.5j, 2.0])
    sens = sensitivity_jacobian(m, a)
    step = 1e-5
    for j in range(3):
        up = list(a.values)
        dn = list(a.values)
        up[j] += step
        dn[j] -= step
        fd = (dtn_matrix(m, Admittivity(up)).matrix
              - dtn_matrix(m, Admittivity(dn)).matrix) / (2 * step)
        rel = np.linalg.norm(sens.columns[j] - fd) / np.linalg.norm(fd)
        assert rel <= 1e-6


def _superlu_columns(mesh, adm, labels):
    """H^T K_l H for each region label l, with the lifting H = [I; -X] of
    one sparse LU of the interior block."""
    system = assemble(mesh, adm)
    A, ii, bb = system.matrix, system.interior, system.boundary
    H = np.zeros((mesh.n_nodes, len(bb)), dtype=complex)
    H[bb] = np.eye(len(bb))
    H[ii] = -splu(A[np.ix_(ii, ii)].tocsc()).solve(A[np.ix_(ii, bb)].toarray())
    return [H.T @ (region_stiffness(mesh)[lbl] @ H) for lbl in labels]


def _read_back(tmp_path, mesh):
    """The `write_mesh`/`read_mesh` round trip of `mesh`: the same nodes,
    triangles and region labels, and no partition, so SuperLU serves it."""
    path = tmp_path / "mesh.txt"
    el.write_mesh(mesh, path)
    return el.read_mesh(path)


@pytest.mark.parametrize("with_extension, h, read_back", [
    pytest.param(False, 1 / 64, False, id="False"),
    pytest.param(True, 1 / 64, False, id="True"),
    # read back: Lam and the columns come from the one SuperLU lifting
    pytest.param(False, 1 / 30, True, id="h-1/30"),
])
def test_sensitivity_columns_satisfy_euler_identity(tmp_path, with_extension, h, read_back):
    # Lam is homogeneous of degree 1 in all region values, so
    # sum_j gamma_j dLam/dgamma_j plus the term of the extension strip,
    # whose value is fixed at 1, gives back the Schur complement; on a strip
    # mesh both the columns and Lam come from sine modes
    m = el.generate_mesh(el.build_partition(3, with_extension=with_extension), h)
    if read_back:
        m = _read_back(tmp_path, m)
    a = Admittivity([1.2 + 0.3j, 1.9 - 0.5j, 0.8 + 0.1j])
    lam = dtn_matrix(m, a).matrix
    total = sum(g * c for g, c in zip(a.values, sensitivity_jacobian(m, a).columns))
    if with_extension:
        total = total + _superlu_columns(m, a, [0])[0]
    assert np.abs(total - lam).max() <= 1e-12 * np.abs(lam).max()


def test_strip_derivatives_match_superlu_oracle_without_factorizing(monkeypatch, strip_mesh):
    m, a = strip_mesh
    assert m.grid is not None
    factorizations = []
    factorize = forward.splu
    monkeypatch.setattr(forward, "splu",
                        lambda A: factorizations.append(A.shape) or factorize(A))
    cols = assemble(m, a).derivatives()
    assert factorizations == []
    ref = _superlu_columns(m, a, range(1, a.n + 1))
    assert len(cols) == len(ref)
    for c, r in zip(cols, ref):
        assert np.abs(c - r).max() <= 1e-12 * np.abs(r).max()


@pytest.mark.parametrize("with_extension", [False, True])
def test_strip_derivatives_read_the_green_functions_schur_kept(monkeypatch, with_extension):
    # schur forms every mode's Green function G_k = T_k^-1 in one sweep over
    # all its columns, and the derivative columns read it
    m = el.generate_mesh(el.build_partition(3, with_extension=with_extension), 1 / 32)
    a = Admittivity([1.2 + 0.3j, 1.9 - 0.5j, 0.8 + 0.1j])
    assert m.grid is not None
    alone = assemble(m, a).derivatives()
    all_columns = []
    green = forward._mode_green

    def counted(piv, ell, off):
        G = green(piv, ell, off)
        rows, modes = piv.shape
        all_columns.append(G.shape == (modes, rows, rows))
        return G
    monkeypatch.setattr(forward, "_mode_green", counted)
    system = assemble(m, a)
    system.schur()
    assert all_columns == [True]
    cols = system.derivatives()
    assert all_columns == [True]
    assert len(cols) == len(alone) == 3
    for c, ref in zip(cols, alone):
        assert np.array_equal(c, ref)


def test_boundary_gram_is_formed_once_per_mesh_and_read_only():
    m = el.generate_mesh(el.build_partition(2), 1 / 16)
    first = sensitivity_jacobian(m, Admittivity([1.2 + 0.3j, 1.9 - 0.5j]))
    second = sensitivity_jacobian(m, Admittivity([1.0, 2.0]))
    assert first.gram_half is second.gram_half and first.chol is second.chol
    for shared in (first.gram_half, first.chol):
        with pytest.raises(ValueError):
            shared[0, 0] = 0.0


def test_dtn_maps_share_the_gram_of_their_mesh_and_arc():
    m = el.generate_mesh(el.build_partition(2), 1 / 16)
    a1, a2 = Admittivity([1.0, 2.0]), Admittivity([1.5, 1.0 + 0.5j])
    full1, full2 = dtn_matrix(m, a1), dtn_matrix(m, a2)
    assert full1.gram_half() is full2.gram_half()
    assert sensitivity_jacobian(m, a1).gram_half is full1.gram_half()
    arc = np.arange(m.grid.shape[1])                  # the bottom edge
    loc1, loc2 = dtn_matrix(m, a1, arc=arc), dtn_matrix(m, a2, arc=arc)
    assert loc1.gram_half() is loc2.gram_half()
    assert np.array_equal(loc1.gram_half(), h_half_gram(loc1.mass, loc1.stiffness, 0.5))
    with pytest.raises(ValueError):
        loc1.gram_half()[0, 0] = 0.0


def test_each_build_solves_each_boundary_column_once(tmp_path, monkeypatch):
    # a read-back mesh takes SuperLU: the derivative columns reuse the
    # lifting that the Schur complement solved
    m = _read_back(tmp_path, el.generate_mesh(el.build_partition(3), 1 / 30))
    truth = Admittivity([1.2, 1.0 + 0.7j, 2.0 - 0.3j])
    target = dtn_matrix(m, truth).matrix
    factorize = FemSystem.lu.fget
    solved = []

    class Counted:
        def __init__(self, system):
            self.system = system
            self.lu = factorize(system)

        def solve(self, rhs):
            solved.append((self.system, rhs.shape[1]))
            return self.lu.solve(rhs)

    monkeypatch.setattr(FemSystem, "lu", property(Counted))
    sensitivity_jacobian(m, truth)
    assert [n for _, n in solved] == [len(m.boundary_nodes)] == [120]
    solved.clear()
    res = gauss_newton_reconstruct(target, m, Admittivity([1.0, 1.0, 1.0]), truth=truth)
    assert res.converged and res.iterations >= 2        # iterates that step
    assert [n for _, n in solved] == [120] * len(res.history)
    assert len({id(s) for s, _ in solved}) == len(res.history)


def test_sensitivity_jacobian_is_complex_with_one_column_per_strip():
    # gamma -> Lam is holomorphic, so the real form of the derivative lists
    # each singular value of the complex Jacobian exactly twice
    p = el.build_partition(3)
    m = el.generate_mesh(p, 1 / 16)
    sens = sensitivity_jacobian(m, Admittivity([1.0, 1.0 + 0.5j, 2.0]))
    J = sens.jacobian
    nb = len(m.boundary_nodes)
    assert np.iscomplexobj(J)
    assert J.shape == (nb * nb, 3)
    real_form = np.block([[J.real, -J.imag], [J.imag, J.real]])
    sv = np.linalg.svd(J, compute_uv=False)
    assert np.linalg.svd(real_form, compute_uv=False) == pytest.approx(
        np.repeat(sv, 2), abs=1e-12)
    assert (sens.sigma_min, sens.sigma_max) == pytest.approx((sv[-1], sv[0]), rel=1e-12)


def test_sensitivity_sigma_min_stable_under_refinement():
    p = el.build_partition(4)
    a = Admittivity([1.0, 1.0 + 0.5j, 2.0, 1.5])
    vals = []
    for h in [1 / 16, 1 / 32]:
        m = el.generate_mesh(p, h)
        sens = sensitivity_jacobian(m, a)
        assert sens.sigma_min > 0
        vals.append(sens.sigma_min)
    assert vals[1] == pytest.approx(vals[0], rel=0.10)


@pytest.mark.parametrize("gamma, hs", [
    ((1.2, 1.0 + 0.7j, 2.0 - 0.3j), (1 / 12, 1 / 24, 1 / 48)),
    ((1.0, 1.0 + 0.5j, 2.0, 1.5), (1 / 16, 1 / 32, 1 / 64)),
], ids=["3-strips", "4-strips"])
def test_sensitivity_sigma_min_converges_at_first_order(gamma, hs):
    # h halves on meshes whose node rows nest, so the observed order
    # log2((s2 - s1) / (s3 - s2)) estimates the discretization order of sigma_min
    a = Admittivity(gamma)
    p = el.build_partition(a.n)
    s1, s2, s3 = (sensitivity_jacobian(el.generate_mesh(p, h), a).sigma_min for h in hs)
    assert math.log2((s2 - s1) / (s3 - s2)) == pytest.approx(1.0, abs=0.15)


def test_reconstruction_fixed_point(monkeypatch):
    p = el.build_partition(3)
    m = el.generate_mesh(p, 1 / 16)
    truth = Admittivity([1.2, 1.0 + 0.7j, 2.0 - 0.3j])
    target = dtn_matrix(m, truth).matrix
    # an iterate that converges takes no step and forms no derivative columns
    column_builds = []
    derivatives = FemSystem.derivatives
    monkeypatch.setattr(FemSystem, "derivatives",
                        lambda system: column_builds.append(system) or derivatives(system))
    res = gauss_newton_reconstruct(target, m, truth, truth=truth)
    assert res.iterations == 0
    assert res.history[0][1] <= 1e-12
    assert res.converged
    assert column_builds == []


def test_reconstruction_noiseless():
    p = el.build_partition(3)
    m = el.generate_mesh(p, 1 / 16)
    truth = Admittivity([1.2, 1.0 + 0.7j, 2.0 - 0.3j])
    target = dtn_matrix(m, truth).matrix
    res = gauss_newton_reconstruct(target, m, Admittivity([1.0, 1.0, 1.0]),
                                   truth=truth)
    assert res.admittivity.max_jump(truth) <= 1e-6
    assert res.iterations <= 15


@pytest.mark.parametrize("bad", [math.inf, math.nan, complex(-math.inf, 1.0)],
                         ids=["inf", "nan", "complex-inf"])
def test_reconstruction_rejects_a_target_that_is_not_finite(bad):
    m = el.generate_mesh(el.build_partition(2), 1 / 16)
    target = dtn_matrix(m, Admittivity([1.0, 2.0])).matrix.copy()
    target[3, 4] = target[4, 3] = bad
    with pytest.raises(ValueError, match="target DtN map is not finite"):
        gauss_newton_reconstruct(target, m, Admittivity([1.0, 1.0]))


@pytest.mark.parametrize("lam", [1.0, 1.05, 2.0, 10.0])
def test_project_admissible_is_the_nearest_point(rng, lam):
    # the set is convex, so p is the nearest point to z exactly when
    # Re((z - p) conj(q - p)) <= 0 for every q in it, and the largest value
    # over q is taken on the boundary: the arc of |q| = lam with
    # Re q >= 1/lam and the chord Re q = 1/lam
    z = 1.5 * lam * (rng.standard_normal(2000) + 1j * rng.standard_normal(2000))
    p = _project_admissible(z, lam)
    assert np.all(np.abs(p) <= lam * (1 + 1e-15))
    assert np.all(p.real >= 1 / lam)
    inside = (z.real >= 1 / lam) & (np.abs(z) <= lam)
    assert p[inside].tobytes() == z[inside].tobytes()
    t = np.linspace(-1.0, 1.0, 401)
    q = np.concatenate([lam * np.exp(1j * np.arccos(lam ** -2) * t),
                        1 / lam + 1j * math.sqrt(lam ** 2 - lam ** -2) * t])
    gap = np.real((z - p)[:, None] * np.conj(q[None, :] - p[:, None]))
    assert gap.max() <= 1e-12


def test_reconstruction_projects_into_admissible_set():
    p = el.build_partition(2)
    m = el.generate_mesh(p, 1 / 16)
    truth = Admittivity([1.0, 2.0], lam=4.0)
    target = dtn_matrix(m, truth).matrix
    guess = Admittivity([0.3, 3.9], lam=4.0)
    res = gauss_newton_reconstruct(target, m, guess, truth=truth)
    for g in res.admittivity.values:
        assert g.real >= 1.0 / 4.0 - 1e-12
        assert abs(g) <= 4.0 + 1e-12
    assert res.admittivity.max_jump(truth) <= 1e-6


def test_noise_error_linear_with_worst_case_direction():
    p = el.build_partition(3)
    m = el.generate_mesh(p, 1 / 16)
    truth = Admittivity([1.2, 1.0 + 0.7j, 2.0 - 0.3j])
    target = dtn_matrix(m, truth).matrix
    sens = sensitivity_jacobian(m, truth)
    S = worst_case_perturbation(sens)
    guess = Admittivity([1.0, 1.0, 1.0])
    etas = np.array([1e-4, 1e-3, 1e-2])
    errs = []
    for eta in etas:
        r = gauss_newton_reconstruct(target + eta * S, m, guess,
                                     tol=1e-14, truth=truth)
        errs.append(r.admittivity.max_jump(truth))
    slope = np.polyfit(np.log(etas), np.log(errs), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.15)
    c_emp = float(np.exp(np.mean(np.log(errs) - np.log(etas))))
    assert 1 / 3 <= c_emp * sens.sigma_min <= 3.0


def test_random_noise_stays_below_worst_case(rng):
    p = el.build_partition(2)
    m = el.generate_mesh(p, 1 / 16)
    truth = Admittivity([1.0, 2.0 + 0.5j])
    target = dtn_matrix(m, truth).matrix
    sens = sensitivity_jacobian(m, truth)
    eta = 1e-3
    noisy = perturb_dtn(target, sens.gram_half, eta, rng)
    res = gauss_newton_reconstruct(noisy, m, Admittivity([1.0, 1.0]),
                                   tol=1e-14, truth=truth)
    assert res.admittivity.max_jump(truth) <= eta / sens.sigma_min


def test_sweep_identical_pair(strips2_mesh64):
    p, m = strips2_mesh64
    a = Admittivity([1.0, 2.0])
    rec = stability_sweep([(a, a)], m)[0]
    assert rec.E == 0.0
    assert rec.eps <= 1e-10


def test_sweep_disk_constants_ratio_stable():
    a1, a2 = Admittivity([1.0]), Admittivity([2.0])
    ratios = {}
    for h in [1 / 16, 1 / 32]:
        md = el.generate_disk_mesh(h)
        rec = stability_sweep([(a1, a2)], md)[0]
        assert rec.E == 1.0
        # discrete data gap dominates the coefficient gap from above
        assert rec.eps >= 0.9 * rec.E
        ratios[h] = rec.ratio
    assert ratios[1 / 16] == pytest.approx(ratios[1 / 32], rel=0.05)


def test_sweep_depth_monotone_with_local_data():
    p = el.build_partition(3)
    m = el.generate_mesh(p, 1 / 32)
    base = Admittivity([1.0, 1.0, 1.0])
    pairs = []
    for k in range(3):
        vals = [1.0, 1.0, 1.0]
        vals[k] = 1.25
        pairs.append((base, Admittivity(vals)))
    nx = int(np.sum(m.nodes[m.boundary_nodes, 1] == 0.0))
    recs = stability_sweep(pairs, m, arc=np.arange(nx))
    ratios = [r.ratio for r in recs]
    assert ratios[0] < ratios[1] < ratios[2]


def _count_dtn_matrix(monkeypatch):
    calls = []
    build = dtn.dtn_matrix
    monkeypatch.setattr(dtn, "dtn_matrix", lambda *args, **kwargs: (
        calls.append(args[1].values) or build(*args, **kwargs)))
    return calls


_SWEEP_BASE = Admittivity([1.2 + 0.3j, 1.9 - 0.5j, 0.8 + 0.1j])
_SWEEP_PAIRS = [(_SWEEP_BASE, Admittivity([1.2 + 0.3j, 1.9 - 0.5j, 1.1 + 0.4j])),
                (_SWEEP_BASE, Admittivity([1.2 + 0.3j, 1.5 - 0.2j, 0.8 + 0.1j])),
                (_SWEEP_BASE, Admittivity([1.6 + 0.3j, 1.9 - 0.5j, 0.8 + 0.1j]))]


@pytest.mark.parametrize("with_extension", [False, True], ids=["plain", "ext"])
@pytest.mark.parametrize("h", [1 / 32, 1 / 64, 1 / 128, 1 / 30], ids=["h32", "h64", "h128", "h30"])
def test_bottom_arc_sweep_eps_matches_the_dense_operator_norm(monkeypatch, h, with_extension):
    # the bottom row of a grid takes mode values and no dense map; its eps is
    # the operator norm of the dense maps' difference in their arc Gram.
    # Measured: <= 1.9e-11 relative (h = 1/128 with the extension strip)
    m = el.generate_mesh(el.build_partition(3, with_extension=with_extension), h)
    arc = np.arange(m.grid.shape[1])
    dense = {a.values: dtn_matrix(m, a, arc=arc) for pair in _SWEEP_PAIRS for a in pair}
    calls = _count_dtn_matrix(monkeypatch)
    recs = stability_sweep(_SWEEP_PAIRS, m, arc=arc)
    assert calls == []
    for (a1, a2), rec in zip(_SWEEP_PAIRS, recs):
        d1, d2 = dense[a1.values], dense[a2.values]
        assert rec.eps == pytest.approx(operator_norm(d1.matrix - d2.matrix, d1.gram_half()),
                                        rel=1e-10)


def test_sweep_takes_the_dense_map_off_the_bottom_row(monkeypatch):
    # the full loop, an arc that wraps past the first corner, the bottom row
    # shifted by one position and a mesh without a grid build dense maps
    m = el.generate_mesh(el.build_partition(3), 1 / 16)
    nx = m.grid.shape[1]
    disk = el.generate_disk_mesh(1 / 8)
    disk_pairs = [(Admittivity([1.0]), Admittivity([2.0 + 0.5j]))]
    calls = _count_dtn_matrix(monkeypatch)
    for mesh, pairs, arc in [(m, _SWEEP_PAIRS, None), (m, _SWEEP_PAIRS, np.arange(-3, nx)),
                             (m, _SWEEP_PAIRS, np.arange(1, nx + 1)),
                             (disk, disk_pairs, np.arange(8))]:
        calls.clear()
        stability_sweep(pairs, mesh, arc=arc)
        uniq = {a.values for pair in pairs for a in pair}
        assert len(calls) == len(uniq) and set(calls) == uniq
    calls.clear()
    stability_sweep(_SWEEP_PAIRS, m, arc=np.arange(nx))
    assert calls == []



def test_bottom_arc_sweep_forms_its_maps_in_one_stacked_pass(monkeypatch):
    # one bottom_modes call holds every unique admittivity, and the continued
    # fraction needs no Thomas sweep
    m = el.generate_mesh(el.build_partition(3, with_extension=True), 1 / 30)
    arc = np.arange(m.grid.shape[1])
    expected = stability_sweep(_SWEEP_PAIRS, m, arc=arc)

    def no_sweep(*args):
        raise AssertionError("the bottom arc's modes ran a Thomas sweep")
    monkeypatch.setattr(forward, "_mode_green", no_sweep)
    batches = []
    build = dtn.bottom_modes
    monkeypatch.setattr(dtn, "bottom_modes", lambda mesh, adms: (
        batches.append([a.values for a in adms]) or build(mesh, adms)))
    recs = stability_sweep(_SWEEP_PAIRS, m, arc=arc, threads=2)
    assert batches == [list({a.values: a for pair in _SWEEP_PAIRS for a in pair})]
    assert recs == expected

def test_sweep_threads_consistent():
    p = el.build_partition(2)
    m = el.generate_mesh(p, 1 / 16)
    pairs = [(Admittivity([1.0, 2.0]), Admittivity([1.0, 3.0])),
             (Admittivity([1.0, 2.0]), Admittivity([1.5, 2.0]))]
    seq = stability_sweep(pairs, m, threads=1)
    par = stability_sweep(pairs, m, threads=2)
    for a, b in zip(seq, par):
        assert a.eps == pytest.approx(b.eps, rel=1e-12)
