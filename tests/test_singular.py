import re
import warnings

import numpy as np
import pytest
from scipy.special import xlogy

import eitlab as el
from eitlab import singular
from eitlab.forward import Admittivity, FemSystem, SolverError, _p1_grads, region_stiffness
from eitlab.fundsol import TwoPhaseCoeffs, laplace_gamma
from eitlab.geometry import GeometryError, Rect
from eitlab.quadrature import (TRI7_W, _point_triangle_dist, _subdivide, triangle_areas,
                               tri7_points)
from eitlab.singular import (CorrectorSolver, MeshMismatchError, PlacementError,
                             alessandrini_pair, asymptotics_check, default_link,
                             green_correction, half_space_probe_integral,
                             half_space_probe_rate, probe_field_residual,
                             s_k_evaluate, s_k_on_grid)


@pytest.fixture(scope="module")
def strip_solver():
    p = el.build_partition(2)
    m = el.generate_mesh(p, 1 / 64)
    a = Admittivity([1.0, 2.0 + 1.0j])
    return p, m, CorrectorSolver(m, a)


def test_placement_errors(strip_solver):
    p, m, sv = strip_solver
    with pytest.raises(PlacementError):
        sv.correction(np.array([0.5, 0.5]))             # on the interface
    with pytest.raises(PlacementError):
        sv.correction(np.array([0.05, 0.3]))            # outside K
    node = m.nodes[m.n_nodes // 2]
    with pytest.raises(PlacementError):
        sv.correction(node)                             # on a mesh node
    with pytest.raises(PlacementError):
        sv.correction(np.array([0.51, 0.26]), link=1)   # no region below edge 1


@pytest.mark.parametrize("check", [True, False])
def test_source_off_the_meshed_domain_raises_placement_error(check):
    disk = CorrectorSolver(el.generate_disk_mesh(1 / 8), Admittivity([2.0]))
    strips = CorrectorSolver(el.generate_mesh(el.build_partition(2), 1 / 8),
                             Admittivity([1.0, 2.0 + 1.0j]))
    for sv, y in ((disk, (np.nan, 0.1)), (disk, (3.0, 0.2)),
                  (strips, (0.5, np.inf)), (strips, (0.5, 1.5))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PlacementError, match="not a point of the meshed domain"):
                sv.correction(np.array(y), check_placement=check)


def test_placement_messages_print_plain_numbers(strip_solver):
    _, _, sv = strip_solver
    with pytest.raises(PlacementError,
                       match=r"^source \(0\.05, 0\.3\) lies outside the probe set K$"):
        sv.correction(np.array([0.05, 0.3]))


def test_link_on_a_mesh_without_partition_raises_placement_error(load_meshes):
    # such a mesh takes the uniform kernel of region 1, which has no interface
    back = load_meshes[1 / 32][1]
    disk = el.generate_disk_mesh(1 / 8)
    for mesh, y in ((back, (0.49, 0.42)), (disk, (0.11, 0.07))):
        assert mesh.partition is None
        sv = CorrectorSolver(mesh, _LOAD_GAMMA if mesh is back else Admittivity([2.0]))
        for link in (1, 2):
            with pytest.raises(PlacementError, match="mesh has no partition"):
                sv.correction(np.array(y), link=link)
        assert np.all(np.isfinite(sv.correction(np.array(y)).w.values))


def test_corrector_residual_failure_raises_solver_error(monkeypatch):
    # a generated mesh solves through its sine modes: skew that solve
    m = el.generate_mesh(el.build_partition(2), 1 / 16)
    sv = CorrectorSolver(m, Admittivity([1.0, 2.0 + 1.0j]))
    solve = FemSystem._mode_solve
    monkeypatch.setattr(FemSystem, "_mode_solve", lambda system, rhs: 1.01 * solve(system, rhs))
    with pytest.raises(SolverError):
        sv.correction(np.array([0.51, 0.3]))


def test_superlu_corrector_residual_failure_raises_solver_error(monkeypatch, load_meshes):
    # a read-back mesh has no node grid and solves through SuperLU: skew that
    sv = CorrectorSolver(load_meshes[1 / 32][1], _LOAD_GAMMA)
    factorize = FemSystem.lu.fget

    class Skewed:
        def __init__(self, system):
            self.lu = factorize(system)

        def solve(self, rhs):
            return 1.01 * self.lu.solve(rhs)

    monkeypatch.setattr(FemSystem, "lu", property(Skewed))
    with pytest.raises(SolverError):
        sv.correction(np.array([0.49, 0.42]))


def test_default_link(strip_solver):
    p, m, sv = strip_solver
    assert default_link(p, (0.5, 0.4)) == 2
    assert default_link(p, (0.5, 0.9)) == 2


def test_disk_image_oracle():
    # constant coefficient on the unit disk: mirror-source Green function
    a = Admittivity([2.0])
    y = np.array([0.3, 0.2])
    ystar = y / (y @ y)
    pts = np.array([[0.1, -0.4], [-0.5, 0.1], [0.0, 0.6], [0.45, 0.45]])

    def exact(points):
        direct = laplace_gamma(points, y, n=2)
        mirror = -np.log(np.linalg.norm(y) *
                         np.linalg.norm(points - ystar[None, :], axis=1)) / (2 * np.pi)
        return (direct - mirror) / 2.0

    errs = []
    for h in [1 / 16, 1 / 32]:
        md = el.generate_disk_mesh(h)
        g = green_correction(md, a, y)
        errs.append(np.abs(g.evaluate(pts) - exact(pts)).max())
    assert errs[1] <= 5e-6
    assert errs[0] / errs[1] >= 1.7


def test_weak_point_mass_property():
    # sum gamma grad G . grad phi == phi(y) for a plateau bump around y
    p = el.build_partition(3)
    m = el.generate_mesh(p, 1 / 48)
    a = Admittivity([2.0, 1.0, 3.0])
    y = np.array([0.52, 1 / 3 - 0.06])
    g = CorrectorSolver(m, a).correction(y, link=2)
    R = 0.2

    def grad_phi(pts):
        d = pts - y[None, :]
        t = np.linalg.norm(d, axis=1) / R
        s = np.clip((t - 0.4) / 0.5, 0.0, 1.0)
        deta = -(6 * s - 6 * s ** 2) / 0.5
        out = np.zeros_like(d)
        nz = t > 1e-12
        out[nz] = (deta[nz] / (t[nz] * R * R))[:, None] * d[nz]
        return out

    qp = tri7_points(m.tri_points()).reshape(-1, 2)
    gph = grad_phi(qp).reshape(-1, 7, 2)
    gG = g.kernel_grad(qp).reshape(-1, 7, 2) + g.w.gradients()[:, None, :]
    dots = (gG * gph).sum(axis=2)
    Q = np.sum(a.element_values(m) * m.areas() * (dots @ TRI7_W))
    assert abs(Q - 1.0) <= 0.01


def test_symmetry_in_probe_set():
    p = el.build_partition(2, with_extension=True)
    m = el.generate_mesh(p, 1 / 64)
    a = Admittivity([1.0, 2.0 + 1.0j])
    sv = CorrectorSolver(m, a)
    pairs = [(np.array([0.47, 0.23]), np.array([0.55, 0.71])),
             (np.array([0.52, -0.22]), np.array([0.44, 0.62])),
             (np.array([0.39, 0.81]), np.array([0.61, 0.18]))]
    for x, y in pairs:
        gx = sv.correction(x)
        gy = sv.correction(y)
        assert abs(gy.evaluate(x[None, :])[0] - gx.evaluate(y[None, :])[0]) <= 1e-3


def test_energy_outside_ball_log_growth():
    # H1 norm outside B_r grows no faster than sqrt(|log r|)
    p = el.build_partition(2)
    m = el.generate_mesh(p, 1 / 32)
    a = Admittivity([1.0, 2.0 + 1.0j])
    g = CorrectorSolver(m, a).correction(np.array([0.515, 0.26]), link=2)
    qs = []
    for j in range(2, 7):
        r = p.r0 * 2.0 ** (-j)
        e = g.h1_energy_excluding_ball(r, depth=5)
        qs.append(e / np.sqrt(1.0 + abs(np.log(r))))
    qs = np.array(qs)
    assert qs.max() / qs.min() <= 2.0
    # normalized sequence flattens: late growth well below dyadic rate
    assert qs[-1] / qs[-2] <= 1.08


def test_corrector_energy_bounded_near_interface():
    p = el.build_partition(2)
    m = el.generate_mesh(p, 1 / 64)
    a = Admittivity([1.0, 2.0 + 1.0j])
    sv = CorrectorSolver(m, a)
    parts = region_stiffness(m)
    K1 = sum(parts[lbl] for lbl in parts)
    P = np.array([0.5 + 0.31 / 64, 0.5])
    h1 = []
    for j in range(2, 7):
        g = sv.correction(P - [0.0, p.r0 * 2.0 ** (-j)], link=2)
        w = g.w.values
        h1.append(np.sqrt(abs(np.conj(w) @ (K1 @ w))))
    assert max(h1) <= 2.5 * min(h1)
    assert max(h1) < 1.0


def test_asymptotics_bounded_complex_pair(strip_solver):
    p, m, sv = strip_solver
    radii = [p.r0 * 2.0 ** (-j) for j in range(2, 7)]
    rows, slope, verdict = asymptotics_check(sv, 2, radii)
    assert len(rows) == 5
    assert slope >= -0.1
    assert verdict == "bounded"
    # gradient deviations stay bounded as well
    gd = [r.grad_deviation for r in rows]
    assert max(gd) == gd[0]


def test_asymptotics_radius_range_error(strip_solver):
    p, m, sv = strip_solver
    with pytest.raises(GeometryError):
        asymptotics_check(sv, 2, [p.r0 * 0.6])


def test_asymptotics_equal_pair_kernel_deviation_zero():
    # with equal neighbours the kernel part matches the limit profile exactly
    c = TwoPhaseCoeffs(1.5 + 0.5j, 1.5 + 0.5j)
    x = np.array([0.2, 0.11])
    y = np.array([0.2, -0.13])
    from eitlab.fundsol import two_phase_gamma
    dev = two_phase_gamma(x, y, c, n=2) - c.cross_coefficient * laplace_gamma(x, y, n=2)
    assert abs(dev) <= 1e-16


def test_free_space_cross_branch_deviation_exactly_zero():
    c = TwoPhaseCoeffs(2.0 + 1.0j, 1.0)
    x = np.array([0.05, 0.21])
    y = np.array([0.0, -0.17])
    from eitlab.fundsol import two_phase_gamma
    dev = two_phase_gamma(x, y, c, n=2) - c.cross_coefficient * laplace_gamma(x, y, n=2)
    assert dev == 0.0


def test_s_k_zero_for_equal_admittivities(strip_solver):
    p, m, sv = strip_solver
    g1 = sv.correction(np.array([0.5, 0.21]), link=2)
    g2 = sv.correction(np.array([0.55, 0.18]), link=2)
    assert s_k_evaluate(g1, g2, 1) == 0j


def test_s_k_guards(strip_solver):
    p, m, sv = strip_solver
    other = el.generate_mesh(p, 1 / 32)
    sv2 = CorrectorSolver(other, Admittivity([1.0, 3.0]))
    g1 = sv.correction(np.array([0.5, 0.21]), link=2)
    g2 = sv2.correction(np.array([0.5, 0.22]), link=2)
    with pytest.raises(MeshMismatchError):
        s_k_evaluate(g1, g2, 1)
    # probe point inside the unexplored region
    sv_b = CorrectorSolver(m, Admittivity([1.0, 3.0]))
    g_hi = sv.correction(np.array([0.5, 0.8]), link=2)
    g_lo = sv_b.correction(np.array([0.5, 0.2]), link=2)
    with pytest.raises(PlacementError):
        s_k_evaluate(g_hi, g_lo, 1)


@pytest.mark.parametrize("values_2", [[1.0, 2.0 + 1.0j, 3.0], [1.0, 3.0, 1.5]],
                         ids=["differ-above-k", "equal-above-k"])     # equal: S_2 = 0
def test_s_k_on_grid_checks_every_moving_source(values_2):
    m = el.generate_mesh(el.build_partition(3, with_extension=True), 1 / 16)
    sv1 = CorrectorSolver(m, Admittivity([1.0, 2.0 + 1.0j, 1.5]))
    sv2 = CorrectorSolver(m, Admittivity(values_2))
    z = np.array([0.48, -0.23])
    good = s_k_on_grid(sv1, sv2, 2, z, [(0.42, 0.3)], link2=1)
    assert (good[0] == 0) == (values_2[2] == 1.5)
    for bad, match in (((0.5, 0.8), "inside the unexplored region"),
                       ((0.5, np.nan), "not a point of the meshed domain")):
        with pytest.raises(PlacementError, match=match):
            s_k_on_grid(sv1, sv2, 2, z, [(0.42, 0.3), bad], link2=1)


@pytest.mark.parametrize("points", [[0.42, 0.3], [[0.42, 0.3, 0.0]], np.zeros((2, 1)), 0.42],
                         ids=["flat-pair", "three-columns", "one-column", "scalar"])
def test_s_k_on_grid_takes_an_n_by_2_array(points):
    m = el.generate_mesh(el.build_partition(3, with_extension=True), 1 / 16)
    sv1 = CorrectorSolver(m, Admittivity([1.0, 2.0 + 1.0j, 1.5]))
    sv2 = CorrectorSolver(m, Admittivity([1.0, 2.0 + 1.0j, 3.0]))
    with pytest.raises(ValueError, match=r"probe points must be an \(n, 2\) array"):
        s_k_on_grid(sv1, sv2, 2, np.array([0.48, -0.23]), points, link2=1)


@pytest.mark.parametrize("k", [2.0, True, False, "2", None], ids=repr)
def test_probe_depth_must_be_an_integer(k):
    m = el.generate_mesh(el.build_partition(3, with_extension=True), 1 / 16)
    sv1 = CorrectorSolver(m, Admittivity([1.0, 2.0 + 1.0j, 1.5]))
    sv2 = CorrectorSolver(m, Admittivity([1.0, 2.0 + 1.0j, 3.0]))
    z, y = np.array([0.48, -0.23]), np.array([0.42, 0.3])
    match = f"chain depth k must be an integer, got {k!r}"
    with pytest.raises(ValueError, match=re.escape(match)):
        s_k_on_grid(sv1, sv2, k, z, [y], link2=1)
    with pytest.raises(ValueError, match=re.escape(match)):
        s_k_evaluate(sv1.correction(y), sv2.correction(z, link=1), k)
    # a numpy integer is an integer
    assert s_k_on_grid(sv1, sv2, np.int64(2), z, [y], link2=1)[0] != 0


def test_s_diagonal_log_growth_and_monotonicity():
    # |S_1(y_r, y_r)| increases as the probe approaches the interface and
    # grows at log rate: dyadic increments stay essentially constant
    p = el.build_partition(2)
    m = el.generate_mesh(p, 1 / 64)
    a1, a2 = Admittivity([1.0, 2.0]), Admittivity([1.0, 3.0])
    sv1, sv2 = CorrectorSolver(m, a1), CorrectorSolver(m, a2)
    vals = []
    for j in range(2, 7):
        r = p.r0 * 2.0 ** (-j)
        yr = np.array([0.5 + 0.31 / 64, 0.5 - r])
        g1 = sv1.correction(yr, link=2)
        g2 = sv2.correction(yr, link=2)
        vals.append(abs(s_k_evaluate(g1, g2, 1)))
    assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))
    incs = np.diff(vals)
    assert incs.max() / incs.min() <= 1.15


def test_probe_field_weak_residual_decreases():
    p = el.build_partition(3, with_extension=True)
    m = el.generate_mesh(p, 1 / 32)
    a1 = Admittivity([1.0, 2.0 + 1.0j, 1.5])
    a2 = Admittivity([1.0, 2.0 + 1.0j, 3.0])
    sv1, sv2 = CorrectorSolver(m, a1), CorrectorSolver(m, a2)
    z = np.array([0.48, -0.23])
    box = Rect(0.40, 1 / 3 - 0.12, 0.60, 1 / 3 + 0.12)
    res_coarse, _, _ = probe_field_residual(sv1, sv2, 2, z, box, 0.06, link2=1)
    res_fine, _, _ = probe_field_residual(sv1, sv2, 2, z, box, 0.03, link2=1)
    assert res_fine <= res_coarse / 2.0


@pytest.mark.parametrize("h", [1 / 16, 1 / 24, 1 / 64], ids=["h16", "h24", "h64"])
def test_s_k_on_grid_pays_for_the_fixed_source_once(monkeypatch, h):
    p = el.build_partition(3, with_extension=True)
    m = el.generate_mesh(p, h)
    sv1 = CorrectorSolver(m, Admittivity([1.0, 2.0 + 1.0j, 1.5]))
    sv2 = CorrectorSolver(m, Admittivity([1.0, 2.0 + 1.0j, 3.0]))
    z = np.array([0.48, -0.23])                 # below interface 1, at y = 0
    points = np.array([[x, y] for x in (0.42, 0.5, 0.57)
                       for y in (1 / 3 - 0.1, 1 / 3, 1 / 3 + 0.05)])

    sources, solves = [], []
    kernel_grad, solve = singular.two_phase_gamma_grad, FemSystem.solve

    def counted(x, y, c, n=2):
        sources.append((tuple(y), len(x)))
        return kernel_grad(x, y, c, n)

    def counted_solve(system, trace, load=None):
        solves.append(system)
        return solve(system, trace, load)

    monkeypatch.setattr(singular, "two_phase_gamma_grad", counted)
    monkeypatch.setattr(FemSystem, "solve", counted_solve)
    got = s_k_on_grid(sv1, sv2, 2, z, points, link2=1)
    z_calls = [n for y, n in sources if y == tuple(z)]
    # one load for the corrector, then one probe weight for the whole grid:
    # 4 Gauss points on each half-edge of strip 3 where diff 1_A jumps, which
    # are interface 3 and the outer boundary of strip 3
    assert z_calls[1:] == [4 * (len(m.interface_edges[3]) + _boundary_edges_above(m, 2 / 3))]
    # z's load: 4 Gauss points on each edge where gtilde jumps, which are the
    # edges of interfaces 2 and 3 (strips 0 and 1 both carry gtilde = 0)
    assert z_calls[0] == 4 * sum(len(m.interface_edges[i]) for i in (2, 3))
    # z's corrector and the adjoint field; the moving sources solve nothing
    assert solves == [sv2.system, sv1.system]

    gz = sv2.correction(z, link=1)
    want = np.array([s_k_evaluate(sv1.correction(y, check_placement=False), gz, 2)
                     for y in points])
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.all(got != 0)


def _boundary_edges_above(mesh, y):
    return int(np.count_nonzero(mesh.nodes[mesh.boundary_edges][:, :, 1].min(axis=1) >= y))


def _s_k_full_gradients(g1, g2, k, pieces=None):
    """S_k from both full gradients grad G = grad Gamma + grad w with the
    TRI7 rule on the triangles above depth k where the admittivities
    differ, or on `pieces(points, parents)` of them."""
    mesh = g1.mesh
    diff = g1.adm.element_values(mesh) - g2.adm.element_values(mesh)
    sel = np.isin(mesh.tri_region, list(mesh.partition.u_labels(k))) & (np.abs(diff) > 0)
    pts, par = mesh.tri_points()[sel], np.flatnonzero(sel)
    if pieces is not None:
        pts, par = pieces(pts, par)
    qp = tri7_points(pts).reshape(-1, 2)
    _, p1 = _p1_grads(mesh)
    grads = [g.kernel_grad(qp).reshape(-1, 7, 2)
             + np.einsum("ti,tid->td", g.w.values[mesh.triangles[par]], p1[par])[:, None]
             for g in (g1, g2)]
    dots = (grads[0] * grads[1]).sum(axis=2)
    return complex(np.sum(diff[par] * triangle_areas(pts) * (dots @ TRI7_W)))


def _quadrisected_twice(pts, par):
    return _subdivide(*_subdivide(pts, par))


@pytest.mark.parametrize("h", [1 / 32, 1 / 64])
def test_s_k_matches_the_full_gradient_formula(h):
    p = el.build_partition(3, with_extension=True)
    m = el.generate_mesh(p, h)
    sv1 = CorrectorSolver(m, Admittivity([1.2 + 0.3j, 1.9 - 0.5j, 0.8 + 0.1j]))
    sv2 = CorrectorSolver(m, Admittivity([1.2 + 0.3j, 1.4 - 0.2j, 1.6 + 0.4j]))
    gz = sv2.correction(np.array([0.48, -0.23]), link=1)
    z_kernel, z_points = gz.kernel_grad, []
    gz.kernel_grad = lambda pts: z_points.append(len(pts)) or z_kernel(pts)

    got, moving = [], []
    for k in (1, 2):
        # above, below and on interface k, the bottom of the region above depth k
        iface = p.interface_by_index(k).y
        for dy in (0.02, -0.02, 0.0):
            gy = sv1.correction(np.array([0.503, iface + dy]), check_placement=False)
            got.append(s_k_evaluate(gy, gz, k))
            # the moving source forms no mesh-wide gradient and keeps nothing
            assert gy.w._grads is None and gy._probe == {}
            moving.append((gy, k))
        # gz's kernel once per depth, 4 points on each half-edge where
        # diff 1_A jumps: every interface above k and the boundary of A
        bottom = p.interface_by_index(k + 1).y
        half_edges = (sum(len(m.interface_edges[i]) for i in range(k + 1, 4))
                      + _boundary_edges_above(m, bottom))
        assert z_points[-1] == 4 * half_edges
    assert len(z_points) == 2
    # the oracle: TRI7 on every triangle quadrisected twice
    want = [_s_k_full_gradients(gy, gz, k, _quadrisected_twice) for gy, k in moving]
    assert np.abs(np.subtract(got, want)).max() <= 1e-13 * np.abs(want).min()


def _graded_pieces(y, size):
    """Quadrisect the pieces more than a quarter of their distance from y
    across, down to pieces `size` across."""
    def pieces(pts, par):
        done_pts, done_par = [], []
        while len(pts):
            diam = np.linalg.norm(pts - np.roll(pts, 1, axis=1), axis=2).max(axis=1)
            split = (diam > size) & (diam > _point_triangle_dist(pts, y) / 4)
            done_pts.append(pts[~split])
            done_par.append(par[~split])
            pts, par = _subdivide(pts[split], par[split])
        return np.concatenate(done_pts), np.concatenate(done_par)
    return pieces


def test_s_k_near_the_unexplored_region_beats_tri7():
    # the demos/06 geometry: the moving source d below the region above
    # depth 1, where the edge rule grades its panels toward the source
    p = el.build_partition(2)
    h = 1 / 64
    m = el.generate_mesh(p, h)
    sv1 = CorrectorSolver(m, Admittivity([1.0, 2.0]))
    sv2 = CorrectorSolver(m, Admittivity([1.0, 3.0]))
    x = 0.5 + 0.31 * h
    gz = sv2.correction(np.array([x, 0.1]))
    for d in (h / 2, h / 16, 1e-4, 1e-5, 1e-8):
        gy = sv1.correction(np.array([x, 0.5 - d]), link=2)
        want = _s_k_full_gradients(gy, gz, 1, _graded_pieces(gy.y, d / 6))
        tri7 = abs(_s_k_full_gradients(gy, gz, 1) - want)
        assert abs(s_k_evaluate(gy, gz, 1) - want) <= tri7 / 100


def test_alessandrini_trivial_pair(strips3_mesh64):
    p, m = strips3_mesh64
    a = Admittivity([1.0, 2.0, 1.5])
    lhs, rhs = alessandrini_pair(a, a, lambda x, y: x, lambda x, y: y, m)
    assert abs(lhs) == 0.0
    assert abs(rhs) <= 1e-12


def test_alessandrini_linear_traces(strips2_mesh64):
    # gamma piecewise in y, datum x: u = x solves both problems exactly, so
    # lhs = -(area of the strip where the coefficients differ) = -1/2
    p, m = strips2_mesh64
    a1, a2 = Admittivity([1.0, 2.0]), Admittivity([1.0, 3.0])
    lhs, rhs = alessandrini_pair(a1, a2, lambda x, y: x, lambda x, y: x, m)
    assert lhs == pytest.approx(-0.5, rel=1e-12)
    assert abs(lhs - rhs) / abs(lhs) <= 1e-10


def test_alessandrini_swap_symmetry(strips2_mesh64, rng):
    p, m = strips2_mesh64
    a1, a2 = Admittivity([1.0, 2.0 + 0.5j]), Admittivity([1.2, 3.0])
    nb = len(m.boundary_nodes)
    f1 = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
    f2 = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
    lhs_a, rhs_a = alessandrini_pair(a1, a2, f1, f2, m)
    lhs_b, rhs_b = alessandrini_pair(a1, a2, f2, f1, m)
    assert lhs_a == pytest.approx(lhs_b, rel=1e-10)
    assert rhs_a == pytest.approx(rhs_b, rel=1e-10)


def test_half_space_probe_matches_closed_form():
    # independent oracle: the axisymmetric integral in closed form
    c1 = TwoPhaseCoeffs(2.0 + 0.5j, 1.0)
    c2 = TwoPhaseCoeffs(1.5, 1.0)
    jump = (2.0 + 0.5j) - 1.5
    rho0, r = 0.25, 0.02

    def closed_form():
        base = (1.0 / r - 1.0 / (r + rho0)
                - np.log((r + rho0) ** 2 / (r ** 2 + rho0 ** 2)) / (2 * r))
        return jump * c1.cross_coefficient * c2.cross_coefficient * base / (16 * np.pi)

    got = half_space_probe_integral(c1, c2, jump, r, rho0)
    want = closed_form()
    assert abs(got - want) / abs(want) <= 1e-6


def _probe_closed_form_base(r, rho0):
    """1/r - 1/(r + rho0) - log((r + rho0)^2 / (r^2 + rho0^2)) / (2 r).

    Far from the interface the float form cancels, so r * base is summed as
    its power series in x = rho0 / r, whose x and x^2 terms vanish:
    sum over n >= 3 of (-1)^(n+1) (1 - 1/n) x^n, plus (-1)^(n/2+1) x^n / n
    for even n, that is (2/3) x^3 - x^4 + ...
    """
    if r <= 4 * rho0:
        return (1.0 / r - 1.0 / (r + rho0)
                - np.log1p(2 * r * rho0 / (r ** 2 + rho0 ** 2)) / (2 * r))
    x = rho0 / r
    total = 0.0
    for n in range(40, 2, -1):
        term = (-1) ** (n + 1) * (1 - 1 / n)
        if n % 2 == 0:
            term += (-1) ** (n // 2 + 1) / n
        total += term * x ** n
    return total / r


@pytest.mark.parametrize("ratio_log2", [-30, -7, 0, 1, 5, 10])
def test_half_space_probe_matches_closed_form_across_depths(ratio_log2):
    c1 = TwoPhaseCoeffs(2.0 + 0.5j, 1.0)
    c2 = TwoPhaseCoeffs(1.5, 1.0)
    jump = (2.0 + 0.5j) - 1.5
    rho0 = 0.25
    r = rho0 * 2.0 ** ratio_log2
    want = (jump * c1.cross_coefficient * c2.cross_coefficient
            * _probe_closed_form_base(r, rho0) / (16 * np.pi))
    got = half_space_probe_integral(c1, c2, jump, r, rho0)
    assert abs(got - want) / abs(want) <= 1e-12


def test_half_space_probe_rate_slope():
    c1 = TwoPhaseCoeffs(2.0 + 0.5j, 1.0)
    c2 = TwoPhaseCoeffs(1.5, 1.0)
    rho0 = 0.25
    radii = [rho0 * 2.0 ** (-j) for j in range(3, 8)]
    _, vals, slope = half_space_probe_rate(c1, c2, (2.0 + 0.5j) - 1.5, radii, rho0)
    assert slope == pytest.approx(-1.0, abs=0.1)
    assert np.all(np.abs(vals) > 0)


# --- corrector load against independent area-integral oracles -----------------

_LOAD_GAMMA = Admittivity([1.2 + 0.3j, 1.9 - 0.5j, 0.8 + 0.1j])
_LOAD_SOURCES = {
    "below-interface-2-link-2": ((0.51, 1 / 3 - 0.02), 2, True),
    "strip-2-default-link": ((0.49, 0.42), None, True),
    "extension-link-1": ((0.47, -0.25), 1, True),
    "on-interface-2": ((0.503, 1 / 3), None, False),
    "node-on-interface-2": ((0.5, 1 / 3), None, False),
}


def _cross(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _tri7_load(g, gtilde):
    """The area load -sum_T gtilde_T int_T grad Gamma_l . grad phi_i with the
    seven-point rule on every triangle where gtilde != 0."""
    mesh = g.mesh
    area, grads = _p1_grads(mesh)
    act = gtilde != 0
    qp = tri7_points(mesh.tri_points()[act])
    gk = g.kernel_grad(qp.reshape(-1, 2)).reshape(-1, 7, 2)
    scaled = (gtilde[act] * area[act])[:, None] * (TRI7_W @ gk)
    b = np.zeros(mesh.n_nodes, dtype=complex)
    np.add.at(b, mesh.triangles[act], -np.einsum("md,mid->mi", scaled, grads[act]))
    return b


def _uniform_kernel_load(g, gtilde):
    """The same load for the uniform kernel Gamma = -log|x - y| / (2 pi gamma),
    exact: int_T grad Gamma = sum over the edges of T of n_e int_e Gamma ds,
    and int_e log|x - y| ds has a closed form, also with y on the edge."""
    mesh, y = g.mesh, g.y
    assert g.coeffs.gamma_plus == g.coeffs.gamma_minus
    pts = mesh.tri_points()
    a, d = pts, np.roll(pts, -1, axis=1) - pts         # counterclockwise edges
    length = np.hypot(d[..., 0], d[..., 1])
    tau = d / length[..., None]
    s0 = ((y - a) * tau).sum(-1)
    dist = np.abs(_cross(tau, y - a))

    def antiderivative(u):                              # of log sqrt(u^2 + dist^2)
        return 0.5 * xlogy(u, u * u + dist * dist) - u + dist * np.arctan2(u, dist)

    int_log = antiderivative(length - s0) - antiderivative(-s0)
    normal = np.stack([d[..., 1], -d[..., 0]], axis=-1) / length[..., None]
    mean = -(normal * int_log[..., None]).sum(axis=1) / (2 * np.pi * g.coeffs.gamma_plus)
    _, grads = _p1_grads(mesh)
    b = np.zeros(mesh.n_nodes, dtype=complex)
    np.add.at(b, mesh.triangles, -gtilde[:, None] * np.einsum("md,mid->mi", mean, grads))
    return b


def _corrector_against(sv, oracle, y, link, check):
    """Relative max-norm difference between the corrector w and the w solved
    from the oracle's load, plus the load the corrector was solved with."""
    loads = []

    def spy(trace, load=None):
        loads.append(load)
        return FemSystem.solve(sv.system, trace, load)

    sv.system.solve = spy
    g = sv.correction(np.array(y), link=link, check_placement=check)
    del sv.system.solve
    cen = sv.mesh.centroids()
    approx = np.where(cen[:, 1] > g.iface_y, g.coeffs.gamma_plus, g.coeffs.gamma_minus)
    gtilde = sv.adm.element_values(sv.mesh) - approx
    trace = -g.kernel(sv.mesh.nodes[sv.mesh.boundary_nodes])
    w = sv.system.solve(trace, load=oracle(g, gtilde)).values
    return np.abs(g.w.values - w).max() / np.abs(w).max(), loads[0]


@pytest.fixture(scope="module")
def load_meshes(tmp_path_factory):
    """h -> (generated mesh, its write_mesh/read_mesh round trip)."""
    p = el.build_partition(3, with_extension=True)
    out = {}
    for h in (1 / 32, 1 / 64):
        m = el.generate_mesh(p, h)
        path = tmp_path_factory.mktemp("mesh") / "m.txt"
        el.write_mesh(m, path)
        out[h] = m, el.read_mesh(path)
    return out


def _jump_edge_nodes(mesh):
    edges, _, outer = singular._jump_edges(mesh)
    return np.unique(edges[outer >= 0])


@pytest.mark.parametrize("case", list(_LOAD_SOURCES), ids=list(_LOAD_SOURCES))
def test_corrector_load_matches_tri7_area_load(load_meshes, case):
    # the two-phase kernel on a generated mesh: the seven-point area rule's
    # own error shrinks with h, and so does the difference
    y, link, check = _LOAD_SOURCES[case]
    diffs = []
    for h, bound in ((1 / 32, 1e-9), (1 / 64, 1e-10)):
        m = load_meshes[h][0]
        sv = CorrectorSolver(m, _LOAD_GAMMA)
        diff, load = _corrector_against(sv, _tri7_load, y, link, check)
        assert diff <= bound
        diffs.append(diff)
        assert set(np.flatnonzero(load)) <= set(_jump_edge_nodes(m))
    assert diffs[1] < diffs[0]


@pytest.mark.parametrize("case", list(_LOAD_SOURCES), ids=list(_LOAD_SOURCES))
def test_corrector_load_on_a_read_back_mesh_matches_exact_area_load(load_meshes, case):
    # a read-back mesh has no partition: the uniform kernel of region 1, so
    # gtilde != 0 next to, and for four of the sources at, the source.  The
    # seven-point rule cannot integrate the singular triangle there; the
    # closed-form oracle can.  The line integrals pay for near edges with
    # more panels and add the point mass where the source meets gtilde != 0.
    y, link, check = _LOAD_SOURCES[case]
    for h, bound in ((1 / 32, 1e-9), (1 / 64, 1e-10)):
        m = load_meshes[h][1]
        assert m.partition is None
        diff, _ = _corrector_against(CorrectorSolver(m, _LOAD_GAMMA),
                                     _uniform_kernel_load, y, None, check)
        assert diff <= bound


def test_corrector_load_forms_each_link_terms_once(load_meshes):
    # gtilde and its jumps depend on the link alone: a solver that has served
    # other sources gives each source the load a fresh solver gives it
    for mesh in load_meshes[1 / 32]:
        served = CorrectorSolver(mesh, _LOAD_GAMMA)
        loads = [served._load(np.array(y), None if mesh.partition is None else link, check)
                 for y, link, check in _LOAD_SOURCES.values()]
        for (y, link, check), (_, trace, load) in zip(_LOAD_SOURCES.values(), loads):
            _, fresh_trace, fresh_load = CorrectorSolver(mesh, _LOAD_GAMMA)._load(
                np.array(y), None if mesh.partition is None else link, check)
            assert np.array_equal(trace, fresh_trace) and np.array_equal(load, fresh_load)
        links = {(sol.iface_y, sol.coeffs) for sol, _, _ in loads}
        assert set(served._links) == links
        assert len(links) == (1 if mesh.partition is None else 2)


def test_jump_edges_are_the_interface_edges(load_meshes):
    def pairs(e):
        return set(map(tuple, np.sort(e, axis=1).tolist()))

    for m, back in load_meshes.values():
        want = pairs(np.concatenate(list(m.interface_edges.values())))
        for mesh in (m, back):
            edges, inner, outer = singular._jump_edges(mesh)
            assert mesh._cache["jump_edges"][0] is edges
            # region jumps first, then the outer boundary
            between = outer >= 0
            assert np.all(between[:between.sum()])
            assert pairs(edges[between]) == want
            assert np.all(mesh.tri_region[inner[between]] != mesh.tri_region[outer[between]])
            assert np.all(outer[~between] == -1)
            assert pairs(edges[~between]) == pairs(mesh.boundary_edges)
            # each edge runs counterclockwise around its inner triangle
            third = mesh.triangles[inner].sum(axis=1) - edges.sum(axis=1)
            a, b, c = (mesh.nodes[i] for i in (edges[:, 0], edges[:, 1], third))
            assert np.all(_cross(b - a, c - a) > 0)
    # without an extension strip interface 1 is the outer boundary, no jump
    m = el.generate_mesh(el.build_partition(3), 1 / 16)
    want = pairs(np.concatenate([m.interface_edges[i] for i in (2, 3)]))
    edges, _, outer = singular._jump_edges(m)
    assert pairs(edges[outer >= 0]) == want
