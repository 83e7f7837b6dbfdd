import numpy as np
import pytest

import eitlab as el
from eitlab import forward
from eitlab.forward import (Admittivity, EllipticityError, _combine, _grid_apply,
                            _grid_couplings, _loop_block, _sine_modes, assemble,
                            bottom_modes, caccioppoli_ratio, coefficient_tensor,
                            elasticity_quadratic_form, field_from_function,
                            region_stiffness, solve_dirichlet, solve_real_system)
from eitlab.geometry import GeometryError, Mesh, _write_csv
from eitlab.stability import random_harmonic_polynomial, stability_sweep


def layered_profile(values, thicknesses):
    """1D layered-medium oracle: piecewise-linear potential, slope 1/gamma_j.

    Returns (profile callable of height, total flux) for unit voltage drop.
    """
    values = [complex(v) for v in values]
    resist = sum(t / g for t, g in zip(thicknesses, values))
    q = 1.0 / resist
    levels = [0.0 + 0.0j]
    for t, g in zip(thicknesses, values):
        levels.append(levels[-1] + q * t / g)

    def profile(y):
        y = np.asarray(y, dtype=float)
        out = np.zeros(y.shape, dtype=complex)
        y0 = 0.0
        for j, (t, g) in enumerate(zip(thicknesses, values)):
            sel = (y >= y0 - 1e-15) & (y <= y0 + t + 1e-15)
            out = np.where(sel, levels[j] + q * (y - y0) / g, out)
            y0 += t
        return out

    return profile, q


def test_admittivity_validation():
    with pytest.raises(EllipticityError):
        Admittivity([0.0 + 1j], lam=10.0)       # Re below 1/lambda
    with pytest.raises(EllipticityError):
        Admittivity([20.0], lam=10.0)           # modulus above lambda
    with pytest.raises(EllipticityError):
        Admittivity([1.0], lam=0.5)             # bound below 1
    a = Admittivity([1.0, 2.0 + 1j])
    assert a.value_for(0) == 1.0
    assert a.value_for(2) == 2.0 + 1j


def _single_triangle_mesh():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return Mesh(nodes=nodes, triangles=np.array([[0, 1, 2]]),
                tri_region=np.array([1]), boundary_nodes=np.array([0, 1, 2]),
                interface_edges={}, h=1.0)


def test_single_triangle_classical_stiffness():
    m = _single_triangle_mesh()
    K = region_stiffness(m)[1].toarray()
    expected = 0.5 * np.array([[2.0, -1.0, -1.0],
                               [-1.0, 1.0, 0.0],
                               [-1.0, 0.0, 1.0]])
    assert np.allclose(K, expected, atol=1e-14)


def test_stiffness_linear_in_gamma():
    p = el.build_partition(2)
    m = el.generate_mesh(p, 1 / 8)
    A1 = assemble(m, Admittivity([1.0, 1.0])).matrix
    A2 = assemble(m, Admittivity([2.0, 2.0])).matrix
    assert abs(A2 - 2 * A1).max() <= 1e-14
    # interface rows are affine in each strip value separately
    Ai = assemble(m, Admittivity([1.0, 1.0 + 1.0j])).matrix
    diff = (Ai - A1).toarray()
    expected = 1j * region_stiffness(m)[2].toarray()
    assert np.abs(diff - expected).max() <= 1e-14


def test_complex_symmetry_of_stiffness():
    p = el.build_partition(2)
    m = el.generate_mesh(p, 1 / 8)
    A = assemble(m, Admittivity([1.0, 2.0 + 1.0j])).matrix
    assert abs(A - A.T).max() == 0.0


def test_linear_field_exact():
    p = el.build_partition(3)
    m = el.generate_mesh(p, 1 / 12)
    u = solve_dirichlet(m, Admittivity([1.0, 1.0, 1.0]), lambda x, y: x)
    assert np.abs(u.values - m.nodes[:, 0]).max() <= 1e-12


def test_layered_real_oracle():
    p = el.build_partition(2)
    m = el.generate_mesh(p, 1 / 16)
    vals = [1.0, 3.0]
    profile, q = layered_profile(vals, [0.5, 0.5])
    assert q == pytest.approx(1.5)
    u = solve_dirichlet(m, Admittivity(vals), lambda x, y: profile(y))
    exact = profile(m.nodes[:, 1])
    assert np.abs(u.values - exact).max() <= 1e-10
    assert u.interpolate(np.array([[0.37, 0.5]]))[0].real == pytest.approx(0.75, abs=1e-10)
    # flux gamma * du/dy is the same constant in both strips
    grads = u.gradients()
    gam = Admittivity(vals).element_values(m)
    flux = gam * grads[:, 1]
    assert np.abs(flux - q).max() <= 1e-9


def test_layered_complex_oracle():
    p = el.build_partition(2)
    m = el.generate_mesh(p, 1 / 16)
    vals = [1.0, 1.0 + 1.0j]
    profile, q = layered_profile(vals, [0.5, 0.5])
    u = solve_dirichlet(m, Admittivity(vals), lambda x, y: profile(y))
    exact = profile(m.nodes[:, 1])
    assert np.abs(u.values - exact).max() <= 1e-10


def test_boundary_trace_exact():
    p = el.build_partition(2)
    m = el.generate_mesh(p, 1 / 8)
    f = np.cos(np.arange(len(m.boundary_nodes))) + 1j
    u = solve_dirichlet(m, Admittivity([1.0, 2.0]), f)
    assert np.abs(u.values[m.boundary_nodes] - f).max() == 0.0


def test_interior_residual_small():
    p = el.build_partition(2)
    m = el.generate_mesh(p, 1 / 32)
    sys_ = assemble(m, Admittivity([1.0, 2.0 + 1.0j]))
    u = sys_.solve(np.cos(np.linspace(0, 6, len(m.boundary_nodes))))
    assert sys_.residual(u) <= 1e-10


def test_real_system_agrees_with_complex():
    p = el.build_partition(2)
    m = el.generate_mesh(p, 1 / 16)
    a = Admittivity([1.0, 1.0 + 1.0j])
    f = lambda x, y: x + 1j * x * y
    u_c = solve_dirichlet(m, a, f)
    u_r = solve_real_system(m, a, f)
    assert np.abs(u_c.values - u_r.values).max() <= 1e-10


def test_real_system_decouples_for_real_gamma():
    p = el.build_partition(2)
    m = el.generate_mesh(p, 1 / 16)
    a = Admittivity([1.0, 2.5])
    f = lambda x, y: x + 1j * (x * x - y * y)
    u = solve_real_system(m, a, f)
    u_im = solve_dirichlet(m, a, lambda x, y: (x * x - y * y) + 0j)
    assert np.abs(u.values.imag - u_im.values.real).max() <= 1e-10


def test_strong_ellipticity_quadratic_form(rng):
    lam = 10.0
    for _ in range(30):
        g = complex(rng.uniform(1 / lam, 3.0), rng.uniform(-2.0, 2.0))
        if abs(g) > lam:
            continue
        xi = rng.standard_normal((2, 2))
        q = elasticity_quadratic_form(g, xi)
        n2 = float(np.sum(xi * xi))
        assert q == pytest.approx(g.real * n2, rel=1e-12)
        assert n2 / lam - 1e-12 <= q <= lam * n2 + 1e-12


def test_coefficient_tensor_shape():
    c = coefficient_tensor(2.0 + 0.5j)
    assert c.shape == (2, 2, 2, 2)
    # diagonal-in-derivatives structure: c[l,j,h,k] = 0 when h != k
    assert np.all(c[:, :, 0, 1] == 0) and np.all(c[:, :, 1, 0] == 0)


def test_galerkin_orthogonality():
    p = el.build_partition(2)
    m = el.generate_mesh(p, 1 / 16)
    a = Admittivity([1.0, 2.0 + 1.0j])
    sys_ = assemble(m, a)
    u = sys_.solve(np.exp(1j * np.linspace(0, 2, len(m.boundary_nodes))))
    resid = sys_.matrix @ u.values
    assert np.abs(resid[sys_.interior]).max() <= 1e-12 * np.abs(sys_.matrix.data).max()


def test_disk_harmonic_h1_convergence():
    errs = []
    for h in [1 / 8, 1 / 16, 1 / 32]:
        m = el.generate_disk_mesh(h)
        u = solve_dirichlet(m, Admittivity([1.0]), lambda x, y: x * x - y * y)
        grads = u.gradients()
        cen = m.centroids()
        exact = np.column_stack([2 * cen[:, 0], -2 * cen[:, 1]])
        err2 = np.sum(m.areas() * np.abs(grads - exact).sum(axis=1) ** 2)
        errs.append(np.sqrt(err2))
    assert errs[0] / errs[1] >= 1.7
    assert errs[1] / errs[2] >= 1.7


def test_interface_transmission_under_refinement():
    # one-sided gradients at matched interface points: the tangential
    # derivative is continuous, the flux jump gamma du/dn shrinks with h
    p = el.build_partition(2)
    a = Admittivity([1.0, 2.0 + 1.0j])

    def jumps(h):
        m = el.generate_mesh(p, h)
        u = solve_dirichlet(m, a, lambda x, y: np.cos(2 * x) * np.exp(y))
        edges = m.interface_edges[2]
        mids = 0.5 * (m.nodes[edges[:, 0]] + m.nodes[edges[:, 1]])
        eps = h / 10
        g_up = u.gradient_at(mids + [0.0, eps])
        g_dn = u.gradient_at(mids - [0.0, eps])
        gam_up, gam_dn = a.value_for(2), a.value_for(1)
        tang = np.abs(g_up[:, 0] - g_dn[:, 0]).mean()
        flux = np.abs(gam_up * g_up[:, 1] - gam_dn * g_dn[:, 1]).mean()
        return tang, flux

    t1, f1 = jumps(1 / 16)
    t2, f2 = jumps(1 / 32)
    assert t1 <= 1e-10 and t2 <= 1e-10
    assert f2 <= f1 / 1.5


def test_caccioppoli_trivial_and_linear():
    p = el.build_partition(1)
    m = el.generate_mesh(p, 1 / 32)
    const = field_from_function(m, lambda x, y: np.full_like(x, 2.0 + 1.0j, dtype=complex))
    assert caccioppoli_ratio(const, (0.5, 0.5), 0.2, 0.4) == 0.0
    zero = field_from_function(m, lambda x, y: np.zeros_like(x, dtype=complex))
    assert caccioppoli_ratio(zero, (0.5, 0.5), 0.2, 0.4) == 0.0
    lin = field_from_function(m, lambda x, y: (x - 0.5) + 0j)
    # exact integrals of a linear field: (R-rho)^2 * (pi rho^2) / (pi R^4 / 4)
    got = caccioppoli_ratio(lin, (0.5, 0.5), 0.25, 0.5, depth=8)
    assert got == pytest.approx(0.25, abs=1e-3)


def test_caccioppoli_errors():
    p = el.build_partition(1)
    m = el.generate_mesh(p, 1 / 16)
    u = field_from_function(m, lambda x, y: x + 0j)
    with pytest.raises(ValueError):
        caccioppoli_ratio(u, (0.5, 0.5), 0.4, 0.2)
    with pytest.raises(GeometryError):
        caccioppoli_ratio(u, (0.9, 0.9), 0.1, 0.5)
    for x0 in ((0.9, 0.25), np.array([0.9, 0.25]), [0.9, 0.25]):
        with pytest.raises(GeometryError,
                           match=r"^ball of radius 0\.5 at \(0\.9, 0\.25\) leaves the domain$"):
            caccioppoli_ratio(u, x0, 0.1, 0.5)


def test_caccioppoli_harmonic_suite_stable(rng):
    p = el.build_partition(1)
    ratios = {}
    for h in [1 / 16, 1 / 32]:
        m = el.generate_mesh(p, h)
        rng_local = np.random.default_rng(5)
        vals = []
        for _ in range(15):
            u = random_harmonic_polynomial(rng_local, 4, center=(0.5, 0.5))
            fld = field_from_function(m, u)
            vals.append(caccioppoli_ratio(fld, (0.5, 0.5), 0.15, 0.3, depth=6))
        ratios[h] = max(vals)
    assert np.isfinite(ratios[1 / 16]) and np.isfinite(ratios[1 / 32])
    assert ratios[1 / 16] == pytest.approx(ratios[1 / 32], rel=0.1)


def test_field_csv_export(tmp_path):
    p = el.build_partition(1)
    m = el.generate_mesh(p, 1 / 4)
    u = solve_dirichlet(m, Admittivity([1.0]), lambda x, y: x + 1j * y)
    path = tmp_path / "sol.csv"
    _write_csv(path, *u.table())
    lines = path.read_text().splitlines()
    assert lines[0] == "node_index,x,y,re_u,im_u"
    assert len(lines) == 1 + m.n_nodes
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(data[:, 0], np.arange(m.n_nodes))
    assert np.array_equal(data[:, 1:3], m.nodes)
    assert np.array_equal(data[:, 3], u.values.real)
    assert np.array_equal(data[:, 4], u.values.imag)


def _brute_force_locate(mesh, points):
    """Point-location oracle: every point tested against every triangle whose
    bounding box holds it.

    A point that a triangle accepts, with barycentrics >= -1e-9 summing to
    1, lies within 2e-9 of the box's extent of the box, so each box is
    widened by 1e-6 of its extent and no accepting triangle is missed.
    Returns (triangle, clipped barycentrics, accepted) with the same formulas,
    the same argmax and the same -1e-9 acceptance as `FieldSolution._locate`.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    tp = mesh.tri_points()
    tri_idx = np.empty(len(pts), dtype=np.int64)
    bary_out = np.empty((len(pts), 3))
    ok = np.empty(len(pts), dtype=bool)
    x0, y0 = tp[:, 0, 0], tp[:, 0, 1]
    e1 = tp[:, 1] - tp[:, 0]
    e2 = tp[:, 2] - tp[:, 0]
    det = 2.0 * mesh.areas()
    lo, hi = tp.min(axis=1), tp.max(axis=1)
    pad = 1e-6 * (hi - lo).max(axis=1, keepdims=True)
    lo, hi = lo - pad, hi + pad

    def bary(p, t):
        dx = p[:, 0] - x0[t]
        dy = p[:, 1] - y0[t]
        l1 = (dx * e2[t, 1] - dy * e2[t, 0]) / det[t]
        l2 = (dy * e1[t, 0] - dx * e1[t, 1]) / det[t]
        return 1.0 - l1 - l2, l1, l2

    for start in range(0, len(pts), 256):
        chunk = pts[start:start + 256]
        inbox = ((chunk[:, None, 0] >= lo[:, 0]) & (chunk[:, None, 0] <= hi[:, 0])
                 & (chunk[:, None, 1] >= lo[:, 1]) & (chunk[:, None, 1] <= hi[:, 1]))
        rows, t = np.nonzero(inbox)
        l0, l1, l2 = bary(chunk[rows], t)
        viol = np.full(inbox.shape, -np.inf)
        viol[rows, t] = np.minimum(np.minimum(l0, l1), l2)
        best = viol.argmax(axis=1)
        ok[start:start + 256] = viol[np.arange(len(chunk)), best] >= -1e-9
        tri_idx[start:start + 256] = best
        bary_out[start:start + 256] = np.stack(bary(chunk, best), axis=1)
    return tri_idx, np.clip(bary_out, 0.0, 1.0), ok


def _location_mesh(name, tmp_path):
    if name.startswith("strips"):
        _, h, ext = name.split("-")
        p = el.build_partition(3, with_extension=ext == "ext")
        return el.generate_mesh(p, 1 / int(h))
    if name == "offset-rect":
        return el.generate_mesh(el.build_partition(2, rect=(0.25, -0.6, 1.45, 0.3)), 1 / 20)
    if name == "disk":
        return el.generate_disk_mesh(1 / 16, radius=0.8, center=(0.1, -0.2))
    path = tmp_path / "mesh.txt"                     # "read-mesh"
    el.write_mesh(el.generate_mesh(el.build_partition(3, with_extension=True), 1 / 16),
                  path)
    return el.read_mesh(path)


def _edge_midpoints(mesh):
    tri = mesh.triangles
    edges = np.unique(np.sort(np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]],
                                              tri[:, [2, 0]]]), axis=1), axis=0)
    return mesh.nodes[edges].mean(axis=1)


def _just_outside(mesh, eps=5e-11):
    """Points eps off each boundary-edge midpoint and each boundary node, on
    both sides, plus points off the bounding-box corners at multiples of
    1e-9 of the mesh size."""
    a, b = mesh.nodes[mesh.boundary_edges.T]
    t = (b - a) / np.linalg.norm(b - a, axis=1)[:, None]
    n = np.stack([t[:, 1], -t[:, 0]], axis=1)
    mid = (a + b) / 2
    bn = mesh.nodes[mesh.boundary_nodes]
    away = bn - mesh.nodes.mean(axis=0)
    away /= np.linalg.norm(away, axis=1)[:, None]
    lo, hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
    corners = np.array([[x, y] for x in (lo[0], hi[0]) for y in (lo[1], hi[1])])
    size = np.ptp(mesh.tri_points(), axis=1).max()
    factors = (0.5, 0.9, 1.0, 1.5, 1.9, 2.0, 3.0)
    steps = size * 1e-9 * np.array([[s, r] for s in factors for r in factors])
    sign = np.sign(corners - mesh.nodes.mean(axis=0))
    corner_pts = (corners[:, None, :] + sign[:, None, :] * steps[None]).reshape(-1, 2)
    return np.concatenate([mid + eps * n, mid - eps * n, bn + eps * away,
                           bn - eps * away, corner_pts])


def _check_against_oracle(mesh, points):
    tri, bary, ok = _brute_force_locate(mesh, points)
    u = el.FieldSolution(mesh=mesh, values=np.zeros(mesh.n_nodes, dtype=complex))
    got_tri, got_bary = u._locate(points[ok])
    assert np.array_equal(got_tri, tri[ok])
    assert got_bary.tobytes() == bary[ok].tobytes()
    for p in points[~ok]:
        with pytest.raises(GeometryError, match="outside the meshed domain"):
            u._locate(p[None, :])


@pytest.mark.parametrize("name", [f"strips-{n}-{ext}" for n in (16, 30, 64)
                                  for ext in ("plain", "ext")]
                         + ["offset-rect", "disk", "read-mesh"])
def test_point_location_matches_brute_force(name, tmp_path):
    mesh = _location_mesh(name, tmp_path)
    rng = np.random.default_rng(7)
    lo, hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
    tp = mesh.tri_points()
    w = rng.dirichlet(np.ones(3), size=300)
    inside = np.einsum("pi,pid->pd", w, tp[rng.integers(0, len(tp), 300)])
    for pts in (rng.uniform(lo, hi, size=(300, 2)), inside, mesh.nodes,
                mesh.centroids(), _edge_midpoints(mesh), _just_outside(mesh)):
        _check_against_oracle(mesh, pts)


def test_point_location_edge_cases():
    disk = el.generate_disk_mesh(1 / 8)
    u = el.FieldSolution(mesh=disk, values=np.zeros(disk.n_nodes, dtype=complex))
    with pytest.raises(GeometryError, match="outside the meshed domain"):
        u._locate(np.array([[0.97, 0.97]]))          # corner of the bounding square
    tri, bary = u._locate(np.empty((0, 2)))
    assert tri.shape == (0,) and tri.dtype == np.int64 and bary.shape == (0, 3)
    for bad in (np.nan, np.inf, -np.inf):
        for p in ([bad, 0.5], [0.0, bad]):
            with pytest.raises(GeometryError, match="outside the meshed domain"):
                u._locate(np.array([p]))
            with pytest.raises(GeometryError, match="outside the meshed domain"):
                u.gradient_at(np.array(p))
            with pytest.raises(GeometryError, match="outside the meshed domain"):
                u.interpolate(np.array([[0.0, 0.0], p]))


def test_region_stiffness_forms_the_triangle_points_once(monkeypatch):
    # the hat gradients and the areas read one array of triangle points
    m = el.generate_mesh(el.build_partition(2), 1 / 16)
    calls = []
    points = Mesh.tri_points
    monkeypatch.setattr(Mesh, "tri_points", lambda mesh: calls.append(mesh) or points(mesh))
    region_stiffness(m)
    assert len(calls) == 1
    fresh = el.generate_mesh(el.build_partition(2), 1 / 16)
    assert np.array_equal(m.areas(), fresh.areas())


def _dense_region_stiffness(m: Mesh) -> dict:
    """Each region's stiffness, dense, from hat coefficients inverted per
    triangle and summed over every triangle by `np.add.at`; and the pattern
    of node pairs that share a triangle."""
    out = {}
    for lbl in np.unique(m.tri_region):
        tri = m.triangles[m.tri_region == lbl]
        P = np.concatenate([np.ones((len(tri), 3, 1)), m.nodes[tri]], axis=2)
        grads = np.linalg.inv(P)[:, 1:, :]           # column i: hat i's gradient
        loc = np.abs(np.linalg.det(P))[:, None, None] / 2.0 \
            * np.einsum("tdi,tdj->tij", grads, grads)
        K = np.zeros((m.n_nodes, m.n_nodes))
        pattern = np.zeros(K.shape, dtype=bool)
        np.add.at(K, (tri[:, :, None], tri[:, None, :]), loc)
        pattern[tri[:, :, None], tri[:, None, :]] = True
        out[int(lbl)] = K, pattern
    return out


def _read_back(tmp):
    el.write_mesh(el.generate_mesh(el.build_partition(3, with_extension=True), 1 / 16),
                  tmp / "mesh.txt")
    return el.read_mesh(tmp / "mesh.txt")


@pytest.mark.parametrize("make", [
    lambda tmp: el.generate_mesh(el.build_partition(3), 1 / 32),
    lambda tmp: el.generate_mesh(el.build_partition(3, with_extension=True), 1 / 30),
    lambda tmp: el.generate_mesh(el.build_partition(3, rect=(0.1, -0.2, 2.0, 1.1)), 1 / 16),
    lambda tmp: el.generate_disk_mesh(1 / 16),
    _read_back,
], ids=["h32", "h30-extension", "offset-rect", "disk", "read-mesh"])
def test_region_stiffness_matches_a_dense_accumulation(tmp_path, make):
    # the summed duplicates against an independent assembly: measured at
    # <= 7.0e-16 of the largest entry on these meshes
    m = make(tmp_path)
    parts = region_stiffness(m)
    oracle = _dense_region_stiffness(m)
    assert sorted(parts) == sorted(oracle)
    for lbl, (K, pattern) in oracle.items():
        A = parts[lbl]
        assert A.has_canonical_format
        rows = np.repeat(np.arange(m.n_nodes), np.diff(A.indptr))
        assert A.nnz == pattern.sum() and pattern[rows, A.indices].all()
        assert np.abs(A.toarray() - K).max() <= 2e-15 * np.abs(K).max()


_STRIP_VALUES = [1.2 + 0.3j, 1.9 - 0.5j, 0.8 + 0.1j, 1.1, 1.5 - 0.2j, 2.0 + 0.4j]


@pytest.mark.parametrize("n, ext, h", [(3, True, 1 / 30), (3, False, 1 / 32),
                                       (4, False, 1 / 48), (6, True, 1 / 40),
                                       (3, False, 1 / 128)],
                         ids=["h30-extension", "dyadic", "4-strips-h48",
                              "6-strips-h40-extension", "h128"])
def test_combined_grid_couplings_are_the_assembled_entries_bit_for_bit(n, ext, h):
    # each region's couplings, combined in label order, sum every entry in
    # the order that assembles the stiffness; K_BB rebuilt from the loop
    # vectors holds the assembled block's every byte, its hypotenuse zeros too
    m = el.generate_mesh(el.build_partition(n, with_extension=ext), h)
    a = Admittivity(_STRIP_VALUES[:n])
    A = assemble(m, a).matrix
    grid, bb = m.grid, m.boundary_nodes
    col = grid[:, 1]
    rows, cols = np.divmod(bb, grid.shape[1])
    ring = grid[np.clip(rows, 1, grid.shape[0] - 2), np.clip(cols, 1, grid.shape[1] - 2)]
    pairs = ((col, col), (col, grid[:, 0]), (col[:-1], col[1:]), (bb, ring),
             (bb, bb), (bb, np.roll(bb, -1)))
    couplings = _grid_couplings(m)
    for parts, (p, q) in zip(couplings, pairs, strict=True):
        assert _combine(a, parts).tobytes() == np.asarray(A[p, q]).ravel().tobytes()
    combined = _loop_block(*(_combine(a, x) for x in couplings[4:]))
    assert combined.tobytes() == A[np.ix_(bb, bb)].toarray().tobytes()
    for lbl, K in region_stiffness(m).items():         # each K_j,BB, as `derivatives` reads it
        block = _loop_block(couplings[4][lbl], couplings[5][lbl])
        assert block.tobytes() == K[np.ix_(bb, bb)].toarray().tobytes()


def test_grid_stiffness_action_matches_the_assembled_matrix(strip_mesh):
    # interior rows from the column-1 stencil, boundary rows from K_BB and
    # the ring couplings; measured: <= 1.6e-15 (offset-rect-ext)
    m, a = strip_mesh
    A = assemble(m, a).matrix
    rng = np.random.default_rng(20101008)
    u = rng.standard_normal(m.n_nodes) + 1j * rng.standard_normal(m.n_nodes)
    err = np.abs(_grid_apply(m, a, u) - A @ u).max()
    assert err <= 1e-14 * np.abs(A.data).max() * np.abs(u).max()



def _thomas_first_column(diag, off):
    """[T_k^-1]_00 of the tridiagonal T_k with diagonal diag[k] and
    off-diagonal `off`: a forward and a backward Thomas sweep on e_0,
    vectorized over k."""
    m = diag.shape[1]
    x = np.zeros((m, diag.shape[0]), dtype=complex)
    x[0] = 1.0
    piv = diag.T.copy()
    for r in range(1, m):
        ell = off[r - 1] / piv[r - 1]
        piv[r] -= ell * off[r - 1]
        x[r] -= ell * x[r - 1]
    x[m - 1] /= piv[m - 1]
    for r in range(m - 2, -1, -1):
        x[r] = (x[r] - off[r] * x[r + 1]) / piv[r]
    return x[0]


@pytest.mark.parametrize("n, ext, h", [(3, False, 1 / 128), (3, False, 1 / 256),
                                       (3, True, 1 / 30), (4, False, 1 / 48),
                                       (6, True, 1 / 40)],
                         ids=["h128", "h256", "h30-extension", "4-strips-h48",
                              "6-strips-h40-extension"])
def test_bottom_modes_continued_fraction_matches_a_thomas_sweep(n, ext, h):
    # lam_k = d + 2 e cos(k pi / (n + 1)) - c^2 [T_k^-1]_00 with the Green
    # value from a Thomas sweep on the first column of each mode's T_k;
    # measured: <= 1.9e-15 of the largest mode (h = 1/256)
    m = el.generate_mesh(el.build_partition(n, with_extension=ext), h)
    adms = [Admittivity(_STRIP_VALUES[:n]), Admittivity([1.0] * n),
            Admittivity([g + 0.2 - 0.1j for g in _STRIP_VALUES[:n]])]
    modes = bottom_modes(m, adms)
    assert modes.shape == (len(adms), m.grid.shape[1] - 2)
    for a, got in zip(adms, modes):
        diag, horiz, vert = (_combine(a, x) for x in _grid_couplings(m)[:3])
        rows = _sine_modes(diag, horiz, m.grid.shape[1] - 2)
        ref = rows[:, 0] - vert[0] ** 2 * _thomas_first_column(rows[:, 1:-1], vert[1:-1])
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("n, ext, h", [(3, True, 1 / 30), (3, False, 1 / 128)],
                         ids=["h30-extension", "h128"])
def test_bottom_modes_rows_do_not_depend_on_the_batch(n, ext, h):
    # each admittivity's row is bit for bit its own one-admittivity pass,
    # whatever else the batch holds and in whatever order
    m = el.generate_mesh(el.build_partition(n, with_extension=ext), h)
    rng = np.random.default_rng(20101008)
    adms = [Admittivity(_STRIP_VALUES[:n]), Admittivity([1.0] * n), Admittivity([2.0] * n)]
    adms += [Admittivity(rng.uniform(0.8, 2.0, n) + 1j * rng.uniform(-0.8, 0.8, n))
             for _ in range(4)]
    alone = [bottom_modes(m, [a])[0] for a in adms]
    batches = [range(len(adms)), range(len(adms) - 1, -1, -1), [3, 3, 0], [6, 1]]
    batches += [rng.permutation(len(adms))[:k] for k in (2, 4, 5)]
    for batch in batches:
        rows = bottom_modes(m, [adms[i] for i in batch])
        assert rows.shape == (len(batch), m.grid.shape[1] - 2)
        for row, i in zip(rows, batch):
            assert row.tobytes() == alone[i].tobytes()
    assert bottom_modes(m, []).shape == (0, m.grid.shape[1] - 2)

def test_grid_schur_and_derivatives_assemble_no_stiffness(monkeypatch, tmp_path):
    # on a grid, schur, derivatives, a solve with its residual, the boundary
    # flux and the probe residual of a box grid read only the couplings; a
    # disk mesh and a read-back mesh assemble for their first solve
    assembled = []
    whole = forward.region_stiffness
    monkeypatch.setattr(forward, "region_stiffness",
                        lambda mesh: assembled.append(mesh) or whole(mesh))
    m = el.generate_mesh(el.build_partition(3, with_extension=True), 1 / 16)
    a = Admittivity([1.2 + 0.3j, 1.9 - 0.5j, 0.8 + 0.1j])
    system = assemble(m, a)
    system.schur()
    system.derivatives()
    u = system.solve(np.ones(len(system.boundary)))
    system.residual(u)
    system.boundary_flux(u)
    sv1 = el.CorrectorSolver(m, a)
    sv2 = el.CorrectorSolver(m, Admittivity([1.2 + 0.3j, 1.9 - 0.5j, 1.6]))
    box = el.Rect(0.40, 1 / 3 - 0.12, 0.60, 1 / 3 + 0.12)
    el.probe_field_residual(sv1, sv2, 2, np.array([0.48, -0.23]), box, 0.06, link2=1)
    assert assembled == [] and "matrix" not in system.__dict__
    for mesh, b in ((el.generate_disk_mesh(0.25), Admittivity([1.5 + 0.5j])),
                    (_read_back(tmp_path), a)):
        other = assemble(mesh, b)
        other.solve(np.ones(len(other.boundary)))
        assert assembled == [mesh] and "matrix" in other.__dict__
        assembled.clear()


def test_superlu_schur_and_derivatives_share_one_interior_solve(monkeypatch, tmp_path):
    # a mesh read back from file has no node grid, so it takes SuperLU: the
    # boundary columns A_II^-1 A_IB are solved once per system, whichever of
    # schur and derivatives runs first
    m = _read_back(tmp_path)
    assert m.grid is None
    a = Admittivity(_STRIP_VALUES[:3])
    alone = assemble(m, a).derivatives()
    columns = []
    factorize = forward.splu

    class Counted:
        def __init__(self, A):
            self.lu = factorize(A)

        def solve(self, rhs):
            columns.append(1 if rhs.ndim == 1 else rhs.shape[1])
            return self.lu.solve(rhs)
    monkeypatch.setattr(forward, "splu", Counted)
    system = assemble(m, a)
    system.schur()
    after = system.derivatives()
    assert columns == [len(system.boundary)]
    assert [x.tobytes() for x in after] == [x.tobytes() for x in alone]


class _Assembled(Exception):
    pass


@pytest.mark.parametrize("n, ext, h", [(3, True, 1 / 30), (4, False, 1 / 48)],
                         ids=["h30-extension", "4-strips-h48"])
def test_a_grid_takes_no_region_stiffness(monkeypatch, tmp_path, n, ext, h):
    # the sine modes, a solve, its residual and the boundary flux read each
    # region's couplings from the band of triangles at column 1 and the
    # boundary; only SuperLU assembles
    def region_stiffness(mesh):
        raise _Assembled
    monkeypatch.setattr(forward, "region_stiffness", region_stiffness)
    m = el.generate_mesh(el.build_partition(n, with_extension=ext), h)
    a = Admittivity(_STRIP_VALUES[:n])
    b = Admittivity([g + 0.2 for g in _STRIP_VALUES[:n]])
    bottom_modes(m, [a])
    stability_sweep([(a, b)], m, arc=np.arange(m.grid.shape[1]))
    system = assemble(m, a)
    system.schur()
    system.derivatives()
    u = system.solve(np.ones(len(system.boundary)))
    assert system.residual(u) <= 1e-13
    system.boundary_flux(u)
    # the band writes no subset of the mesh's areas or hat gradients
    assert "p1" not in m._cache and "areas" not in m._cache
    with pytest.raises(GeometryError, match="do not match"):
        bottom_modes(m, [Admittivity(_STRIP_VALUES[:n - 1])])
    with pytest.raises(_Assembled):
        assemble(el.generate_disk_mesh(0.25), Admittivity([1.5 + 0.5j])).schur()
    el.write_mesh(m, tmp_path / "mesh.txt")
    with pytest.raises(_Assembled):
        assemble(el.read_mesh(tmp_path / "mesh.txt"), a).schur()


def test_grid_couplings_are_read_once_per_mesh(monkeypatch):
    # one band assembly per mesh holds the stencil, the ring couplings and
    # K_BB's loop vectors, for the bottom arc's modes and every system
    passes = []
    band = forward._assemble_regions
    monkeypatch.setattr(forward, "_assemble_regions", lambda *args: passes.append(1) or band(*args))
    m = el.generate_mesh(el.build_partition(2), 1 / 16)
    bottom_modes(m, [Admittivity([1.0, 2.0])])
    couplings = m._cache["grid_couplings"]
    for values in ([1.0, 2.0], [1.5 + 0.5j, 1.0], [2.0, 1.0 - 0.3j]):
        system = assemble(m, Admittivity(values))
        system.schur()
        system.derivatives()
        system.boundary_flux(system.solve(np.ones(len(system.boundary))))
        bottom_modes(m, [Admittivity(values)])
        assert m._cache["grid_couplings"] is couplings
    assert passes == [1]


@pytest.mark.parametrize("n, ext, h", [(3, True, 1 / 30), (3, True, 1 / 64), (4, False, 1 / 48)],
                         ids=["h30-extension", "h64-extension", "4-strips-h48"])
def test_grid_solve_matches_superlu_with_no_factorization(monkeypatch, n, ext, h):
    # the sine-mode solve against SuperLU on the same assembled A_II; at
    # h = 1/30 the node columns are not evenly spaced in floating point.
    # measured: <= 1.4e-14 relative, residual <= 7e-16
    m = el.generate_mesh(el.build_partition(n, with_extension=ext), h)
    a = Admittivity(_STRIP_VALUES[:n])
    factorized = []
    factorize = forward.splu
    monkeypatch.setattr(forward, "splu", lambda A: factorized.append(A) or factorize(A))
    rng = np.random.default_rng(20101008)
    system = assemble(m, a)
    trace = rng.standard_normal(len(system.boundary)) + 1j * rng.standard_normal(len(system.boundary))
    load = rng.standard_normal(m.n_nodes) + 1j * rng.standard_normal(m.n_nodes)
    u = system.solve(trace, load=load)
    assert factorized == []
    assert system.residual(u, load) <= 1e-13
    A, ii, bb = system.matrix, system.interior, system.boundary
    ref = factorize(A[np.ix_(ii, ii)].tocsc()).solve(load[ii] - A[np.ix_(ii, bb)] @ trace)
    assert np.abs(u.values[ii] - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.array_equal(u.values[bb], trace)


def test_grid_solve_shares_the_mode_factors_with_schur_and_derivatives():
    # a solve forms the Thomas factors that schur and derivatives then read,
    # so neither moves by a bit for a solve before them
    m = el.generate_mesh(el.build_partition(3, with_extension=True), 1 / 30)
    a = Admittivity(_STRIP_VALUES[:3])
    alone = assemble(m, a)
    solved = assemble(m, a)
    solved.solve(np.ones(len(solved.boundary)))
    factors = solved.__dict__["_mode_factors"]
    assert solved.schur().tobytes() == alone.schur().tobytes()
    assert [x.tobytes() for x in solved.derivatives()] == [x.tobytes() for x in alone.derivatives()]
    assert solved.__dict__["_mode_factors"] is factors


@pytest.mark.parametrize("grid", [True, False], ids=["grid", "read-mesh"])
def test_solve_rejects_a_load_of_the_wrong_shape(monkeypatch, tmp_path, grid):
    # before any factorization or sweep
    m = (el.generate_mesh(el.build_partition(3, with_extension=True), 1 / 16) if grid
         else _read_back(tmp_path))
    system = assemble(m, Admittivity(_STRIP_VALUES[:3]))

    def no_solve(*args):
        raise AssertionError("a bad load reached the solver")
    monkeypatch.setattr(forward, "splu", no_solve)
    monkeypatch.setattr(forward, "_thomas_sweep", no_solve)
    trace = np.ones(len(system.boundary))
    for shape in ((m.n_nodes + 1,), (m.n_nodes - 1,), (m.n_nodes, 1)):
        with pytest.raises(ValueError, match="^load length does not match the node count$"):
            system.solve(trace, load=np.ones(shape))
    assert "_mode_factors" not in system.__dict__ and system._lu is None
