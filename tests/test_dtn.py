import numpy as np
import pytest
import scipy.linalg as sla
from scipy.sparse.linalg import splu

import eitlab as el
from eitlab import forward
from eitlab.dtn import (apply_dtn, bottom_gram, boundary_operators, dtn_matrix, h_half_gram,
                        operator_norm)
from eitlab.forward import Admittivity, assemble, bottom_modes


def boundary_angles(mesh):
    pts = mesh.nodes[mesh.boundary_nodes]
    return np.arctan2(pts[:, 1], pts[:, 0])


def test_disk_steklov_spectrum(disk_mesh32):
    d = dtn_matrix(disk_mesh32, Admittivity([1.0]))
    w = np.sort(sla.eigh(d.matrix.real, d.mass, eigvals_only=True))
    assert abs(w[0]) <= 1e-8
    ks = np.repeat(np.arange(1, 9), 2)
    rel = np.abs(w[1:17] - ks) / ks
    assert rel.max() <= 0.02


def test_dtn_constant_kernel_and_symmetry(strips2_mesh64):
    p, m = strips2_mesh64
    d = dtn_matrix(m, Admittivity([1.0, 2.0 + 1.0j]))
    scale = np.abs(d.matrix).max()
    assert np.abs(d.matrix @ np.ones(len(d.matrix))).max() <= 1e-10 * scale
    assert np.abs(d.matrix - d.matrix.T).max() <= 1e-10 * scale


def test_dtn_matrix_matches_matrix_free_action(strips3_mesh64, rng):
    # apply_dtn lifts each trace through FemSystem.solve, not the Schur complement
    p, m = strips3_mesh64
    a = Admittivity([1.0, 2.0 + 1.0j, 1.5 - 0.5j])
    d = dtn_matrix(m, a)
    sys_ = assemble(m, a)
    nb = len(d.matrix)
    for _ in range(3):
        f = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
        ref = apply_dtn(sys_, f)
        assert np.linalg.norm(d.matrix @ f - ref) <= 1e-10 * np.linalg.norm(ref)


def test_dtn_real_coefficients_give_real_symmetric(strips2_mesh64):
    p, m = strips2_mesh64
    d = dtn_matrix(m, Admittivity([1.0, 3.0]))
    assert np.abs(d.matrix.imag).max() <= 1e-12 * np.abs(d.matrix.real).max()
    assert np.allclose(d.matrix.real, d.matrix.real.T, atol=1e-10)


def test_gram_endpoint_identities(disk_mesh32):
    M, B = boundary_operators(disk_mesh32)
    W0 = h_half_gram(M, B, 0.0)
    W1 = h_half_gram(M, B, 1.0)
    assert np.abs(W0 - M).max() <= 1e-12 * np.abs(M).max()
    assert np.abs(W1 - (M + B)).max() <= 1e-12 * np.abs(B).max()
    with pytest.raises(ValueError):
        h_half_gram(M, B, 1.5)


def test_gram_half_circle_modes(disk_mesh32):
    d = dtn_matrix(disk_mesh32, Admittivity([1.0]))
    W = d.gram_half()
    th = boundary_angles(disk_mesh32)
    for k in [0, 1, 2, 4, 8]:
        f = np.exp(1j * k * th)
        n2 = np.real(np.conj(f) @ (W @ f))
        target = 2 * np.pi * np.sqrt(1.0 + k * k)
        assert n2 == pytest.approx(target, rel=0.05)


def test_gram_half_positive_definite(disk_mesh32):
    d = dtn_matrix(disk_mesh32, Admittivity([1.0]))
    W = d.gram_half()
    assert np.all(sla.eigvalsh(W) > 0)


def test_operator_norm_zero_and_homogeneity(disk_mesh32):
    d1 = dtn_matrix(disk_mesh32, Admittivity([1.0]))
    d3 = dtn_matrix(disk_mesh32, Admittivity([3.0]))
    W = d1.gram_half()
    assert operator_norm(np.zeros_like(d1.matrix), W) == 0.0
    # scaling a constant admittivity scales the whole map, and the norm
    assert np.abs(d3.matrix - 3 * d1.matrix).max() <= 1e-12 * np.abs(d3.matrix).max()
    delta = d3.matrix - d1.matrix
    assert operator_norm(2 * delta, W) == pytest.approx(
        2 * operator_norm(delta, W), rel=1e-10)


def test_operator_norm_requires_spd_gram():
    with pytest.raises(ValueError):
        operator_norm(np.eye(3, dtype=complex), -np.eye(3))


def test_fourier_mode_rayleigh_sequence(disk_mesh32):
    # mode-subspace pairings approach |g1-g2| from below as the mode grows
    d1 = dtn_matrix(disk_mesh32, Admittivity([1.0]))
    d2 = dtn_matrix(disk_mesh32, Admittivity([2.0]))
    delta = d2.matrix - d1.matrix
    W = d1.gram_half()
    th = boundary_angles(disk_mesh32)
    rs = []
    for k in range(1, 9):
        f = np.exp(1j * k * th)
        num = abs(np.conj(f) @ (delta @ f))
        den = np.real(np.conj(f) @ (W @ f))
        rs.append(num / den)
        assert rs[-1] == pytest.approx(k / np.sqrt(1 + k * k), rel=0.02)
    assert all(rs[i] < rs[i + 1] for i in range(len(rs) - 1))
    assert rs[-1] >= 0.9
    # the full operator norm dominates every mode pairing
    assert operator_norm(delta, W) >= rs[-1]


def test_local_dtn_full_arc_equals_global(strips2_mesh64):
    p, m = strips2_mesh64
    a = Admittivity([1.0, 2.0])
    d = dtn_matrix(m, a)
    nb = len(d.matrix)
    arc = np.arange(nb + 1) % nb      # wraps once around: interior = everything
    loc = dtn_matrix(m, a, arc=arc)
    assert loc.matrix.shape == (nb - 1, nb - 1)
    assert np.allclose(loc.matrix, d.matrix[1:nb, 1:nb])


def test_local_dtn_monotone(strips2_mesh64):
    p, m = strips2_mesh64
    a1, a2 = Admittivity([1.0, 2.0]), Admittivity([1.0, 3.0])
    d1, d2 = dtn_matrix(m, a1), dtn_matrix(m, a2)
    g = operator_norm(d1.matrix - d2.matrix, d1.gram_half())
    nx = int(np.sum(m.nodes[m.boundary_nodes, 1] == 0.0))
    arc = np.arange(nx)                # bottom edge
    l1, l2 = dtn_matrix(m, a1, arc=arc), dtn_matrix(m, a2, arc=arc)
    ln = operator_norm(l1.matrix - l2.matrix, l1.gram_half())
    assert ln <= g


def test_local_dtn_errors(strips2_mesh64):
    p, m = strips2_mesh64
    a = Admittivity([1.0, 2.0])
    with pytest.raises(ValueError):
        dtn_matrix(m, a, arc=np.array([0, 1]))            # no interior nodes
    with pytest.raises(ValueError):
        dtn_matrix(m, a, arc=np.array([0, 2, 4]))         # not contiguous
    with pytest.raises(ValueError):
        dtn_matrix(m, a, arc=np.array([], dtype=int))


def _bottom_arc(m):
    y = m.nodes[m.boundary_nodes, 1]
    return np.arange(int(np.sum(y == y.min())))


@pytest.mark.parametrize("kind, with_extension", [
    *[(kind, ext) for kind in ("bottom", "wrapping") for ext in (False, True)],
    pytest.param("disk", False, id="disk"),
    pytest.param("read-back", True, id="read-back"),
])
def test_dtn_matrix_arc_is_principal_block_of_full_map(tmp_path, kind, with_extension):
    # an arc's map, M and B are the full loop's principal blocks on the arc's
    # interior, on sine-mode grids and on SuperLU meshes (disk, read-back)
    if kind == "disk":
        m, a = el.generate_disk_mesh(1 / 32), Admittivity([1.3 - 0.4j])
    else:
        m = el.generate_mesh(el.build_partition(3, with_extension=with_extension), 1 / 32)
        if kind == "read-back":
            el.write_mesh(m, tmp_path / "mesh.txt")
            m = el.read_mesh(tmp_path / "mesh.txt")
        a = Admittivity([1.2 + 0.3j, 1.9 - 0.5j, 0.8 + 0.1j])
    assert (m.grid is None) == (kind in ("disk", "read-back"))
    full = dtn_matrix(m, a)
    nb = len(full.matrix)
    arc = _bottom_arc(m) if kind == "bottom" else np.arange(nb - 7, nb + 20) % nb
    interior = np.asarray(arc)[1:-1]
    sub = np.ix_(interior, interior)
    loc = dtn_matrix(m, a, arc=arc)
    assert loc.matrix.shape == (len(interior), len(interior))
    assert np.array_equal(loc.matrix, full.matrix[sub])
    assert np.array_equal(loc.mass, full.mass[sub])
    assert np.array_equal(loc.stiffness, full.stiffness[sub])
    assert np.array_equal(loc.gram_half(),
                          h_half_gram(full.mass[sub], full.stiffness[sub], 0.5))


def _superlu_oracle(mesh, adm, positions=None):
    """A_BB - A_BI A_II^-1 A_IB on `positions`, through one sparse LU."""
    system = assemble(mesh, adm)
    A, ii = system.matrix, system.interior
    bb = system.boundary if positions is None else system.boundary[positions]
    X = splu(A[np.ix_(ii, ii)].tocsc()).solve(A[np.ix_(ii, bb)].toarray())
    return A[np.ix_(bb, bb)].toarray() - A[np.ix_(bb, ii)] @ X


def _count_factorizations(monkeypatch):
    calls = []
    factorize = forward.splu

    def counted(A):
        calls.append(A.shape)
        return factorize(A)

    monkeypatch.setattr(forward, "splu", counted)
    return calls


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def test_strip_dtn_matches_superlu_oracle_without_factorizing(monkeypatch, strip_mesh):
    m, a = strip_mesh
    assert m.grid is not None
    nb = len(m.boundary_nodes)
    calls = _count_factorizations(monkeypatch)
    for arc in [_bottom_arc(m), np.arange(nb - 7, nb + 20) % nb, None]:
        d = dtn_matrix(m, a, arc=arc)
        ref = _superlu_oracle(m, a, None if arc is None else arc[1:-1])
        assert _rel(d.matrix, ref) <= 1e-12
    assert calls == []


def _sine(n):
    """Orthonormal type-I sine transform of size n."""
    j = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(j, j) / (n + 1))


def test_bottom_modes_are_the_sine_diagonal_of_the_dense_arc_map(strip_mesh):
    # the dense bottom-arc map is diagonal in the sine basis along the row,
    # and bottom_modes is that diagonal, formed without an n x n matrix;
    # measured: off-diagonal and mode gap <= 4.6e-15 on these meshes
    m, a = strip_mesh
    d = dtn_matrix(m, a, arc=_bottom_arc(m))
    S = _sine(len(d.matrix))
    lam = S @ d.matrix @ S
    diag = np.diag(lam)
    assert np.abs(lam - np.diag(diag)).max() <= 1e-13 * np.abs(diag).max()
    assert _rel(bottom_modes(m, a), diag) <= 1e-13


def test_bottom_gram_modes_are_the_eigenvalues_of_the_arc_gram(strip_mesh):
    # measured: <= 7.2e-15 of the largest eigenvalue on these meshes
    m, a = strip_mesh
    d = dtn_matrix(m, a, arc=_bottom_arc(m))
    eigenvalues = sla.eigvalsh(h_half_gram(d.mass, d.stiffness, 0.5))
    assert _rel(np.sort(bottom_gram(m)), eigenvalues) <= 1e-13


def _read_back(tmp_path):
    path = tmp_path / "mesh.txt"
    el.write_mesh(el.generate_mesh(el.build_partition(3), 1 / 32), path)
    return el.read_mesh(path)


_NOT_SEPARABLE = {
    "disk": lambda tmp_path: el.generate_disk_mesh(1 / 32),
    "read-back": _read_back,
}


@pytest.mark.parametrize("kind", list(_NOT_SEPARABLE))
def test_superlu_serves_meshes_that_are_not_row_separable(tmp_path, monkeypatch, kind):
    # disks and read-back meshes carry no node grid
    m = _NOT_SEPARABLE[kind](tmp_path)
    a = Admittivity([1.3 - 0.4j] if kind == "disk" else [1.2 + 0.3j, 1.9 - 0.5j, 0.8 + 0.1j])
    assert m.grid is None
    calls = _count_factorizations(monkeypatch)
    d = dtn_matrix(m, a)
    assert len(calls) == 1
    assert _rel(d.matrix, _superlu_oracle(m, a)) <= 1e-12


_ARC_ERRORS = {
    "no-interior": ([0, 1], "arc has no interior nodes"),
    "not-contiguous": ([0, 2, 4], "arc positions must be contiguous in the cyclic trace order"),
    "empty": ([], "arc must be a nonempty 1D index array"),
    # one lap of the 256-node loop and three positions more: position 1 twice
    "laps-the-loop": ([*range(256), 0, 1, 2],
                      "arc laps the boundary loop and repeats a position"),
    # contiguous, but past the last of the 256 positions; negative ones wrap
    "past-the-loop": ([*range(256, 261)], "arc positions must lie in [-256, 256)"),
}


@pytest.mark.parametrize("arc, message", list(_ARC_ERRORS.values()), ids=list(_ARC_ERRORS))
def test_dtn_matrix_arc_errors_match_local_dtn(strips2_mesh64, arc, message):
    p, m = strips2_mesh64
    with pytest.raises(ValueError) as direct:
        dtn_matrix(m, Admittivity([1.0, 2.0]), arc=np.array(arc, dtype=int))
    assert str(direct.value) == message


def _layered_transfer(kappa, layers):
    """Transfer matrix of (phi, gamma phi') from the bottom to the top of
    flat layers (gamma, thickness), listed bottom first, for
    phi'' = kappa^2 phi in each layer, and its derivative in each gamma."""
    mats, ders = [], []
    for g, t in layers:
        c, s = np.cosh(kappa * t), np.sinh(kappa * t)
        mats.append(np.array([[c, s / (kappa * g)], [g * kappa * s, c]]))
        ders.append(np.array([[0.0, -s / (kappa * g * g)], [kappa * s, 0.0]]))

    def product(factors):
        out = np.eye(2, dtype=complex)
        for f in factors:
            out = f @ out
        return out

    return product(mats), [product(mats[:i] + [d] + mats[i + 1:]) for i, d in enumerate(ders)]


@pytest.mark.parametrize("with_extension", [False, True])
def test_bottom_arc_map_matches_layered_closed_form(with_extension):
    # data sin(k pi x) on the bottom edge, zero on the rest, extend to
    # sin(k pi x) phi(y) with phi(top) = 0, so the continuum DtN eigenvalue
    # is -gamma phi'(0) / phi(0) = M11 / M12 for the transfer matrix M; the
    # discrete bottom-arc map is diagonal in the type-I sine transform, and
    # each mode value over the same mode of the arc mass must converge to it
    # at second order, and so must its derivative in each strip value
    gammas = [1.2 + 0.3j, 1.9 - 0.5j, 0.8 + 0.1j]
    a = Admittivity(gammas)
    below = [(1.0, 1 / 3)] if with_extension else []      # the extension strip
    layers = below + [(g, 1 / 3) for g in gammas]
    ks = np.arange(1, 5)
    exact, exact_d = [], []
    for k in ks:
        M, dM = _layered_transfer(k * np.pi, layers)
        exact.append(M[0, 0] / M[0, 1])
        exact_d.append([(d[0, 0] * M[0, 1] - M[0, 0] * d[0, 1]) / M[0, 1] ** 2
                        for d in dM[len(below):]])
    exact, exact_d = np.array(exact), np.array(exact_d)
    errors, errors_d = [], []
    for h in [1 / 32, 1 / 64, 1 / 128]:
        m = el.generate_mesh(el.build_partition(3, with_extension=with_extension), h)
        d = dtn_matrix(m, a, arc=_bottom_arc(m))
        n = len(d.matrix)
        j = np.arange(1, n + 1)
        S = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(j, j) / (n + 1))
        lam = S @ d.matrix @ S
        mass = np.diag(S @ d.mass @ S)
        assert np.abs(lam - np.diag(np.diag(lam))).max() <= 1e-12 * np.abs(lam).max()
        interior = slice(1, n + 1)                 # the arc's interior positions
        modes = np.array([np.diag(S @ c[interior, interior] @ S) / mass
                          for c in assemble(m, a).derivatives()]).T
        errors.append(np.abs(np.diag(lam)[ks - 1] / mass[ks - 1] - exact) / np.abs(exact))
        errors_d.append(np.abs(modes[ks - 1] - exact_d) / np.abs(exact_d))
    order = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    order_d = np.log2(np.array(errors_d[:-1]) / np.array(errors_d[1:]))[:, :3]
    assert np.abs(order - 2.0).max() <= 0.1
    assert np.abs(order_d - 2.0).max() <= 0.1
