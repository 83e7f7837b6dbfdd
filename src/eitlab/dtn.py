"""Discrete Dirichlet-to-Neumann maps and fractional boundary norms.

The DtN matrix is the Schur complement of the complex-symmetric stiffness
onto the boundary nodes, taken in the counterclockwise trace ordering; entry
(p, q) is the energy pairing of the hat trace at q against the hat trace at
p.  Fractional Sobolev norms on the boundary come from the generalized
eigenpairs of the 1D boundary mass/stiffness pencil: W_s = M V (I + D)^s V^T M
with B V = M V D, so W_0 = M and W_1 = M + B.

The Schur complement has two back ends.  On a `generate_mesh` strip mesh
whose stiffness is exactly row-separable (the check is cached per mesh), a
sine transform along the node rows leaves one tridiagonal system across the
rows per mode, and only the interior inverse between the ring neighbours of
the boundary nodes is formed; nothing is factorized.  Every other mesh (a
disk, a `read_mesh` mesh, a grid whose node columns are not evenly spaced in
floating point) solves one interior column per boundary node through SuperLU.

The operator norm of a DtN difference is the largest singular value of
L^{-1} Delta L^{-T} for the Cholesky factor W_{1/2} = L L^T, which realizes
the sup of |<Delta f, conj(psi)>| over unit fractional-norm trace vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .forward import Admittivity, FemSystem, _row_coefficients, _separable_grid, assemble
from .geometry import Mesh, _fmt, _write_csv, mesh_hash

__all__ = [
    "DtNMap",
    "boundary_operators",
    "dtn_matrix",
    "apply_dtn",
    "h_half_gram",
    "operator_norm",
]


@dataclass
class DtNMap:
    """Boundary operator matrix plus the discrete boundary Gram structure."""

    matrix: np.ndarray       # complex symmetric, boundary trace basis
    mass: np.ndarray         # boundary mass M (SPD)
    stiffness: np.ndarray    # boundary 1D Laplace-Beltrami B (PSD)
    mesh: Mesh = field(repr=False)
    _gram_half: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def gram_half(self) -> np.ndarray:
        if self._gram_half is None:
            self._gram_half = h_half_gram(self.mass, self.stiffness, 0.5)
        return self._gram_half

    def to_csv(self, path) -> None:
        """Dense export: re/im interleaved DtN, then M, then B."""
        n = self.n
        interleaved = np.stack([self.matrix.real, self.matrix.imag], axis=2).reshape(n, -1)
        header = f"# dtn v1 n={n} mesh={mesh_hash(self.mesh)} h={_fmt(self.mesh.h)}"
        _write_csv(path, [header],
                   [[f"{part}_{p}" for p in range(n) for part in ("re", "im")],
                    *interleaved, ["# mass"], *self.mass, ["# stiffness"], *self.stiffness])


def boundary_operators(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Mass and 1D Laplace-Beltrami stiffness on the closed boundary loop."""
    bn = mesh.boundary_nodes
    nb = len(bn)
    pts = mesh.nodes[bn]
    ell = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)   # edge i -> i+1
    i = np.arange(nb)
    j = np.roll(i, -1)
    M = np.zeros((nb, nb))
    B = np.zeros((nb, nb))
    # node i closes edge i-1 and opens edge i
    M[i, i] = np.roll(ell, 1) / 3.0 + ell / 3.0
    M[i, j] = M[j, i] = ell / 6.0
    B[i, i] = 1.0 / np.roll(ell, 1) + 1.0 / ell
    B[i, j] = B[j, i] = -(1.0 / ell)
    return M, B


def schur(system: FemSystem, positions=None) -> np.ndarray:
    """Boundary Schur complement A_BB - A_BI A_II^-1 A_IB.

    With `positions` (indices into the boundary trace order) the result is
    the principal block on them, A_aa - A_aI A_II^-1 A_Ia, and only those
    columns are computed.  On an exactly row-separable strip mesh the
    interior inverse is taken from sine modes on the ring of interior nodes
    next to the boundary (`_ring_green`); every other mesh solves one
    interior column per position through the sparse LU factorization.
    """
    A = system.matrix
    bb = system.boundary if positions is None else system.boundary[positions]
    grid = _separable_grid(system.mesh)
    if grid is None:
        ii = system.interior
        X = system.lu.solve(A[np.ix_(ii, bb)].toarray())
        return A[np.ix_(bb, bb)].toarray() - A[np.ix_(bb, ii)] @ X
    rows, cols = np.divmod(bb, grid.shape[1])
    ring = grid[np.clip(rows, 1, grid.shape[0] - 2), np.clip(cols, 1, grid.shape[1] - 2)]
    c = np.asarray(A[bb, ring]).ravel()      # exactly 0 at the four corners
    R = _ring_green(A, grid, rows, cols)
    return A[np.ix_(bb, bb)].toarray() - c[:, None] * R * c[None, :]


def _mode_green(diag: np.ndarray, off: np.ndarray, columns) -> np.ndarray:
    """Columns of the inverse of every tridiagonal T_k, one Thomas sweep per
    column, vectorized over the modes k.

    T_k has diagonal diag[k] and off-diagonal `off`; entry [k, r, j] of the
    result is T_k^-1[r, columns[j]].  No pivoting: Re gamma >= 1/lambda
    makes the Hermitian part of every T_k positive definite.
    """
    m = diag.shape[1]
    x = np.zeros(diag.shape + (len(columns),), dtype=complex)
    x[:, columns, np.arange(len(columns))] = 1.0
    piv = diag.copy()
    for r in range(1, m):
        ell = off[r - 1] / piv[:, r - 1]
        piv[:, r] -= ell * off[r - 1]
        x[:, r] -= ell[:, None] * x[:, r - 1]
    x[:, m - 1] /= piv[:, m - 1, None]
    for r in range(m - 2, -1, -1):
        x[:, r] = (x[:, r] - off[r] * x[:, r + 1]) / piv[:, r, None]
    return x


def _ring_green(A, grid: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """A_II^-1 between the ring neighbours of the boundary nodes at grid
    positions (rows, cols) of a row-separable strip mesh.

    The orthonormal type-I sine transform S along each node row turns A_II
    into one tridiagonal T_k across the rows per mode k (Buzbee, Golub and
    Nielson 1970), so A_II^-1[(r, i), (s, j)] = sum_k S[i, k] S[j, k]
    T_k^-1[r, s].  The result is gathered from fixed blocks, one per pair of
    segments and each computed the same way whichever positions ask for it,
    so a principal block is bitwise the full ring's.
    """
    m, n = grid.shape[0] - 2, grid.shape[1] - 2
    # ring segment (bottom row, top row, left column, right column) and the
    # position along it; a corner takes the end of its row, where it couples to nothing
    seg = np.select([rows == 0, rows == m + 1, cols == 0], [0, 1, 2], 3)
    along = np.where(seg < 2, np.clip(cols, 1, n), rows) - 1
    diag, horiz, vert = _row_coefficients(A, grid)
    k = np.arange(1, n + 1)
    S = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * (np.outer(k, k) % (2 * n + 2)) / (n + 1))
    T = diag + np.outer(2.0 * np.cos(np.pi * k / (n + 1)), horiz)
    off = vert[1:-1]
    present = np.unique(seg)
    ends = _mode_green(T, off, [0, m - 1])        # T_k^-1 on the ring rows
    edge = S[[0, -1]]                              # sine weights of the ring columns
    if present[-1] >= 2:
        weights = (edge[:, None, :] * edge[None, :, :]).reshape(4, n)
        sides = (weights @ _mode_green(T, off, range(m)).reshape(n, m * m)).reshape(2, 2, m, m)

    def block(u, v):
        if u < 2 and v < 2:
            return (S * ends[:, [0, m - 1][u], v]) @ S
        if u < 2:
            return (S * edge[v - 2]) @ ends[:, :, u]
        if v < 2:
            return (ends[:, :, v] * edge[u - 2][:, None]).T @ S
        return sides[u - 2, v - 2]

    size = np.where(present < 2, n, m)
    start = np.concatenate([[0], np.cumsum(size)[:-1]])
    loc = start[np.searchsorted(present, seg)] + along
    R = np.block([[block(u, v) for v in present] for u in present])
    return R[np.ix_(loc, loc)]


def dtn_matrix(mesh: Mesh, adm: Admittivity, arc=None) -> DtNMap:
    """Schur complement of the stiffness onto the boundary trace basis.

    With `arc` (contiguous positions in the cyclic trace order) the result
    is the full map's principal block on the arc's interior nodes, with M
    and B restricted alike, so its Gram encodes traces supported on the arc.
    Only the arc's columns are computed.
    """
    M, B = boundary_operators(mesh)
    positions = None
    if arc is not None:
        arc = np.asarray(arc, dtype=int)
        if arc.ndim != 1 or len(arc) == 0:
            raise ValueError("arc must be a nonempty 1D index array")
        steps = np.mod(np.diff(arc), len(M))
        if np.any(steps != 1):
            raise ValueError("arc positions must be contiguous in the cyclic trace order")
        positions = arc[1:-1]
        if len(positions) == 0:
            raise ValueError("arc has no interior nodes")
        sub = np.ix_(positions, positions)
        M, B = M[sub], B[sub]
    return DtNMap(matrix=schur(assemble(mesh, adm), positions), mass=M, stiffness=B, mesh=mesh)


def apply_dtn(system: FemSystem, trace) -> np.ndarray:
    """Matrix-free DtN action: boundary residual of the harmonic lifting."""
    return system.boundary_flux(system.solve(trace))


def h_half_gram(M: np.ndarray, B: np.ndarray, s: float) -> np.ndarray:
    """Gram matrix of the order-s boundary norm, s in [-1, 1].

    Spectral definition through the pencil B V = M V diag(d) with V^T M V = I:
    W_s = M V (I + diag(d))^s V^T M.  s=0 returns M, s=1 returns M + B.
    """
    if not -1.0 <= s <= 1.0:
        raise ValueError(f"order s must lie in [-1, 1], got {s}")
    try:
        d, V = sla.eigh(B, M)
    except sla.LinAlgError as exc:   # pragma: no cover - guarded by SPD mass
        raise RuntimeError(f"boundary eigenproblem failed: {exc}") from exc
    d = np.maximum(d, 0.0)           # B is PSD; clip eigen roundoff
    core = V @ np.diag((1.0 + d) ** s) @ V.T
    W = M @ core @ M
    return 0.5 * (W + W.T)


def _whiten(L: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """L^{-1} Z L^{-T} for a lower-triangular L."""
    t = sla.solve_triangular(L, Z, lower=True)
    return sla.solve_triangular(L, t.T, lower=True).T


def operator_norm(delta: np.ndarray, W_half: np.ndarray) -> float:
    """Largest singular value of L^{-1} delta L^{-T}, W_half = L L^T."""
    try:
        L = sla.cholesky(W_half, lower=True)
    except sla.LinAlgError as exc:
        raise ValueError("fractional Gram matrix is not positive definite") from exc
    return float(sla.svdvals(_whiten(L, delta))[0])
