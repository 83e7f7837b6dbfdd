"""P1 finite elements for div(gamma grad u) = 0 with complex piecewise-constant
coefficients and Dirichlet data.

The stiffness matrix is assembled exactly: the coefficient is constant per
region, so each element contributes its real Laplace stiffness scaled by the
region value, and the global matrix is an affine combination of per-region
real matrices (`_combine`).  Systems are complex symmetric (plain transpose).
`FemSystem` alone chooses the back end of its interior solves, from how the
mesh was built: sine modes exactly when the mesh records its node grid
(`Mesh.grid`, which only `generate_mesh` sets), and SuperLU on a disk,
`read_mesh` or hand-built mesh.  On a grid the interior block is a Kronecker
sum, so the type-I sine transform along the node rows splits it into one
tridiagonal T_k per mode, and each T_k is factored once per system
(`_thomas_factors`).  A Dirichlet solve transforms its right-hand side,
sweeps those factors over the rows for every mode at once and transforms
back; the boundary Schur complement and its derivatives in the strip values
read every mode's Green function T_k^-1, swept from the same factors.

A grid holds its operator only as each region's couplings (`_grid_couplings`),
read once per mesh: the column-1 row stencil, each boundary node's ring
coupling, and K_BB as two loop vectors.  They lie in the rows of grid column
1 and of the boundary, so they are read from the band of triangles that touch
those nodes: each such row sums the same triangles in the same order as the
whole-mesh assembly, and is bit for bit its row.  The Schur complement
combines them, and a solve's right-hand side, its residual check and the
boundary flux apply the stiffness from them (`_grid_apply`).  So no grid
path assembles the whole-mesh stiffness or factorizes a sparse matrix:
`FemSystem.matrix` and `lu` serve only meshes without a node grid.  Either
way `schur` forms the full map, whose principal blocks are the arcs' maps,
and `derivatives` reads the same interior solve, formed once per system.
The bottom arc alone has its own grid path, `bottom_modes`: its map needs
only the corner [T_k^-1]_00 of each mode's Green function, a continued
fraction that one pass over the node rows takes for every mode of a whole
batch of admittivities.

Both assemblies sum each entry's duplicates in numpy, in triangle order, and
keep each region's entries under their sorted row-major keys
(`_assemble_regions`).  scipy is imported only where it runs: the CSR
matrices of `region_stiffness`, SuperLU (`splu`) and `solve_real_system`.
So no grid path loads scipy, neither a solve nor a bottom-arc sweep.

`solve_real_system` re-solves the same problem as the equivalent 2x2 real
system in (Re u, Im u), which is the cross-check used to validate the complex
path, and `caccioppoli_ratio` measures interior gradient energy against
function energy on concentric balls.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .geometry import GeometryError, Mesh, _signed_areas
from .quadrature import clipped_quadrature

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "EllipticityError",
    "SolverError",
    "Admittivity",
    "FieldSolution",
    "region_stiffness",
    "assemble",
    "FemSystem",
    "bottom_modes",
    "boundary_trace",
    "solve_dirichlet",
    "solve_real_system",
    "coefficient_tensor",
    "elasticity_quadratic_form",
    "caccioppoli_ratio",
    "field_from_function",
]


class EllipticityError(ValueError):
    """Coefficient outside the admissible set Re(g) >= 1/lambda, |g| <= lambda."""


class SolverError(RuntimeError):
    """Linear solve produced an unacceptable residual."""


@dataclass(frozen=True)
class Admittivity:
    """N complex strip values plus the ellipticity bound.

    The extension strip (region label 0) always carries the value 1.  Strip j
    (label j, 1-based) carries values[j-1].
    """

    values: tuple
    lam: float = 10.0

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(complex(v) for v in self.values))
        if not (math.isfinite(self.lam) and self.lam >= 1.0):
            raise EllipticityError(
                f"ellipticity bound must be a finite number >= 1, got {self.lam}")
        for j, g in enumerate(self.values, start=1):
            if not cmath.isfinite(g):
                raise EllipticityError(f"admittivity {j}: {g} is not finite")
            if g.real < 1.0 / self.lam - 1e-15:
                raise EllipticityError(
                    f"admittivity {j}: Re(gamma) = {g.real} violates the lower "
                    f"ellipticity bound 1/lambda = {1.0 / self.lam}")
            if abs(g) > self.lam + 1e-15:
                raise EllipticityError(
                    f"admittivity {j}: |gamma| = {abs(g)} exceeds lambda = {self.lam}")

    @property
    def n(self) -> int:
        return len(self.values)

    def value_for(self, label: int) -> complex:
        if label == 0:
            return 1.0 + 0.0j
        return self.values[label - 1]

    def element_values(self, mesh: Mesh) -> np.ndarray:
        labels, index = _region_labels(mesh)
        return np.array([self.value_for(lbl) for lbl in labels], dtype=complex)[index]

    def max_jump(self, other: "Admittivity") -> float:
        """L-infinity distance between two coefficient vectors."""
        if other.n != self.n:
            raise ValueError("admittivities have different strip counts")
        return float(max(abs(a - b) for a, b in zip(self.values, other.values)))


def _p1_grads(mesh: Mesh):
    """Per-triangle constant gradients of the three hat functions."""
    if "p1" in mesh._cache:
        return mesh._cache["p1"]
    pts = mesh.tri_points()
    if "areas" not in mesh._cache:      # `Mesh.areas`, from the same points
        mesh._cache["areas"] = _signed_areas(pts)
    mesh._cache["p1"] = _hat_gradients(pts, mesh._cache["areas"])
    return mesh._cache["p1"]


def _hat_gradients(pts: np.ndarray, area: np.ndarray):
    """(area, gradients) of the three hats on triangles with points `pts`."""
    x, y = pts[..., 0], pts[..., 1]
    det = 2.0 * area
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    grads = np.stack([b, c], axis=2) / det[:, None, None]   # (nt, 3, 2)
    return area, grads


def _tri_bins(mesh: Mesh):
    """Uniform cell grid over the mesh for point location.

    The cell side is the largest triangle bounding-box extent.  Each cell
    lists, in increasing index and padded with -1 to the fullest cell, every
    triangle whose bounding box meets it once widened by 1e-8 of the box
    size.  A point whose barycentrics are all >= -1e-9 lies within 2e-9 of
    the size outside the box, so every triangle that can contain a point
    within the location tolerance is listed in the point's cell.
    Returns (origin, cell side, grid shape, table).
    """
    if "tri_bins" in mesh._cache:
        return mesh._cache["tri_bins"]
    tp = mesh.tri_points()
    lo, hi = tp.min(axis=1), tp.max(axis=1)
    size = hi - lo
    pad = 1e-8 * size.max(axis=1, keepdims=True)
    lo, hi = lo - pad, hi + pad
    cell = size.max()
    origin = lo.min(axis=0)
    first = np.floor((lo - origin) / cell).astype(np.int64)
    last = np.floor((hi - origin) / cell).astype(np.int64)
    shape = last.max(axis=0) + 1
    reach = (last - first).max(axis=0) + 1
    tris, cells = [], []
    for di in range(reach[0]):
        for dj in range(reach[1]):
            ij = first + (di, dj)
            hit = np.nonzero(np.all(ij <= last, axis=1))[0]
            tris.append(hit)
            cells.append(ij[hit, 0] * shape[1] + ij[hit, 1])
    tris, cells = np.concatenate(tris), np.concatenate(cells)
    order = np.lexsort((tris, cells))
    tris, cells = tris[order], cells[order]
    counts = np.bincount(cells, minlength=shape[0] * shape[1])
    slot = np.arange(len(cells)) - (np.cumsum(counts) - counts)[cells]
    table = np.full((len(counts), counts.max()), -1, dtype=np.int64)
    table[cells, slot] = tris
    mesh._cache["tri_bins"] = (origin, cell, shape, table)
    return mesh._cache["tri_bins"]


def splu(A):
    """SuperLU factorization of a sparse matrix; scipy loads on first call."""
    import scipy.sparse.linalg
    return scipy.sparse.linalg.splu(A)


def region_stiffness(mesh: Mesh) -> dict[int, sp.csr_matrix]:
    """Real Laplace stiffness restricted to each region label, as scipy CSR
    matrices in canonical format."""
    if "region_stiffness" not in mesh._cache:
        import scipy.sparse as sp
        n = mesh.n_nodes
        parts = _assemble_regions(mesh, mesh.triangles, mesh.tri_region, *_p1_grads(mesh))
        mesh._cache["region_stiffness"] = {
            lbl: sp.csr_matrix((data, np.divmod(key, n)), shape=(n, n))
            for lbl, (key, data) in parts.items()}
    return mesh._cache["region_stiffness"]


def _assemble_regions(mesh: Mesh, triangles, tri_region, area, grads) -> dict:
    """Each region's real Laplace stiffness summed over the given triangles,
    with their areas and hat gradients: the sorted, unique row-major keys
    row * n_nodes + col of its stored entries, and the entries.

    An entry sums its triangles' contributions in triangle order (a stable
    sort on the entry, then `np.add.reduceat`), so a row that holds the same
    triangles in the same relative order is bit for bit the same row over
    any subset of the mesh's triangles."""
    n = mesh.n_nodes
    out = {}
    for lbl in np.unique(tri_region):
        sel = tri_region == lbl
        tri = triangles[sel]
        loc = np.einsum("t,tid,tjd->tij", area[sel], grads[sel], grads[sel])
        key = (np.repeat(tri, 3, axis=1) * n + np.tile(tri, (1, 3))).ravel()
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        out[int(lbl)] = key[first], np.add.reduceat(loc.ravel()[order], first)
    return out


def _entries(K: tuple, pairs, n: int) -> list:
    """Entries at each (p, q) in `pairs` of an n x n matrix K = (keys,
    entries) from `_assemble_regions`, 0 where none is stored: one
    `searchsorted` of the row-major keys p * n + q of every pair."""
    key, data = K
    want = np.concatenate([p * n + q for p, q in pairs])
    at = np.minimum(np.searchsorted(key, want), len(key) - 1)
    return np.split(np.where(key[at] == want, data[at], 0.0),
                    np.cumsum([len(p) for p, _ in pairs])[:-1])


def _band_stiffness(mesh: Mesh) -> dict:
    """Each region's stiffness summed over only the band of triangles that
    touch a node of grid column 1 or a boundary node, once per mesh, as the
    keys and entries of `_assemble_regions`.

    The row of such a node sums every triangle that holds the node, in the
    same relative order as `region_stiffness`, so it is bit for bit that row
    of the whole-mesh matrix.  Rows of other nodes miss triangles."""
    if "band_stiffness" not in mesh._cache:
        mark = np.zeros(mesh.n_nodes, dtype=bool)
        mark[mesh.grid[:, 1]] = mark[mesh.boundary_nodes] = True
        band = mark[mesh.triangles].any(axis=1)
        tri = mesh.triangles[band]
        pts = mesh.nodes[tri]
        mesh._cache["band_stiffness"] = _assemble_regions(
            mesh, tri, mesh.tri_region[band], *_hat_gradients(pts, _signed_areas(pts)))
    return mesh._cache["band_stiffness"]


def _ring_nodes(mesh: Mesh) -> np.ndarray:
    """Each boundary node's neighbour on the ring of interior nodes next to
    the boundary, on a mesh with a node grid; a corner's is diagonal to it."""
    grid = mesh.grid
    rows, cols = np.divmod(mesh.boundary_nodes, grid.shape[1])
    return grid[np.clip(rows, 1, grid.shape[0] - 2), np.clip(cols, 1, grid.shape[1] - 2)]


def _grid_couplings(mesh: Mesh) -> tuple[dict, ...]:
    """Each region's couplings, once per mesh with a node grid: dicts from
    label to the diagonal and horizontal coupling of each node row and the
    vertical coupling of each pair of consecutive rows, all at column 1
    (what the sine modes read); each boundary node's coupling to its
    neighbour on the ring of interior nodes (exactly 0 at the four corners);
    and K_BB as two loop vectors, each boundary node's diagonal and its
    coupling to the next node of the boundary loop.  Every other K_BB entry
    is the exact 0 of a right triangle's hypotenuse (`_loop_block`).  Each
    lies in the row of a column-1 or boundary node, so `_band_stiffness`
    gives it bit for bit as `region_stiffness` would, with no whole-mesh
    assembly."""
    if "grid_couplings" not in mesh._cache:
        grid, bb = mesh.grid, mesh.boundary_nodes
        col = grid[:, 1]
        pairs = ((col, col), (col, grid[:, 0]), (col[:-1], col[1:]),
                 (bb, _ring_nodes(mesh)), (bb, bb), (bb, np.roll(bb, -1)))
        parts = {lbl: _entries(K, pairs, mesh.n_nodes)
                 for lbl, K in _band_stiffness(mesh).items()}
        mesh._cache["grid_couplings"] = tuple(
            {lbl: x[i] for lbl, x in parts.items()} for i in range(len(pairs)))
    return mesh._cache["grid_couplings"]


def _loop_block(diag: np.ndarray, step: np.ndarray) -> np.ndarray:
    """K_BB, dense, from the loop vectors of `_grid_couplings`: the diagonal
    and the coupling of each boundary node to the next and, by symmetry, the
    previous node of the loop.  Every other entry is 0."""
    i = np.arange(len(diag))
    K = np.diag(diag)
    K[i, i - 1] = K[i - 1, i] = np.roll(step, 1)
    return K


def _grid_apply(mesh: Mesh, adm: Admittivity, u: np.ndarray) -> np.ndarray:
    """The stiffness times the nodal vector u on a mesh with a node grid,
    from the combined couplings of `_grid_couplings`, with no assembly.

    An interior row applies the column-1 Kronecker stencil that `schur` and
    `_mode_factors` assume, and a boundary row K_BB plus its ring coupling:
    no other entry of the stiffness is nonzero.  The mesh may hold any
    subset of the admittivity's region labels."""
    diag, horiz, vert, ring, loop, step = (_combine(adm, x) for x in _grid_couplings(mesh))
    U, f = u[mesh.grid], u[mesh.boundary_nodes]
    out = np.empty(len(u), dtype=complex)
    out[mesh.grid[1:-1, 1:-1]] = (diag[1:-1, None] * U[1:-1, 1:-1]
                                  + horiz[1:-1, None] * (U[1:-1, :-2] + U[1:-1, 2:])
                                  + vert[:-1, None] * U[:-2, 1:-1] + vert[1:, None] * U[2:, 1:-1])
    out[mesh.boundary_nodes] = (loop * f + step * np.roll(f, -1) + np.roll(step * f, 1)
                                + ring * u[_ring_nodes(mesh)])
    return out


def _combine(adm: Admittivity, parts: dict):
    """sum_j gamma_j X_j over the region labels j, in label order: the
    stiffness when X_j = K_j, and, entry for entry the same sums, bit for bit
    its entries when X_j are K_j's couplings or blocks."""
    return sum(adm.value_for(lbl) * X for lbl, X in parts.items())


def _sine_modes(diag, off, n: int) -> np.ndarray:
    """Eigenvalues diag + 2 off cos(k pi / (n + 1)), k = 1..n, of the n x n
    tridiagonal Toeplitz matrix with diagonal `diag` and off-diagonal `off`,
    whose eigenvectors are the orthonormal type-I sine transform S; one
    column per entry of array arguments."""
    k = np.arange(1, n + 1)
    return diag + np.multiply.outer(2.0 * np.cos(np.pi * k / (n + 1)), off)


def _thomas_factors(diag: np.ndarray, off: np.ndarray):
    """The LU factors of every tridiagonal T_k, vectorized over the modes k.

    T_k has diagonal diag[k] and off-diagonal `off`.  Returns (piv, ell,
    off): the pivots piv[r, k], the multipliers ell[r - 1, k] that eliminate
    row r, and `off`, the upper factor's off-diagonal.  No pivoting:
    Re gamma >= 1/lambda makes the Hermitian part of every T_k positive
    definite.
    """
    piv = diag.T.copy()
    ell = np.empty((len(piv) - 1, piv.shape[1]), dtype=piv.dtype)
    for r in range(1, len(piv)):
        ell[r - 1] = off[r - 1] / piv[r - 1]
        piv[r] -= ell[r - 1] * off[r - 1]
    return piv, ell, off


def _thomas_sweep(piv, ell, off, x: np.ndarray) -> np.ndarray:
    """Overwrite x, indexed [row, mode, ...], with T_k^-1 x for every mode k,
    from the factors of `_thomas_factors`: one forward and one backward
    sweep over the rows, each step vectorized over the modes and columns."""
    # each mode's factor against every trailing column of x
    tail = (1,) * (x.ndim - 2)
    piv, ell = piv.reshape(piv.shape + tail), ell.reshape(ell.shape + tail)
    for r in range(1, len(piv)):
        x[r] -= ell[r - 1] * x[r - 1]
    x[-1] /= piv[-1]
    for r in range(len(piv) - 2, -1, -1):
        x[r] -= off[r] * x[r + 1]
        x[r] /= piv[r]
    return x


def _mode_green(piv, ell, off) -> np.ndarray:
    """The inverse of every tridiagonal T_k from its factors: one Thomas
    sweep over all its columns, vectorized over the modes k.  Entry
    [k, r, j] of the result is T_k^-1[r, j]."""
    m, n = piv.shape
    # row-major in r, so that each step of the sweep reads contiguous rows
    x = np.zeros((m, n, m), dtype=complex)
    x[np.arange(m), :, np.arange(m)] = 1.0
    return _thomas_sweep(piv, ell, off, x).transpose(1, 0, 2)


def _sine_matrix(n: int) -> np.ndarray:
    """The orthonormal type-I sine transform S[i, k] = sqrt(2 / (n + 1))
    sin(i k pi / (n + 1)), i, k = 1..n: symmetric, and its own inverse."""
    k = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * (np.outer(k, k) % (2 * n + 2)) / (n + 1))


def _ring_gather(M: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """sum_k S[i, k] S[j, k] M_k[r, s] between the ring neighbours, at node
    row r, column i and row s, column j, of the boundary nodes at grid
    positions (rows, cols), for symmetric per-mode matrices M_k, given as
    `M[k]`.

    S is the orthonormal type-I sine transform along the node rows.  The
    result is gathered from one block per pair of ring segments.
    """
    n, m = M.shape[:2]
    # ring segment (bottom row, top row, left column, right column) and the
    # position along it; a corner takes the end of its row, where it couples to nothing
    seg = np.select([rows == 0, rows == m + 1, cols == 0], [0, 1, 2], 3)
    along = np.where(seg < 2, np.clip(cols, 1, n), rows) - 1
    S = _sine_matrix(n)
    ends = M[:, :, [0, m - 1]]                     # each M_k's first and last column
    edge = S[[0, -1]]                              # sine weights of the ring columns
    weights = (edge[:, None, :] * edge[None, :, :]).reshape(4, n)
    sides = (weights @ M.reshape(n, m * m)).reshape(2, 2, m, m)

    def block(u, v):
        if u < 2 and v < 2:
            return (S * ends[:, [0, m - 1][u], v]) @ S
        if u < 2:
            return (S * edge[v - 2]) @ ends[:, :, u]
        if v < 2:
            return (ends[:, :, v] * edge[u - 2][:, None]).T @ S
        return sides[u - 2, v - 2]

    loc = np.array([0, n, 2 * n, 2 * n + m])[seg] + along
    R = np.block([[block(u, v) for v in range(4)] for u in range(4)])
    return R[np.ix_(loc, loc)]


def _region_labels(mesh: Mesh):
    """The mesh's region labels and each triangle's index into them."""
    if "labels" not in mesh._cache:
        mesh._cache["labels"] = np.unique(mesh.tri_region, return_inverse=True)
    return mesh._cache["labels"]


def _check_labels(mesh: Mesh, adm: Admittivity) -> None:
    labels = set(_region_labels(mesh)[0].tolist())
    expected = set(range(0, adm.n + 1)) if 0 in labels else set(range(1, adm.n + 1))
    if labels != expected:
        raise GeometryError(
            f"mesh region labels {sorted(labels)} do not match an "
            f"{adm.n}-strip admittivity")


def bottom_modes(mesh: Mesh, adms) -> np.ndarray:
    """Mode values of the bottom arc's map on a mesh with a node grid, one
    row of n values per admittivity in the sequence `adms`.

    The arc's interior is the bottom row's n interior nodes, and its map is
    the principal block of `FemSystem.schur` on them.  That block is
    A_BB - c^2 G with the row's tridiagonal Toeplitz A_BB (diagonal d,
    horizontal coupling e), the ring coupling c to the first interior row and
    G the block of A_II^-1 on that row, whose sine mode k is [T_k^-1]_00.  So
    the orthonormal type-I sine transform S along the row diagonalizes it:
    S Lam S has diagonal lam_k = d + 2 e cos(k pi / (n + 1)) - c^2 [T_k^-1]_00.
    T_k has diagonal a_r and off-diagonal b_r over the m interior rows, so
    [T_k^-1]_00 = 1 / q_0 for the continued fraction q_{m-1} = a_{m-1},
    q_r = a_r - b_r^2 / q_{r+1}: one pass over the rows serves every mode of
    every admittivity, stacked (rows, admittivities, modes).  Each value
    takes the same operations whatever else the batch holds.  The row
    couplings are linear in the strip values and combine each region's from
    `_grid_couplings`, so no stiffness is assembled.
    """
    couplings = _grid_couplings(mesh)[:3]
    stacked = []
    for adm in adms:
        _check_labels(mesh, adm)
        stacked.append([_combine(adm, x) for x in couplings])
    n = mesh.grid.shape[1] - 2
    if not stacked:
        return np.empty((0, n), dtype=complex)
    diag, horiz, vert = (np.stack(x, axis=1) for x in zip(*stacked))     # (rows, A)
    cos = 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
    modes = horiz[..., None] * cos                           # every node row, (rows, A, n)
    modes += diag[..., None]                                  # in place: one array, not two
    b2 = vert[..., None] ** 2                                 # vert[0] is c
    q = modes[-2]
    for r in range(len(modes) - 3, 0, -1):
        q = modes[r] - b2[r] / q
    return modes[0] - b2[0] / q


class FemSystem:
    """Complex-symmetric stiffness and the solves of its interior block: per
    sine mode Thomas factors on a mesh with a node grid, SuperLU (`lu`) on
    any other mesh, each formed once per system on first use."""

    def __init__(self, mesh: Mesh, adm: Admittivity):
        self.mesh = mesh
        self.adm = adm
        _check_labels(mesh, adm)
        self.boundary = mesh.boundary_nodes
        self.interior = mesh.interior_nodes()
        self._lu = None

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        """The complex stiffness sum_j gamma_j K_j over the mesh's region
        labels j, assembled on first use."""
        return _combine(self.adm, region_stiffness(self.mesh))

    @property
    def lu(self):
        """SuperLU factors of A_II, formed on first use: the interior solves
        of a mesh without a node grid."""
        if self._lu is None:
            ii = self.interior
            self._lu = splu(self.matrix[np.ix_(ii, ii)].tocsc())
        return self._lu

    def schur(self) -> np.ndarray:
        """Boundary Schur complement A_BB - A_BI A_II^-1 A_IB: the full map,
        whose principal block on an arc's interior nodes is the arc's map.

        A mesh with a node grid (`Mesh.grid`, set by `generate_mesh`) takes
        A_II^-1 on the boundary's ring neighbours from sine modes
        (`_ring_gather`): its interior nodes are `grid[1:-1, 1:-1]`, and each
        cell is split into two right triangles, so in exact arithmetic every
        region stiffness couples no diagonal neighbours and is constant along
        each node row.  The interior block is then a Kronecker sum, and each
        boundary node couples to the interior only through its neighbour on
        the ring of interior nodes next to the boundary.  These couplings and
        A_BB, whose only nonzero entries are the boundary loop's three cyclic
        diagonals (`_loop_block`), combine each region's (`_grid_couplings`).
        The rows are read at column 1; where the node columns are not evenly
        spaced in floating point (h = 1/30), the other columns differ in their
        last bits.  Any other mesh solves A_II^-1 A_IB through SuperLU.
        Either way it reads `_interior_solve`, as `derivatives` does.
        """
        bb = self.boundary
        if self.mesh.grid is None:
            A = self.matrix
            X = self._interior_solve
            return A[np.ix_(bb, bb)].toarray() - A[np.ix_(bb, self.interior)] @ X
        c, R, _ = self._interior_solve
        loop = (_combine(self.adm, x) for x in _grid_couplings(self.mesh)[4:])
        return _loop_block(*loop) - c[:, None] * R * c[None, :]

    @functools.cached_property
    def _interior_solve(self):
        """The interior solve that `schur` and `derivatives` read, formed once
        like `lu`: X = A_II^-1 A_IB through SuperLU, or on a mesh with a node
        grid the ring couplings c, the ring gather R of A_II^-1 and every
        mode's Green function G_k = T_k^-1 from `_mode_factors` (see
        `schur`)."""
        grid = self.mesh.grid       # None: SuperLU
        if grid is None:
            return self.lu.solve(self.matrix[np.ix_(self.interior, self.boundary)].toarray())
        c = _combine(self.adm, _grid_couplings(self.mesh)[3])
        G = _mode_green(*self._mode_factors)
        return c, _ring_gather(G, *np.divmod(self.boundary, grid.shape[1])), G

    @functools.cached_property
    def _mode_factors(self):
        """On a mesh with a node grid, the Thomas factors of every sine mode's
        tridiagonal T_k over the interior node rows (see `schur`), formed
        once like `lu`: `solve` sweeps them, and `_mode_green` inverts them
        for `schur` and `derivatives`."""
        diag, horiz, vert = (_combine(self.adm, x) for x in _grid_couplings(self.mesh)[:3])
        T = _sine_modes(diag[1:-1], horiz[1:-1], self.mesh.grid.shape[1] - 2)
        return _thomas_factors(T, vert[1:-1])

    def _mode_solve(self, rhs: np.ndarray) -> np.ndarray:
        """A_II^-1 rhs on a mesh with a node grid, with no sparse
        factorization: the sine transform along the node rows, one Thomas
        sweep of `_mode_factors` over the rows for every mode at once, and
        the transform back.  The interior nodes are `grid[1:-1, 1:-1]` in
        row-major order, so `rhs` reshapes to (rows, columns)."""
        piv, ell, off = self._mode_factors
        S = _sine_matrix(piv.shape[1])
        x = _thomas_sweep(piv, ell, off, rhs.reshape(len(piv), -1) @ S)
        return (x @ S).ravel()

    def derivatives(self) -> list:
        """Derivatives d Lam / d gamma_j of the full Schur complement, one
        per strip j = 1..N, from the interior solve that `schur` reads too.

        The stiffness is gamma_j K_j plus the other strips' terms, so on a
        mesh with a node grid, with Lam = A_BB - c R c as in `schur`,
        d Lam / d gamma_j = K_j,BB - c_j R c - c R c_j + c P_j c, where c_j
        are K_j's ring couplings and P_j = A_II^-1 K_j A_II^-1 on the ring.
        Each K_j is its own row stencil, so mode k carries
        P_j,k = G_k T_k^(j) G_k with G_k = T_k^-1, and T_k^(j) is nonzero
        only on strip j's node rows.  Any other mesh takes H^T K_j H with the
        lifting H = [I; -X], restricted to strip j's nodes.
        """
        strips = range(1, self.adm.n + 1)
        grid = self.mesh.grid       # None: SuperLU
        bb = self.boundary
        if grid is None:
            parts = region_stiffness(self.mesh)
            H = np.empty((self.mesh.n_nodes, len(bb)), dtype=complex)
            H[bb] = np.eye(len(bb))
            H[self.interior] = -self._interior_solve
            out = []
            for K in (parts[j] for j in strips):
                nodes = np.flatnonzero(np.diff(K.indptr))
                Hj = H[nodes]
                out.append(Hj.T @ (K[np.ix_(nodes, nodes)] @ Hj))
            return out

        c, R, G = self._interior_solve
        rows, cols = np.divmod(bb, grid.shape[1])
        diag, horiz, vert, ring, loop, step = _grid_couplings(self.mesh)
        out = []
        for j in strips:
            Tj = _sine_modes(diag[j][1:-1], horiz[j][1:-1], grid.shape[1] - 2)
            offj, cj = vert[j][1:-1], ring[j]
            on = np.flatnonzero(Tj.any(axis=0))
            lo, hi = on[0], on[-1] + 1          # strip j's node rows
            TG = Tj[:, lo:hi, None] * G[:, lo:hi]
            TG[:, 1:] += offj[lo:hi - 1, None] * G[:, lo:hi - 1]
            TG[:, :-1] += offj[lo:hi - 1, None] * G[:, lo + 1:hi]
            P = G[:, :, lo:hi] @ TG
            PR = _ring_gather(P, rows, cols)
            out.append(_loop_block(loop[j], step[j]) - cj[:, None] * R * c[None, :]
                       - c[:, None] * R * cj[None, :] + c[:, None] * PR * c[None, :])
        return out

    def solve(self, trace, load=None) -> "FieldSolution":
        """Dirichlet solve: boundary values `trace`, nodal right-hand side
        `load` of shape (n_nodes,) (zero when omitted) tested against the
        interior hats.

        The right-hand side is load - (A u0)_I with u0 the trace on the
        boundary and 0 inside.  The interior block is solved through
        `_mode_solve` on a mesh with a node grid and through SuperLU on any
        other mesh.  Either way the residual of A u (`_apply`: from the
        couplings on a grid, from the assembled matrix on any other mesh)
        must be at most 1e-8, or SolverError is raised."""
        f = np.asarray(trace, dtype=complex)
        if f.shape != self.boundary.shape:
            raise ValueError("trace length does not match the boundary node count")
        if load is not None:
            load = np.asarray(load)
            if load.shape != (self.mesh.n_nodes,):
                raise ValueError("load length does not match the node count")
        u = np.zeros(self.mesh.n_nodes, dtype=complex)
        u[self.boundary] = f
        rhs = -self._apply(u)[self.interior]
        if load is not None:
            rhs += load[self.interior]
        u[self.interior] = self.lu.solve(rhs) if self.mesh.grid is None else self._mode_solve(rhs)
        sol = FieldSolution(mesh=self.mesh, values=u, trace=f)
        res = self.residual(sol, load)
        if not res <= 1e-8:                  # NaN fails every comparison
            raise SolverError(
                f"interior residual {res:.3e} exceeds tolerance; system may be "
                "ill-conditioned (check the ellipticity bound)")
        return sol

    def _apply(self, u: np.ndarray) -> np.ndarray:
        """A u: from the couplings (`_grid_apply`) on a mesh with a node
        grid, from the assembled matrix on any other mesh."""
        return self.matrix @ u if self.mesh.grid is None else _grid_apply(self.mesh, self.adm, u)

    @functools.cached_property
    def _matrix_scale(self) -> float:
        """Largest stiffness entry in modulus, formed once like `lu`; on a
        mesh with a node grid, the largest combined coupling."""
        parts = ((self.matrix.data,) if self.mesh.grid is None
                 else (_combine(self.adm, x) for x in _grid_couplings(self.mesh)))
        return max(max(np.abs(x).max() for x in parts), 1e-300)

    def residual(self, u: "FieldSolution", load=None) -> float:
        """Largest interior entry of A u - load, relative to the size of the
        field, the load and the matrix."""
        r = self._apply(u.values)
        size = np.abs(u.values).max()
        if load is not None:
            r -= load
            size = max(size, np.abs(load).max())
        scale = max(size, 1e-300) * self._matrix_scale
        return float(np.abs(r[self.interior]).max() / scale)

    def boundary_flux(self, u: "FieldSolution") -> np.ndarray:
        """Boundary residual of a solved field: its discrete conormal flux,
        which is the DtN map applied to the field's trace."""
        return self._apply(u.values)[self.boundary]


def assemble(mesh: Mesh, adm: Admittivity) -> FemSystem:
    """Stiffness system for the given mesh and admittivity."""
    return FemSystem(mesh, adm)


def boundary_trace(mesh: Mesh, fn) -> np.ndarray:
    """Trace vector (in boundary order) of a callable fn(x, y)."""
    pts = mesh.nodes[mesh.boundary_nodes]
    return np.asarray(fn(pts[:, 0], pts[:, 1]), dtype=complex)


def solve_dirichlet(mesh: Mesh, adm: Admittivity, f, system: FemSystem | None = None):
    """Solve the Dirichlet problem; `f` is a trace vector or a callable."""
    sys_ = system if system is not None else assemble(mesh, adm)
    trace = boundary_trace(mesh, f) if callable(f) else np.asarray(f, dtype=complex)
    return sys_.solve(trace)


def solve_real_system(mesh: Mesh, adm: Admittivity, f) -> "FieldSolution":
    """Solve the equivalent 2x2 real system for (Re u, Im u).

    The real part satisfies div(sigma grad u1 - eps grad u2) = 0 and the
    imaginary part div(eps grad u1 + sigma grad u2) = 0, which is the block
    system [[Ks, -Ke], [Ke, Ks]] on stacked real unknowns.
    """
    parts = region_stiffness(mesh)
    Ks = sum(adm.value_for(lbl).real * K for lbl, K in parts.items())
    Ke = sum(adm.value_for(lbl).imag * K for lbl, K in parts.items())
    import scipy.sparse as sp
    A = sp.bmat([[Ks, -Ke], [Ke, Ks]], format="csr")

    n, bnodes, inodes = mesh.n_nodes, mesh.boundary_nodes, mesh.interior_nodes()
    trace = boundary_trace(mesh, f) if callable(f) else np.asarray(f, dtype=complex)
    bdof = np.concatenate([bnodes, bnodes + n])
    bval = np.concatenate([trace.real, trace.imag])
    idof = np.concatenate([inodes, inodes + n])

    u = np.zeros(2 * n)
    u[bdof] = bval
    rhs = -(A[np.ix_(idof, bdof)] @ bval)
    u[idof] = splu(A[np.ix_(idof, idof)].tocsc()).solve(rhs)
    return FieldSolution(mesh=mesh, values=u[:n] + 1j * u[n:], trace=trace)


def coefficient_tensor(gamma: complex) -> np.ndarray:
    """Rank-4 coefficient c[l, j, h, k] of the equivalent real system."""
    sigma, eps = complex(gamma).real, complex(gamma).imag
    # sigma d_hk d_lj - eps d_hk J_lj, with J the rotation [[0, 1], [-1, 0]]
    block = sigma * np.eye(2) - eps * np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.einsum("hk,lj->ljhk", np.eye(2), block)


def elasticity_quadratic_form(gamma: complex, xi: np.ndarray) -> float:
    """Quadratic form c_{lj}^{hk} xi^l_h xi^j_k for a 2x2 real matrix xi."""
    c = coefficient_tensor(gamma)
    return float(np.einsum("ljhk,lh,jk->", c, xi, xi))


@dataclass
class FieldSolution:
    """Complex nodal field over a mesh plus the data that produced it."""

    mesh: Mesh
    values: np.ndarray
    trace: np.ndarray | None = None
    _grads: np.ndarray | None = field(default=None, repr=False)

    def gradients(self) -> np.ndarray:
        """Per-triangle constant gradient, shape (nt, 2), complex."""
        if self._grads is None:
            _, grads = _p1_grads(self.mesh)
            vals = self.values[self.mesh.triangles]      # (nt, 3)
            self._grads = np.einsum("ti,tid->td", vals, grads)
        return self._grads

    def values_in(self, points: np.ndarray, tri: np.ndarray) -> np.ndarray:
        """P1 values at `points`, point i lying in triangle tri[i]."""
        first = self.mesh.triangles[tri, 0]
        step = ((points - self.mesh.nodes[first]) * self.gradients()[tri]).sum(axis=1)
        return self.values[first] + step

    def _locate(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Containing triangle and barycentric coordinates for each point.

        The triangle is the one whose smallest barycentric is largest, the
        lowest index among ties; a point it holds only with a barycentric
        below -1e-9, or a point that is not finite, is outside the mesh.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        origin, cell, shape, table = _tri_bins(self.mesh)
        ij = np.floor((pts - origin) / cell)
        # false off the grid, and for a coordinate that is NaN or infinite
        if not np.all((ij >= 0) & (ij < shape)):
            raise GeometryError("point outside the meshed domain")
        ij = ij.astype(np.int64)
        cand = table[ij[:, 0] * shape[1] + ij[:, 1]]       # (n, fullest cell)
        tri = np.maximum(cand, 0)
        # signed-area barycentric against the candidates of each point's cell
        tp = self.mesh.nodes[self.mesh.triangles[tri]]
        x0, y0 = tp[..., 0, 0], tp[..., 0, 1]
        e1 = tp[..., 1, :] - tp[..., 0, :]
        e2 = tp[..., 2, :] - tp[..., 0, :]
        det = 2.0 * self.mesh.areas()[tri]
        dx = pts[:, None, 0] - x0
        dy = pts[:, None, 1] - y0
        l1 = (dx * e2[..., 1] - dy * e2[..., 0]) / det
        l2 = (dy * e1[..., 0] - dx * e1[..., 1]) / det
        l0 = 1.0 - l1 - l2
        viol = np.where(cand >= 0, np.minimum(np.minimum(l0, l1), l2), -np.inf)
        best = viol.argmax(axis=1)
        rows = np.arange(len(pts))
        if np.any(viol[rows, best] < -1e-9):
            raise GeometryError("point outside the meshed domain")
        bary = np.stack([l0[rows, best], l1[rows, best], l2[rows, best]], axis=1)
        return cand[rows, best], np.clip(bary, 0.0, 1.0)

    def interpolate(self, points) -> np.ndarray:
        tri_idx, bary = self._locate(points)
        vals = self.values[self.mesh.triangles[tri_idx]]
        out = np.einsum("pi,pi->p", bary, vals)
        return out[0] if np.ndim(points) == 1 else out

    def gradient_at(self, points) -> np.ndarray:
        tri_idx, _ = self._locate(points)
        g = self.gradients()[tri_idx]
        return g[0] if np.ndim(points) == 1 else g

    def table(self) -> tuple[tuple[str, ...], list[tuple]]:
        """Header and one row `node_index, x, y, re_u, im_u` per node."""
        rows = [(i, float(x), float(y), v.real, v.imag)
                for i, ((x, y), v) in enumerate(zip(self.mesh.nodes, self.values))]
        return ("node_index", "x", "y", "re_u", "im_u"), rows


def field_from_function(mesh: Mesh, fn) -> FieldSolution:
    """Nodal interpolant of a callable fn(x, y) (vectorized)."""
    vals = np.asarray(fn(mesh.nodes[:, 0], mesh.nodes[:, 1]), dtype=complex)
    return FieldSolution(mesh=mesh, values=vals, trace=vals[mesh.boundary_nodes])


def caccioppoli_ratio(u: FieldSolution, x0, rho: float, R: float,
                      depth: int = 8) -> float:
    """(R - rho)^2 * grad energy on B_rho / function energy on B_R.

    Both balls must sit inside the meshed domain and rho < R.  For a field
    that solves the equation on B_R the ratio is bounded by a constant that
    depends only on the ellipticity bound; the suite records the empirical
    maximum.  Returns 0 for the identically-zero field.
    """
    if not rho < R:
        raise ValueError(f"need rho < R, got rho={rho}, R={R}")
    c = np.asarray(x0, dtype=float)
    if not u.mesh.contains_ball(c, R):
        raise GeometryError(f"ball of radius {R} at {tuple(c.tolist())} leaves the domain")

    tp = u.mesh.tri_points()
    # quick reject: triangles that cannot meet B_R
    near = np.linalg.norm(u.mesh.centroids() - c[None, :], axis=1) <= R + 2.5 * u.mesh.h
    grad_density = (np.abs(u.gradients()[near]) ** 2).sum(axis=1)
    num = float(clipped_quadrature(tp[near], lambda points, parents: grad_density[parents],
                                   c, rho, inside=True, depth=depth))
    tri_sel = np.nonzero(near)[0]
    den = float(clipped_quadrature(
        tp[near], lambda points, parents: np.abs(u.values_in(points, tri_sel[parents])) ** 2,
        c, R, inside=True, depth=depth))
    if den == 0.0:
        return 0.0
    return (R - rho) ** 2 * num / den
