"""Discrete Dirichlet-to-Neumann maps and fractional boundary norms.

The DtN matrix is the Schur complement of the complex-symmetric stiffness
onto the boundary nodes, taken in the counterclockwise trace ordering; entry
(p, q) is the energy pairing of the hat trace at q against the hat trace at
p.  Fractional Sobolev norms on the boundary come from the generalized
eigenpairs of the 1D boundary mass/stiffness pencil: W_s = M V (I + D)^s V^T M
with B V = M V D, so W_0 = M and W_1 = M + B.

The Schur complement is `FemSystem.schur`, which owns both solver back ends
and forms only the full map; the map of an arc is its principal block on the
arc's interior nodes, with M and B sliced alike.

The operator norm of a DtN difference is the largest singular value of
L^{-1} Delta L^{-T} for the Cholesky factor W_{1/2} = L L^T, which realizes
the sup of |<Delta f, conj(psi)>| over unit fractional-norm trace vectors.

On the bottom arc of a `generate_mesh` grid (the arc of `arc: bottom`) the
map, M, B and W_{1/2} are all diagonal in the orthonormal type-I sine basis
along the bottom row, so a sweep takes them as n mode values: the map's from
`forward.bottom_modes` and the Gram's from `bottom_gram`.  The operator norm
of a difference is then max_k |Delta lam_k| / w_k, with no dense map, Gram
eigendecomposition, Cholesky factor or SVD.  Every other arc or mesh takes
the dense path, which is also the tests' oracle for the mode path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .forward import Admittivity, FemSystem, _sine_modes, assemble, bottom_modes
from .geometry import Mesh

__all__ = [
    "DtNMap",
    "boundary_operators",
    "dtn_matrix",
    "bottom_gram",
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
    positions: tuple | None = None   # the arc's interior positions; None: whole loop

    def gram_half(self) -> np.ndarray:
        return _gram_and_chol(self.mesh, self.positions)[0]


def boundary_operators(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Mass and 1D Laplace-Beltrami stiffness on the closed boundary loop."""
    pts = mesh.nodes[mesh.boundary_nodes]
    ell = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)   # edge i -> i+1
    i = np.arange(len(ell))
    j = np.roll(i, -1)
    # node i closes edge i-1 and opens edge i, which joins it to node j
    M = np.diag(ell[i - 1] / 3.0 + ell / 3.0)
    B = np.diag(1.0 / ell[i - 1] + 1.0 / ell)
    M[i, j] = M[j, i] = ell / 6.0
    B[i, j] = B[j, i] = -(1.0 / ell)
    return M, B


def _arc_interior(mesh: Mesh, arc) -> np.ndarray | None:
    """Interior positions of a valid `arc` (see `dtn_matrix`); None for None."""
    if arc is None:
        return None
    nb = len(mesh.boundary_nodes)
    arc = np.asarray(arc, dtype=int)
    if arc.ndim != 1 or len(arc) == 0:
        raise ValueError("arc must be a nonempty 1D index array")
    if np.any((arc < -nb) | (arc >= nb)):
        raise ValueError(f"arc positions must lie in [-{nb}, {nb})")
    steps = np.mod(np.diff(arc), nb)
    if np.any(steps != 1):
        raise ValueError("arc positions must be contiguous in the cyclic trace order")
    positions = arc[1:-1]
    if len(positions) == 0:
        raise ValueError("arc has no interior nodes")
    if len(positions) > nb:
        raise ValueError("arc laps the boundary loop and repeats a position")
    return positions


def dtn_matrix(mesh: Mesh, adm: Admittivity, arc=None) -> DtNMap:
    """Schur complement of the stiffness onto the boundary trace basis.

    With `arc` (contiguous positions in the cyclic trace order, each in
    [-nb, nb) for nb boundary nodes; a negative one counts from the end) the
    result is the full map's principal block on the arc's interior nodes,
    with M and B restricted alike, so its Gram encodes traces supported on
    the arc.  The full map is formed either way.
    """
    positions = _arc_interior(mesh, arc)
    matrix = assemble(mesh, adm).schur()
    M, B = boundary_operators(mesh)
    key = None
    if positions is not None:
        sub = np.ix_(positions, positions)
        matrix, M, B = matrix[sub], M[sub], B[sub]
        key = tuple(positions.tolist())
    return DtNMap(matrix=matrix, mass=M, stiffness=B, mesh=mesh, positions=key)


def bottom_gram(mesh: Mesh) -> np.ndarray:
    """Sine modes w_k of the order-1/2 Gram of the bottom arc of a mesh with a
    node grid (the arc of `forward.bottom_modes`).

    The arc's M and B are tridiagonal Toeplitz, so the sine transform S
    diagonalizes both, with modes mu_M and mu_B; the pencil's eigenvectors
    are then the columns of S / mu_M^{1/2} and W_{1/2} = S diag(w) S with
    w_k = mu_M (1 + mu_B / mu_M)^{1/2}.  Both are read from the two boundary
    edges at the arc's first interior node.
    """
    pts = mesh.nodes[mesh.boundary_nodes[:3]]
    ell = np.linalg.norm(pts[1:] - pts[:-1], axis=1)     # edges 0 -> 1 and 1 -> 2
    n = mesh.grid.shape[1] - 2
    mass = _sine_modes(ell[0] / 3.0 + ell[1] / 3.0, ell[1] / 6.0, n)
    stiff = _sine_modes(1.0 / ell[0] + 1.0 / ell[1], -(1.0 / ell[1]), n)
    return mass * np.sqrt(1.0 + stiff / mass)


def _sweep_maps(mesh: Mesh, arc=None):
    """The map of an admittivity on `arc` (as in `dtn_matrix`), and the
    operator norm of a difference of two such maps: a pair of functions.

    When the arc is the bottom row of a mesh with a node grid, corner to
    corner, a map is its n sine-mode values (`forward.bottom_modes`).  Its
    Gram has the modes `bottom_gram` in the same basis, so the norm of a
    difference is max_k |delta_k| / w_k, with no dense matrix.  Any other arc
    or mesh takes the dense map and the norm of `operator_norm`, whitened by
    the Cholesky factor that `_gram_and_chol` keeps.
    """
    positions = _arc_interior(mesh, arc)
    grid = mesh.grid
    if (positions is not None and grid is not None
            and np.array_equal(mesh.boundary_nodes[positions], grid[0, 1:-1])):
        w = bottom_gram(mesh)
        return (lambda adm: bottom_modes(mesh, adm)), \
            (lambda delta: float(np.abs(delta / w).max()))
    import scipy.linalg as sla
    key = None if positions is None else tuple(positions.tolist())
    return (lambda adm: dtn_matrix(mesh, adm, arc=arc).matrix), \
        (lambda delta: float(sla.svdvals(_whiten(_gram_and_chol(mesh, key)[1], delta))[0]))


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
    import scipy.linalg as sla
    try:
        d, V = sla.eigh(B, M)
    except sla.LinAlgError as exc:   # pragma: no cover - guarded by SPD mass
        raise RuntimeError(f"boundary eigenproblem failed: {exc}") from exc
    d = np.maximum(d, 0.0)           # B is PSD; clip eigen roundoff
    core = V @ np.diag((1.0 + d) ** s) @ V.T
    W = M @ core @ M
    return 0.5 * (W + W.T)


def _gram_and_chol(mesh: Mesh, positions=None) -> tuple[np.ndarray, np.ndarray]:
    """Order-1/2 Gram of the whole boundary loop, or of the arc interior
    `positions` (a tuple), and its lower Cholesky factor: formed once per
    mesh and arc, and read-only."""
    key = ("gram_and_chol", positions)
    if key not in mesh._cache:
        M, B = boundary_operators(mesh)
        if positions is not None:
            sub = np.ix_(positions, positions)
            M, B = M[sub], B[sub]
        W = h_half_gram(M, B, 0.5)
        import scipy.linalg as sla
        L = sla.cholesky(W, lower=True)
        W.flags.writeable = L.flags.writeable = False
        mesh._cache[key] = W, L
    return mesh._cache[key]


def _whiten(L: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """L^{-1} Z L^{-T} for a lower-triangular L."""
    import scipy.linalg as sla
    t = sla.solve_triangular(L, Z, lower=True)
    return sla.solve_triangular(L, t.T, lower=True).T


def operator_norm(delta: np.ndarray, W_half: np.ndarray) -> float:
    """Largest singular value of L^{-1} delta L^{-T}, W_half = L L^T."""
    import scipy.linalg as sla
    try:
        L = sla.cholesky(W_half, lower=True)
    except sla.LinAlgError as exc:
        raise ValueError("fractional Gram matrix is not positive definite") from exc
    return float(sla.svdvals(_whiten(L, delta))[0])
