"""Singular solutions with prescribed point sources, probe integrals, and the
interior/boundary energy identity.

A singular solution is the two-phase kernel of the interface nearest the
source plus a finite-energy corrector: G(., y) = Gamma_l(., y) + w(., y).
The corrector solves

    div(gamma grad w) = -div(gtilde grad Gamma_l),   w = -Gamma_l on the
    outer boundary,

where gtilde is the coefficient minus its two-phase approximation, so the
right-hand side vanishes identically on the two strips adjacent to the
source and all integrands are smooth where they matter.  The weak defining
property  sum gamma grad G . grad phi = phi(y)  is testable with a plateau
bump and is exercised in the tests.

The corrector load b_i = -sum_T gtilde_T int_T grad Gamma_l . grad phi_i is
formed from line integrals on the edges where gtilde jumps.  gtilde is
constant on each triangle, and wherever it is nonzero Gamma_l is harmonic:
the source's strip and the other strip next to interface l both carry
gtilde = 0, and every other strip lies in one half-plane of interface l.
Green's first identity on each triangle, summed over the mesh, then gives

    b_i = -sum_e (gtilde_T - gtilde_T') int_e phi_i grad Gamma_l . n_T ds

exactly, over the edges e between triangles T and T' (n_T the outward
normal of T).  Edges inside one strip cancel, and outer-boundary edges meet
only Dirichlet rows, so only edges on a coefficient jump remain.  A mesh
without a partition uses the uniform kernel of region 1 everywhere; where
its source sits in a triangle with gtilde != 0, the identity leaves the
point mass of the kernel as one more term.

Probe integrals S_k pair the gradients of two singular solutions (bilinear,
no conjugation) over the region A of the unexplored strips above depth k.
With d = (gamma1 - gamma2) 1_A, constant on each triangle,

    S_k = sum_T d_T int_T grad G1 . grad G2,   G = Gamma + w.

Neither source lies in A: `region_of_point` resolves ties upward, so a
source on the bottom of A counts as inside and is rejected.  Gamma1 is then
harmonic on each strip of A (its interface is at most A's bottom edge, where
it takes the branch from A's side), and G2 is continuous, so Green's first
identity on each triangle, summed as for the corrector load, gives

    sum_T d_T int_T grad Gamma1 . grad G2 = sum_e J_e int_e G2 grad Gamma1 . n ds

over the half-edges where d jumps, J_e = d_T - d_T', with the outside of the
mesh counted as d = 0: on the outer boundary G2 = Gamma2 - I_h Gamma2 is
not 0.  On an edge G2 is Gamma2 plus w2 interpolated linearly between the
edge's nodes, so no point location is needed.  grad w1 is constant on each
triangle and w1 = sum_i w1_i phi_i, so the rest is w1 . f with

    f_i = sum_T d_T int_T grad phi_i . grad G2
        = sum_e J_e int_e phi_i grad Gamma2 . n ds + sum_T d_T |T| grad phi_i . grad w2,

by the same identity for Gamma2.  Both edge integrals take the 4-point
Gauss-Legendre panels of `_edge_rule`, which the corrector load uses too.
The fixed source forms f and its weights J_e w_q G2(x_q) n_e on the points
of its own rule once per depth and admittivity; a moving source pairs its
kernel gradient with them and forms the weights again only on the edges
that its own rule refines further, the nearer source setting the panels.

A moving source's corrector then enters S_k only through w1 . f.  On the
boundary nodes B it is the trace t = -Gamma1; on the interior nodes I it
solves A_II w1_I = b_I - A_IB t, with b its load and A the stiffness of
gamma1, which is complex symmetric.  With the adjoint field zeta (zeta_B = 0,
A_II zeta_I = f_I) and g = f_B - (A zeta)_B, reciprocity gives

    w1 . f = f_B . t + zeta_I . (b_I - A_IB t) = g . t + zeta . b,

so `s_k_on_grid` solves once, for zeta, and each moving source costs its
trace, its load and its kernel gradient on the edges, with no solve of its
own.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .dtn import apply_dtn
from .forward import (Admittivity, FieldSolution, _grid_apply, _p1_grads, assemble,
                      solve_dirichlet)
from .fundsol import TwoPhaseCoeffs, laplace_gamma, laplace_gamma_grad, \
    two_phase_gamma, two_phase_gamma_grad
from .geometry import GeometryError, Mesh, Partition, Rect, Region, generate_mesh
from .quadrature import clipped_quadrature

__all__ = [
    "PlacementError",
    "MeshMismatchError",
    "SingularSolution",
    "CorrectorSolver",
    "default_link",
    "green_correction",
    "asymptotics_check",
    "AsymptoticsRow",
    "s_k_evaluate",
    "s_k_on_grid",
    "probe_field_residual",
    "alessandrini_pair",
    "half_space_probe_integral",
    "half_space_probe_rate",
]


class PlacementError(ValueError):
    """Source point violates the placement rules for singular solutions."""


class MeshMismatchError(ValueError):
    """Operands built over different meshes."""


def default_link(p: Partition, y) -> int:
    """Index of the nearest interface carrying a genuine region pair."""
    yy = float(y[1])
    best, dist = None, math.inf
    for s in p.interfaces:
        if s.below is None:
            continue
        d = abs(yy - s.y)
        if d < dist:
            best, dist = s.index, d
    if best is None:
        raise PlacementError("partition has no interface with regions on both sides")
    return best


@dataclass
class SingularSolution:
    """Evaluator for G = Gamma_l + w and its gradient."""

    y: np.ndarray
    coeffs: TwoPhaseCoeffs            # equal values: uniform medium around the source
    iface_y: float
    w: FieldSolution
    mesh: Mesh
    adm: Admittivity
    _probe: dict = field(default_factory=dict, repr=False)    # see _probe_weight

    def _local(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = np.atleast_2d(np.asarray(points, dtype=float)).copy()
        pts[:, 1] -= self.iface_y
        ysrc = np.array([self.y[0], self.y[1] - self.iface_y])
        return pts, ysrc

    def kernel(self, points) -> np.ndarray:
        """Two-phase kernel part Gamma_l(points, y)."""
        pts, ysrc = self._local(points)
        vals = two_phase_gamma(pts, ysrc, self.coeffs, n=2)
        return vals if np.ndim(points) > 1 else vals[0]

    def kernel_grad(self, points) -> np.ndarray:
        pts, ysrc = self._local(points)
        g = two_phase_gamma_grad(pts, ysrc, self.coeffs, n=2)
        return g if np.ndim(points) > 1 else g[0]

    def evaluate(self, points) -> np.ndarray:
        return self.kernel(points) + self.w.interpolate(points)

    def gradient(self, points) -> np.ndarray:
        return self.kernel_grad(points) + self.w.gradient_at(points)

    def h1_energy_excluding_ball(self, r: float, depth: int = 6) -> float:
        """Squared H1 norm of G over the domain minus the ball B_r(y)."""
        w_grads = self.w.gradients()

        def density(points, parents):
            gk = self.kernel_grad(points)
            vk = self.kernel(points)
            gw = w_grads[parents]
            vw = self.w.values_in(points, parents)
            grad2 = np.abs(gk + gw) ** 2
            return grad2.sum(axis=1) + np.abs(vk + vw) ** 2

        total = clipped_quadrature(self.mesh.tri_points(), density, self.y, r,
                                   inside=False, depth=depth)
        return float(np.sqrt(np.real(total)))


# 4-point Gauss-Legendre rule on [0, 1] for the corrector's edge integrals
_EDGE_T, _EDGE_W = np.polynomial.legendre.leggauss(4)
_EDGE_T, _EDGE_W = (_EDGE_T + 1.0) / 2.0, _EDGE_W / 2.0


def _jump_edges(mesh: Mesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Half-edges where a coefficient that is constant on each region, and 0
    outside the mesh, may jump; found once per mesh.

    Returns the node pairs (m, 2), ordered as in the counterclockwise
    triangle `inner` (m,), and the triangle `outer` (m,) across each edge:
    first the edges between triangles of different regions, then the
    outer-boundary edges, whose `outer` is -1.  On a `generate_mesh` mesh the
    first are the edges of `interface_edges` away from the outer boundary.
    """
    if "jump_edges" not in mesh._cache:
        tris = mesh.triangles
        a, b = tris.ravel(), tris[:, [1, 2, 0]].ravel()
        key = np.minimum(a, b) * mesh.n_nodes + np.maximum(a, b)
        order = np.argsort(key, kind="stable")
        twin = np.flatnonzero(key[order][1:] == key[order][:-1])
        first, second = order[twin], order[twin + 1]       # one edge seen twice
        once = np.ones(len(key), dtype=bool)
        once[first] = once[second] = False
        inner, outer = first // 3, second // 3
        jump = mesh.tri_region[inner] != mesh.tri_region[outer]
        first = np.concatenate([first[jump], np.flatnonzero(once)])
        edges = np.column_stack([a[first], b[first]])
        outer = np.concatenate([outer[jump], np.full(len(first) - jump.sum(), -1)])
        mesh._cache["jump_edges"] = (edges, first // 3, outer)
    return mesh._cache["jump_edges"]


def _edge_jumps(mesh: Mesh, values: np.ndarray):
    """The half-edges of `_jump_edges` where `values`, one per triangle and
    0 outside the mesh, jumps: their node pairs, their jumps inner - outer
    and their `outer` triangles (-1 on the outer boundary)."""
    edges, inner, outer = _jump_edges(mesh)
    padded = np.append(values, 0)               # outer == -1: the outside
    jump = padded[inner] - padded[outer]
    on = jump != 0
    return edges[on], jump[on], outer[on]


def _point_mass(mesh: Mesh, y: np.ndarray, gtilde: np.ndarray) -> np.ndarray:
    """sum_T gtilde_T theta_T phi_i(y) over the triangles T whose closure
    holds y, with theta_T the fraction of a small disk about y inside T."""
    pts = mesh.tri_points()
    area2 = 2.0 * mesh.areas()
    lam = np.stack([((pts[:, j] - y) * (pts[:, k] - y)[:, ::-1]).dot([1.0, -1.0])
                    for j, k in ((1, 2), (2, 0), (0, 1))], axis=1) / area2[:, None]
    tol = 1e-12
    out = np.zeros(mesh.n_nodes, dtype=complex)
    for t in np.flatnonzero((lam >= -tol).all(axis=1) & (gtilde != 0)):
        zero = np.abs(lam[t]) <= tol
        if zero.sum() == 2:         # y is a vertex: the triangle's angle there
            v = np.flatnonzero(~zero)[0]
            e1, e2 = pts[t, (v + 1) % 3] - y, pts[t, (v + 2) % 3] - y
            theta = math.acos(np.clip(e1 @ e2 / np.hypot(*e1) / np.hypot(*e2),
                                      -1.0, 1.0)) / (2.0 * math.pi)
        else:                       # inside, or on an edge
            theta = 0.5 ** zero.sum()
        np.add.at(out, mesh.triangles[t], gtilde[t] * theta * lam[t])
    return out


def _near(ends: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A lower bound on the distance of each edge (m, 2, 2) from y."""
    a, d = ends[:, 0], ends[:, 1] - ends[:, 0]
    return np.hypot(*(a + d / 2 - y).T) - np.hypot(d[:, 0], d[:, 1]) / 2


def _graded_breaks(foot: float, dist: float) -> np.ndarray:
    """Panel ends on [0, 1] graded toward `foot`, for a source `dist` from
    it (both in units of the edge length).  Panels are dist/4 long out to
    dist from the foot, then each a quarter of its start's offset long.  A
    source on the edge itself, which a mesh without a partition allows,
    counts as 1e-12 away."""
    dist = max(dist, 1e-12)

    def side(extent):
        n = math.ceil(math.log(extent / dist) / math.log(1.25)) if extent > dist else 0
        offsets = np.concatenate([np.arange(4) * (dist / 4), dist * 1.25 ** np.arange(n)])
        return np.append(offsets[offsets < extent], extent)

    left, right = side(foot), side(1.0 - foot)
    return np.concatenate([foot - left[::-1], foot + right[1:]])


def _edge_rule(ends: np.ndarray, y: np.ndarray):
    """Panels of the 4-point Gauss-Legendre rule on each edge (m, 2, 2) for
    an integrand singular at the source y.

    An edge of length L whose distance from y has a lower bound d >= L/16
    takes ceil(4 L / d) equal panels, so an edge at least 4 L away is one
    panel.  A nearer edge is graded toward y's foot point on it
    (`_graded_breaks`): O(log(L / d)) panels, each at most a quarter of its
    distance from y long.  Returns the edge of each panel (np,), its points'
    positions on [0, 1] along the edge (np, 4), the divisor of their
    weights _EDGE_W / div (np,) and the points themselves (np * 4, 2).  The
    equal panels divide by their count, as the corrector load always has,
    so its loads stay bit for bit where no edge is graded.
    """
    a, d = ends[:, 0], ends[:, 1] - ends[:, 0]
    length = np.hypot(d[:, 0], d[:, 1])
    near = _near(ends, y)
    graded = near < 4 * length / 64
    panels = np.ceil(4 * length / np.maximum(near, 4 * length / 64)).astype(int)
    panels[graded] = 0
    e = np.repeat(np.arange(len(ends)), panels)                 # edge of each panel
    j = np.arange(len(e)) - np.repeat(np.cumsum(panels) - panels, panels)
    t = (j[:, None] + _EDGE_T) / panels[e, None]                # (np, 4) on [0, 1]
    div = panels[e].astype(float)
    if np.any(graded):
        es, ts, divs = [e], [t], [div]
        for i in np.flatnonzero(graded):
            foot = np.clip((y - a[i]) @ d[i] / length[i] ** 2, 0.0, 1.0)
            breaks = _graded_breaks(foot, np.hypot(*(a[i] + foot * d[i] - y)) / length[i])
            width = np.diff(breaks)
            es.append(np.full(len(width), i))
            ts.append(breaks[:-1, None] + _EDGE_T * width[:, None])
            divs.append(1.0 / width)
        e, t, div = np.concatenate(es), np.concatenate(ts), np.concatenate(divs)
    return e, t, div, (a[e, None] + t[..., None] * d[e, None]).reshape(-1, 2)


def _edge_flux(sol: SingularSolution, ends: np.ndarray, jump: np.ndarray) -> np.ndarray:
    """jump_e int_e phi grad Gamma_l . n ds for the hats phi of both ends of
    each edge (m, 2, 2), n the normal to the right of the edge; shape (m, 2).
    The panels are those of `_edge_rule` for the source of `sol`.
    """
    e, t, div, points = _edge_rule(ends, sol.y)
    d = ends[:, 1] - ends[:, 0]
    gk = sol.kernel_grad(points)
    normal = np.column_stack([d[:, 1], -d[:, 0]])[e]            # |e| long
    flux = (jump[e, None] * _EDGE_W / div[:, None]
            * np.einsum("pqd,pd->pq", gk.reshape(-1, 4, 2), normal))
    out = np.zeros((len(ends), 2), dtype=complex)
    np.add.at(out, e, np.column_stack([(flux * (1.0 - t)).sum(1), (flux * t).sum(1)]))
    return out


class CorrectorSolver:
    """Holds one admittivity's system, whose interior factors are formed
    once, and serves many source points."""

    def __init__(self, mesh: Mesh, adm: Admittivity):
        self.mesh = mesh
        self.adm = adm
        self.system = assemble(mesh, adm)
        self._links = {}        # (iface_y, coeffs) -> `_link_terms`

    def _check_placement(self, y: np.ndarray) -> None:
        mesh = self.mesh
        if np.min(np.linalg.norm(mesh.nodes - y[None, :], axis=1)) < 1e-10:
            raise PlacementError("source must not coincide with a mesh node")
        p = mesh.partition
        if p is None:
            return
        for s in p.interfaces:
            if abs(y[1] - s.y) < 1e-12:
                raise PlacementError(f"source lies on interface {s.index}")
        if not p.chain_set_contains(y):
            raise PlacementError(f"source {tuple(y.tolist())} lies outside the probe set K")

    def correction(self, y, link: int | None = None,
                   check_placement: bool = True) -> SingularSolution:
        """Singular solution G = Gamma_l + w for the source y.

        The corrector load is a sum of 4-point Gauss-Legendre line integrals
        on the edges where gtilde jumps (see the module docstring), so its
        kernel gradients are taken on those edges only.  A source that is not
        finite or lies outside the meshed domain raises PlacementError even
        with `check_placement=False`, which relaxes only the node, interface
        and probe-set rules.  So does a `link` on a mesh without a partition,
        whose kernel is the uniform one of region 1.
        """
        sol, trace, load = self._load(np.asarray(y, dtype=float), link, check_placement)
        sol.w = self.system.solve(trace, load=load)
        return sol

    def _load(self, y: np.ndarray, link: int | None, check_placement: bool):
        """The unsolved singular solution of `correction` (w is None), its
        corrector's boundary trace -Gamma_l(., y) and its nodal load."""
        mesh, adm = self.mesh, self.adm
        if not (np.all(np.isfinite(y)) and mesh.contains_ball(y, 0.0)):
            raise PlacementError(f"source {tuple(y.tolist())} is not a point of the "
                                 "meshed domain")
        if check_placement:
            self._check_placement(y)

        p = mesh.partition
        if p is None and link is not None:
            raise PlacementError(f"link={link} needs a strip partition, and the mesh "
                                 "has no partition")
        if p is None or (link is None and adm.n == 1 and not (p and p.with_extension)):
            # uniform single-region domain (e.g. the disk): the two-phase
            # kernel with equal values is the uniform kernel exactly
            region = 1 if p is None else p.region_of_point(y)
            gamma_y = adm.value_for(region)
            coeffs, iface_y = TwoPhaseCoeffs(gamma_y, gamma_y), 0.0
        else:
            if link is None:
                link = default_link(p, y)
            s = p.interface_by_index(link)
            if s.below is None:
                raise PlacementError(
                    f"interface {link} has no region below it; extend the domain")
            region_y = p.region_of_point(y)
            if region_y not in (s.below, s.above):
                raise PlacementError(
                    f"source region {region_y} is not adjacent to interface {link}")
            coeffs = TwoPhaseCoeffs(adm.value_for(s.above), adm.value_for(s.below))
            iface_y = s.y

        sol = SingularSolution(y=y, coeffs=coeffs, iface_y=iface_y,
                               w=None, mesh=mesh, adm=adm)

        gtilde, edges, jump = self._link_terms(iface_y, coeffs)
        b = np.zeros(mesh.n_nodes, dtype=complex)
        if len(edges):
            # b_i = -sum_e jump_e int_e phi_i grad Gamma_l . n ds
            np.add.at(b, edges, -_edge_flux(sol, mesh.nodes[edges], jump))
        if p is None and np.any(gtilde != 0):
            # -gamma_y lap Gamma_l is the point mass at y
            b -= _point_mass(mesh, y, gtilde) / coeffs.gamma_plus
        return sol, -sol.kernel(mesh.nodes[mesh.boundary_nodes]), b

    def _link_terms(self, iface_y: float, coeffs: TwoPhaseCoeffs):
        """gtilde, the coefficient minus its two-phase approximation, per
        triangle, and the edges where it jumps with their jumps.  They depend
        on the link alone, so each link's are formed once per solver."""
        key = (iface_y, coeffs)
        if key not in self._links:
            mesh = self.mesh
            approx = np.where(mesh.centroids()[:, 1] > iface_y,
                              coeffs.gamma_plus, coeffs.gamma_minus)
            gtilde = self.adm.element_values(mesh) - approx
            edges, jump, outer = _edge_jumps(mesh, gtilde)
            on = outer >= 0                     # boundary rows are Dirichlet
            self._links[key] = gtilde, edges[on], jump[on]
        return self._links[key]


def green_correction(mesh: Mesh, adm: Admittivity, y,
                     link: int | None = None) -> SingularSolution:
    """Singular solution G(., y) = Gamma_l(., y) + w for a source y in K."""
    return CorrectorSolver(mesh, adm).correction(y, link=link)


@dataclass(frozen=True)
class AsymptoticsRow:
    r: float
    deviation: float
    grad_deviation: float


def asymptotics_check(solver: CorrectorSolver, link: int, radii):
    """Deviation of G from its cross-interface limit profile at dyadic radii.

    For each radius r the source sits at P - r*nu below the interface and the
    evaluation point at P + r*nu above it (nu is the upward unit normal, P the
    interface point shifted sideways by 0.31 h off the mesh lines); the
    deviation is |G - c Gamma| with c = 2/(gamma_below + gamma_above), and the
    gradient deviation its gradient analogue.  Returns (rows, slope, verdict)
    where slope fits log(deviation) against log(r) and the verdict is
    "bounded" when no monotone blow-up is present (slope >= -0.1).
    """
    p = solver.mesh.partition
    if p is None:
        raise GeometryError("asymptotics requires a strip partition")
    s = p.interface_by_index(link)
    if s.below is None:
        raise PlacementError(f"interface {link} has no region below it")
    radii = np.asarray(sorted(radii, reverse=True), dtype=float)
    if np.any(radii >= p.r0 / 2) or np.any(radii <= 0):
        raise GeometryError(
            f"radii must lie in (0, r0/2) = (0, {p.r0 / 2}) so both probe "
            "points stay inside the strips adjacent to the interface")

    P = np.array([s.point[0] + 0.31 * solver.mesh.h, s.point[1]])
    c = 2.0 / (solver.adm.value_for(s.below) + solver.adm.value_for(s.above))

    rows = []
    for r in radii:
        ybar = P - np.array([0.0, r])
        xbar = P + np.array([0.0, r])
        g = solver.correction(ybar, link=link)
        dev = abs(g.evaluate(xbar[None, :])[0] - c * laplace_gamma(xbar, ybar, n=2))
        gdev = float(np.linalg.norm(
            g.gradient(xbar[None, :])[0] - c * laplace_gamma_grad(xbar, ybar, n=2)))
        rows.append(AsymptoticsRow(float(r), float(dev), gdev))

    devs = np.array([max(row.deviation, 1e-300) for row in rows])
    if np.all(devs <= 1e-14):
        slope = 0.0
    else:
        slope = float(np.polyfit(np.log(radii), np.log(devs), 1)[0])
    verdict = "bounded" if slope >= -0.1 else "blow-up"
    return rows, slope, verdict


def _u_labels(mesh: Mesh, k: int) -> set[int]:
    p = mesh.partition
    if p is None:
        raise GeometryError("probe integrals require a strip partition")
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise ValueError(f"chain depth k must be an integer, got {k!r}")
    if not 0 <= k <= p.n_strips:
        raise ValueError(f"chain depth k must lie in [0, {p.n_strips}]")
    return p.u_labels(k)


def _require_outside(p: Partition, labels: set[int], y: np.ndarray) -> None:
    if p.region_of_point(y) in labels:
        raise PlacementError("source lies inside the unexplored region")


@dataclass(frozen=True)
class _ProbeWeight:
    """The fixed source's part of S_k, on the edges (m, 2, 2) where
    d = diff 1_A jumps: their jumps J_e, its corrector's values at their
    ends, the points of its edge rule with their weight vectors
    J_e (_EDGE_W / div) G2(x_q) n_e and their edges, and the nodal vector f.
    A moving source whose distance bound from an edge is below `reach`, the
    smaller of the fixed source's bound and 4 L, refines that edge further
    and forms its weights again."""

    ends: np.ndarray
    jump: np.ndarray
    w_ends: np.ndarray
    reach: np.ndarray
    points: np.ndarray
    weight: np.ndarray
    edge: np.ndarray
    f: np.ndarray


def _pairing_weights(g2: SingularSolution, ends: np.ndarray, jump: np.ndarray,
                     w_ends: np.ndarray, y: np.ndarray):
    """Points of the edge rule for the source y, and the weights of g2 there
    (see `_ProbeWeight`), with G2 = Gamma2 + w2 and w2 linear on each edge."""
    e, t, div, points = _edge_rule(ends, y)
    d = ends[:, 1] - ends[:, 0]
    value = (g2.kernel(points).reshape(-1, 4)
             + (1.0 - t) * w_ends[e, :1] + t * w_ends[e, 1:])
    normal = np.column_stack([d[:, 1], -d[:, 0]])[e]            # |e| long
    weight = (jump[e, None] * _EDGE_W / div[:, None] * value)[..., None] * normal[:, None]
    return points, weight.reshape(-1, 2), np.repeat(e, 4)


def _probe_weight(g2: SingularSolution, adm1: Admittivity, k: int) -> _ProbeWeight | None:
    """g2's part of S_k against any solution of admittivity adm1 (see the
    module docstring); formed once per (k, adm1) and kept on g2.  None when
    diff = gamma1 - gamma2 vanishes above depth k."""
    key = (k, adm1)
    if key not in g2._probe:
        mesh = g2.mesh
        in_u = np.isin(mesh.tri_region, list(_u_labels(mesh, k)))
        diff = np.where(in_u, adm1.element_values(mesh) - g2.adm.element_values(mesh), 0)
        edges, jump, _ = _edge_jumps(mesh, diff)
        if not len(edges):
            g2._probe[key] = None
            return None
        ends, w_ends = mesh.nodes[edges], g2.w.values[edges]
        # f_i = sum_e J_e int_e phi_i grad Gamma2 . n ds + sum_T d_T |T| grad phi_i . grad w2
        f = np.zeros(mesh.n_nodes, dtype=complex)
        np.add.at(f, edges, _edge_flux(g2, ends, jump))
        tris = np.flatnonzero(diff)
        area, p1 = _p1_grads(mesh)
        np.add.at(f, mesh.triangles[tris],
                  (diff[tris] * area[tris])[:, None]
                  * np.einsum("tid,td->ti", p1[tris], g2.w.gradients()[tris]))
        points, weight, edge = _pairing_weights(g2, ends, jump, w_ends, g2.y)
        length = np.hypot(*(ends[:, 1] - ends[:, 0]).T)
        reach = np.minimum(_near(ends, g2.y), 4 * length)
        g2._probe[key] = _ProbeWeight(ends, jump, w_ends, reach, points, weight, edge, f)
    return g2._probe[key]


def _kernel_pairing(g1: SingularSolution, g2: SingularSolution,
                    probe: _ProbeWeight) -> complex:
    """sum_e J_e int_e G2 grad Gamma1 . n ds, bilinear, on the points of g2's
    edge rule, except on the edges that g1's own rule refines because its
    source is the nearer one: those are formed again for g1."""
    redo = _near(probe.ends, g1.y) < probe.reach
    if not np.any(redo):
        return complex(g1.kernel_grad(probe.points).ravel() @ probe.weight.ravel())
    keep = ~redo[probe.edge]
    points, weight, _ = _pairing_weights(g2, probe.ends[redo], probe.jump[redo],
                                         probe.w_ends[redo], g1.y)
    return complex(g1.kernel_grad(np.concatenate([probe.points[keep], points])).ravel()
                   @ np.concatenate([probe.weight[keep], weight]).ravel())


def s_k_evaluate(g1: SingularSolution, g2: SingularSolution, k: int) -> complex:
    """Probe integral over the unexplored strips above depth k.

    Bilinear pairing (no conjugation) of the coefficient difference with the
    two singular-solution gradients; both solutions must share one mesh and
    neither source may sit inside the integration region.  g2's part is its
    `_probe_weight`, so a call costs g1's kernel gradient on the edges where
    the difference jumps and a dot product (see the module docstring).
    """
    if g1.mesh is not g2.mesh:
        raise MeshMismatchError("probe operands live on different meshes")
    mesh = g1.mesh
    labels = _u_labels(mesh, k)
    for g in (g1, g2):
        _require_outside(mesh.partition, labels, g.y)

    probe = _probe_weight(g2, g1.adm, k)
    if probe is None:
        return 0.0 + 0.0j
    # bilinear, no conjugation
    return _kernel_pairing(g1, g2, probe) + complex(g1.w.values @ probe.f)


def s_k_on_grid(solver1: CorrectorSolver, solver2: CorrectorSolver, k: int,
                z, points, link2=None) -> np.ndarray:
    """S_k(y_i, z) for many probe points y_i, through one adjoint solve.

    `points` is an (n, 2) array.  The moving sources form no corrector: each
    costs its corrector's trace and load, paired with the adjoint field of
    z's weight (see the module docstring).  Grid points may land on the
    interface itself: the probe field extends continuously there (the
    kernel branches agree), so placement checks are relaxed for the moving
    source.  It must still be a point of the meshed domain outside the
    unexplored region.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"probe points must be an (n, 2) array, got shape {points.shape}")
    if solver1.mesh is not solver2.mesh:
        raise MeshMismatchError("probe operands live on different meshes")
    p, labels = solver1.mesh.partition, _u_labels(solver1.mesh, k)
    gz = solver2.correction(np.asarray(z, dtype=float), link=link2)
    _require_outside(p, labels, gz.y)
    probe = _probe_weight(gz, solver1.adm, k)
    if probe is not None:
        system = solver1.system
        zeta = system.solve(np.zeros(len(system.boundary), dtype=complex), load=probe.f)
        g = probe.f[system.boundary] - system.boundary_flux(zeta)
    out = np.zeros(len(points), dtype=complex)
    for i, y in enumerate(points):
        gy, trace, load = solver1._load(y, None, False)
        _require_outside(p, labels, gy.y)
        if probe is not None:
            # bilinear, no conjugation
            out[i] = _kernel_pairing(gy, gz, probe) + g @ trace + zeta.values @ load
    return out


def _box_partition(p: Partition, box: Rect) -> Partition:
    """Partition of a sub-box inheriting the strip labels it straddles."""
    regions = []
    interfaces = []
    for r in sorted(p.regions, key=lambda r: r.y0):
        lo, hi = max(r.y0, box.y0), min(r.y1, box.y1)
        if hi - lo > 1e-12:
            regions.append(Region(r.label, lo, hi))
    for s in p.interfaces:
        if box.y0 + 1e-12 < s.y < box.y1 - 1e-12:
            interfaces.append(s)
    if not regions:
        raise GeometryError("box does not meet the partition")
    return Partition(domain=box, omega=box, regions=tuple(regions),
                     interfaces=tuple(interfaces),
                     r0=min(r.thickness for r in regions), n_strips=p.n_strips,
                     with_extension=False)


def probe_field_residual(solver1: CorrectorSolver, solver2: CorrectorSolver,
                         k: int, z, box: Rect, h_box: float, link2=None):
    """Weak-divergence residual of y -> S_k(y, z) sampled on a box grid.

    The sampled field is interpolated on a conforming grid of the box and
    tested against every interior hat with the first admittivity's stiffness,
    applied from the box grid's couplings (`_grid_apply`: the box keeps only
    the strip labels it straddles); for the true probe field the residual
    vanishes under grid refinement.
    Returns (max residual, sampled values, box mesh).
    """
    p = solver1.mesh.partition
    bp = _box_partition(p, box)
    bmesh = generate_mesh(bp, h_box)
    svals = s_k_on_grid(solver1, solver2, k, z, bmesh.nodes, link2)

    resid = _grid_apply(bmesh, solver1.adm, svals)
    interior = bmesh.interior_nodes()
    scale = max(np.abs(svals).max(), 1e-300)
    return float(np.abs(resid[interior]).max() / scale), svals, bmesh


def alessandrini_pair(a1: Admittivity, a2: Admittivity, f1, f2,
                      mesh: Mesh) -> tuple[complex, complex]:
    """Interior bilinear misfit of two solutions vs the boundary pairing.

    lhs = sum over triangles of (gamma1 - gamma2) grad u1 . grad u2 (exact for
    P1 fields); rhs = f1^T (Lam1 - Lam2) f2 through matrix-free DtN actions,
    pairing without conjugation.  Lam2 f2 is the boundary flux of u2 itself.
    """
    sys1 = assemble(mesh, a1)
    sys2 = assemble(mesh, a2)
    u1 = solve_dirichlet(mesh, a1, f1, system=sys1)
    u2 = solve_dirichlet(mesh, a2, f2, system=sys2)

    diff = a1.element_values(mesh) - a2.element_values(mesh)
    dots = (u1.gradients() * u2.gradients()).sum(axis=1)
    lhs = complex(np.sum(diff * mesh.areas() * dots))

    lam1_f2 = apply_dtn(sys1, u2.trace)
    lam2_f2 = sys2.boundary_flux(u2)
    rhs = complex(u1.trace @ (lam1_f2 - lam2_f2))
    return lhs, rhs


# Fixed product Gauss-Legendre rule of the half-ball probe, applied on each of
# its two panels: nodes in u = 1/|x - y| by nodes in d = 1 - cos(theta).
_PROBE_U_RULE = np.polynomial.legendre.leggauss(32)
_PROBE_D_RULE = np.polynomial.legendre.leggauss(16)


def half_space_probe_integral(c1: TwoPhaseCoeffs, c2: TwoPhaseCoeffs,
                              jump: complex, r: float, rho0: float) -> complex:
    """3D quadrature of the probe integrand over the upper half-ball.

    The source sits at depth r below the interface, the integration region is
    {|x| < rho0, x_3 > 0}, and the integrand is jump * grad K1 . grad K2 for
    the two two-phase kernels.  Axisymmetry reduces the integral to the
    (radius, height) plane, taken in source-centred coordinates s = |x - y|
    and d = 1 - cos(theta), theta the angle from the upward axis.  There the
    weight 2 pi rho drho dz is 2 pi s^4 du dd with u = 1/s, which is flat for
    the 1/s^4 cross-branch integrand.  The region splits at the rim
    s = q = sqrt(r^2 + rho0^2) into two smooth panels:

        interface panel  u in [1/q, 1/r],          d < 1 - r u
        sphere panel     u in [1/(r + rho0), 1/q], d < (rho0^2 - (1/u - r)^2) u / (2 r)

    Panel widths, s - r and the bounds on d are written in forms that do not
    cancel when the source is very near the interface or very far from it.

    The integrand scales as 1/s^4 over a volume as s^3, so
    S(r, rho0) = S(r / rho0, 1) / rho0 exactly.  The region is taken in
    units of rho0 that way, so rho0^2 and r q (q + r) neither underflow nor
    overflow at any size.
    """
    if not (0 < r and 0 < rho0):
        raise ValueError("radius and region size must be positive")
    unit = rho0
    r, rho0 = r / unit, 1.0
    q = math.hypot(r, rho0)
    tu, wu = _PROBE_U_RULE
    tau, wtau = (tu + 1.0) / 2.0, wu / 2.0          # the u rule moved to [0, 1]
    td, wd = _PROBE_D_RULE

    # interface panel, u = 1/r - w_i tau, so 1 - r u = r w_i tau
    w_i = rho0 ** 2 / (r * q * (q + r))
    u_i = 1.0 / r - w_i * tau
    dmax_i = r * w_i * tau
    # sphere panel, u = 1/(r + rho0) + w_s tau, so r + rho0 - s = (r + rho0) w_s tau / u
    w_s = 2.0 * r * rho0 / (q * (r + rho0) * (r + rho0 + q))
    u_s = 1.0 / (r + rho0) + w_s * tau
    sr_s = (rho0 / (r + rho0) - r * w_s * tau) / u_s
    dmax_s = rho0 * tau * (rho0 + sr_s) / (q * (r + rho0 + q))

    s = 1.0 / np.concatenate([u_i, u_s])[:, None]
    s_minus_r = np.concatenate([dmax_i / u_i, sr_s])[:, None]
    du = np.concatenate([w_i * wtau, w_s * wtau])[:, None]
    d_max = np.concatenate([dmax_i, dmax_s])[:, None]
    d = d_max * (td + 1.0) / 2.0
    weight = 2.0 * np.pi * s ** 4 * du * (d_max * wd / 2.0)
    rho = s * np.sqrt(d * (2.0 - d))
    z = s_minus_r - s * d
    x = np.stack([rho, np.zeros_like(rho), z], axis=-1).reshape(-1, 3)
    y = np.array([0.0, 0.0, -r])
    g1 = two_phase_gamma_grad(x, y, c1, n=3)
    g2 = two_phase_gamma_grad(x, y, c2, n=3)
    return complex(jump) * complex(weight.ravel() @ (g1 * g2).sum(axis=1)) / unit


def half_space_probe_rate(c1: TwoPhaseCoeffs, c2: TwoPhaseCoeffs, jump: complex,
                          radii, rho0: float):
    """Probe values at several depths plus the log-log slope of |value|."""
    radii = np.asarray(sorted(radii, reverse=True), dtype=float)
    vals = np.array([half_space_probe_integral(c1, c2, jump, r, rho0)
                     for r in radii])
    slope = float(np.polyfit(np.log(radii), np.log(np.abs(vals)), 1)[0])
    return radii, vals, slope
