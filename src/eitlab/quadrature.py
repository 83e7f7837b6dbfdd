"""Triangle quadrature: a degree-5 seven-point rule and ball clipping.

Ball-restricted integrals are computed by recursive quadrisection: triangles
fully on the requested side of the circle get the full seven-point rule,
straddling triangles are split until a depth cap and then kept or dropped by
a centroid test.  The area error is a vanishing fraction of the straddling
band, which is plenty for the 1e-3 tolerances used by the energy checks.
"""

from __future__ import annotations

import numpy as np

from .geometry import _signed_areas

__all__ = ["TRI7_BARY", "TRI7_W", "tri7_points", "triangle_areas",
           "integrate_on_triangles", "clipped_quadrature"]

_a1, _b1 = 0.059715871789770, 0.470142064105115
_a2, _b2 = 0.797426985353087, 0.101286507323456
TRI7_BARY = np.array([
    [1 / 3, 1 / 3, 1 / 3],
    [_a1, _b1, _b1], [_b1, _a1, _b1], [_b1, _b1, _a1],
    [_a2, _b2, _b2], [_b2, _a2, _b2], [_b2, _b2, _a2],
])
TRI7_W = np.array([0.225,
                   0.132394152788506, 0.132394152788506, 0.132394152788506,
                   0.125939180544827, 0.125939180544827, 0.125939180544827])


def triangle_areas(tris_pts: np.ndarray) -> np.ndarray:
    return np.abs(_signed_areas(tris_pts))


def tri7_points(tris_pts: np.ndarray) -> np.ndarray:
    """Quadrature nodes, shape (m, 7, 2)."""
    return np.einsum("qi,mid->mqd", TRI7_BARY, tris_pts)


def integrate_on_triangles(tris_pts: np.ndarray, fn, parents: np.ndarray):
    """Integral of fn over every triangle; returns the sum.

    fn(points (k, 2), parents (k,)) -> values; `parents` carries the original
    triangle index of each piece so fn can use per-triangle data.
    """
    m = len(tris_pts)
    if m == 0:
        return 0.0
    qp = tri7_points(tris_pts).reshape(-1, 2)
    par = np.repeat(parents, 7)
    vals = np.asarray(fn(qp, par)).reshape(m, 7)
    areas = triangle_areas(tris_pts)
    return np.sum(areas * (vals @ TRI7_W))


def _point_triangle_dist(tris_pts: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Exact distance from point c to each triangle (0 when c is inside)."""
    m = len(tris_pts)
    dmin = np.full(m, np.inf)
    inside = np.ones(m, dtype=bool)
    for i in range(3):
        a = tris_pts[:, i]
        b = tris_pts[:, (i + 1) % 3]
        ab = b - a
        ac = c[None, :] - a
        # segment distance
        tpar = np.clip((ab * ac).sum(1) / np.maximum((ab * ab).sum(1), 1e-300), 0.0, 1.0)
        proj = a + tpar[:, None] * ab
        dmin = np.minimum(dmin, np.linalg.norm(c[None, :] - proj, axis=1))
        # orientation-agnostic inside test: c must be on the same side as the
        # opposite vertex for every edge
        opp = tris_pts[:, (i + 2) % 3]
        cross_c = ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0]
        cross_o = ab[:, 0] * (opp - a)[:, 1] - ab[:, 1] * (opp - a)[:, 0]
        inside &= cross_c * cross_o >= 0
    dmin[inside] = 0.0
    return dmin


def _subdivide(tris_pts: np.ndarray, parents: np.ndarray):
    p0, p1, p2 = tris_pts[:, 0], tris_pts[:, 1], tris_pts[:, 2]
    m01 = 0.5 * (p0 + p1)
    m12 = 0.5 * (p1 + p2)
    m20 = 0.5 * (p2 + p0)
    children = np.concatenate([
        np.stack([p0, m01, m20], axis=1),
        np.stack([m01, p1, m12], axis=1),
        np.stack([m20, m12, p2], axis=1),
        np.stack([m01, m12, m20], axis=1),
    ])
    return children, np.tile(parents, 4)


def clipped_quadrature(tris_pts: np.ndarray, fn, center, radius: float,
                       inside: bool = True, depth: int = 8):
    """Integral of fn over the union of (triangle intersect ball) pieces when
    `inside`, or (triangle minus ball) pieces otherwise; fn receives the index
    of each piece's original triangle as its `parents` argument."""
    c = np.asarray(center, dtype=float)
    total = 0.0
    cur, par = np.asarray(tris_pts, dtype=float), np.arange(len(tris_pts))
    for level in range(depth + 1):
        if len(cur) == 0:
            break
        dmax = np.linalg.norm(cur - c[None, None, :], axis=2).max(axis=1)
        dmin = _point_triangle_dist(cur, c)
        fully_in = dmax <= radius
        fully_out = dmin >= radius
        straddle = ~(fully_in | fully_out)
        keep = fully_in if inside else fully_out
        if np.any(keep):
            total = total + integrate_on_triangles(cur[keep], fn, par[keep])
        if level == depth:
            if np.any(straddle):
                cen = cur[straddle].mean(axis=1)
                cen_in = np.linalg.norm(cen - c[None, :], axis=1) <= radius
                last = cen_in if inside else ~cen_in
                if np.any(last):
                    total = total + integrate_on_triangles(
                        cur[straddle][last], fn, par[straddle][last])
            break
        cur, par = _subdivide(cur[straddle], par[straddle])
    return total
