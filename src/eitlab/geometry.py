"""Strip-partitioned rectangles and conforming triangulations.

The geometric setting is deliberately narrow: an axis-aligned rectangle cut
into N horizontal strips of equal thickness, optionally extended by one extra
strip glued below the bottom edge.  Every boundary between consecutive strips
is a flat horizontal segment, which is the structure the singular-solution
and probe machinery in the rest of the library relies on.

Meshes are structured right-triangle grids whose node rows always contain the
strip interfaces, so every triangle lies in exactly one region.  A concentric
ring triangulation of a disk is provided as a second, single-region domain
for spectral oracles.  The plain-text formats live here too: the mesh file
and the one number format every CSV writer uses.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "InvalidSpecError",
    "TooCoarseError",
    "GeometryError",
    "Rect",
    "Region",
    "Interface",
    "Partition",
    "Mesh",
    "build_partition",
    "generate_mesh",
    "generate_disk_mesh",
    "write_mesh",
    "read_mesh",
    "mesh_hash",
]

# Largest node count `generate_mesh` builds: about 60 times the finest mesh the
# tests, demos and benchmark use (16 770 nodes at h = 1/128), and small enough
# that the mesh arrays fit in a laptop's memory.
MAX_MESH_NODES = 1_000_000


class InvalidSpecError(ValueError):
    """Partition request that cannot be realized."""


class TooCoarseError(ValueError):
    """Mesh size does not resolve the strip structure."""


class GeometryError(ValueError):
    """Geometric query outside its domain of validity."""


@dataclass(frozen=True)
class Rect:
    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise InvalidSpecError(f"degenerate rectangle {self!r}")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    def contains(self, p) -> bool:
        x, y = float(p[0]), float(p[1])
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1


@dataclass(frozen=True)
class Region:
    """One horizontal strip spanning the width of `Partition.omega`.  Label 0
    is reserved for the extension strip."""

    label: int
    y0: float
    y1: float

    @property
    def thickness(self) -> float:
        return self.y1 - self.y0


@dataclass(frozen=True)
class Interface:
    """Flat segment between the regions `below` and `above` at height `y`,
    spanning the width of `Partition.omega`.

    Index 1 is the bottom edge of the coefficient-carrying rectangle; with an
    extension strip its `below` is label 0, otherwise None (domain boundary).
    The marked point is the segment midpoint.
    """

    index: int
    y: float
    below: int | None
    above: int
    point: tuple[float, float]

@dataclass(frozen=True)
class Partition:
    domain: Rect          # full meshed rectangle, includes the extension strip
    omega: Rect           # rectangle carrying the N unknown coefficients
    regions: tuple[Region, ...]
    interfaces: tuple[Interface, ...]
    r0: float
    n_strips: int
    with_extension: bool

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(r.label for r in self.regions)

    def interface_by_index(self, index: int) -> Interface:
        for s in self.interfaces:
            if s.index == index:
                return s
        raise GeometryError(f"no interface with index {index}")

    def region_of_point(self, p) -> int:
        """Label of the region containing p (ties resolved upward)."""
        x, y = float(p[0]), float(p[1])
        if not self.domain.contains((x, y)):
            raise GeometryError(f"point {(x, y)} outside the domain")
        for r in self.regions:
            if r.y0 <= y < r.y1:
                return r.label
        return self.regions[-1].label

    def u_labels(self, k: int) -> set[int]:
        """Labels of the unexplored set: strips k+1..N (never the extension)."""
        return set(range(k + 1, self.n_strips + 1))

    def chain_set_contains(self, p, tol: float = 1e-12) -> bool:
        """Membership in the probe set K.

        K is the middle-third vertical column of the strip stack (so it meets
        every interface well away from the lateral sides), together with the
        deep half of the extension strip when one is present.
        """
        x, y = float(p[0]), float(p[1])
        third = self.omega.width / 3.0
        in_column = (self.omega.x0 + third - tol <= x <= self.omega.x1 - third + tol
                     and self.domain.y0 - tol <= y <= self.omega.y1 + tol)
        if in_column:
            return True
        if self.with_extension:
            # K0: full-width part of the extension at depth >= r0/2
            if (self.domain.x0 - tol <= x <= self.domain.x1 + tol
                    and self.domain.y0 - tol <= y <= self.omega.y0 - self.r0 / 2 + tol):
                return True
        return False


def build_partition(n_strips: int, rect=(0.0, 0.0, 1.0, 1.0),
                    with_extension: bool = False) -> Partition:
    """Split `rect` into `n_strips` equal horizontal strips.

    Strips are labelled 1 (bottom) to N (top); interface k >= 2 sits between
    strips k-1 and k.  Interface 1 is the bottom edge of `rect`; with
    `with_extension` a strip of thickness r0 and label 0 is glued below it.
    r0 equals the strip thickness.
    """
    if not isinstance(n_strips, int) or n_strips < 1:
        raise InvalidSpecError(f"strip count must be a positive integer, got {n_strips}")
    omega = rect if isinstance(rect, Rect) else Rect(*map(float, rect))
    t = omega.height / n_strips
    r0 = t

    regions = []
    lo = omega.y0 - r0 if with_extension else omega.y0
    if with_extension:
        regions.append(Region(0, omega.y0 - r0, omega.y0))
    for j in range(1, n_strips + 1):
        regions.append(Region(j, omega.y0 + (j - 1) * t, omega.y0 + j * t))

    interfaces = []
    mid = 0.5 * (omega.x0 + omega.x1)
    interfaces.append(Interface(1, omega.y0, 0 if with_extension else None, 1,
                                (mid, omega.y0)))
    for k in range(2, n_strips + 1):
        yk = omega.y0 + (k - 1) * t
        interfaces.append(Interface(k, yk, k - 1, k, (mid, yk)))

    domain = Rect(omega.x0, lo, omega.x1, omega.y1)
    return Partition(domain=domain, omega=omega, regions=tuple(regions),
                     interfaces=tuple(interfaces), r0=r0, n_strips=n_strips,
                     with_extension=with_extension)


@dataclass
class Mesh:
    """Interface-conforming triangulation.

    Nodes are 2D points; triangle rows hold node triples plus the label of the
    region containing the triangle.  `boundary_nodes` walks the outer boundary
    counterclockwise and fixes the trace-basis ordering used by the boundary
    operators.  `interface_edges` maps an interface index to its node-pair
    rows.  `grid` is the row-major node-index grid of a `generate_mesh` mesh
    (row 0 at the bottom, x increasing along each row); it is None for a
    disk, a `read_mesh` mesh and any mesh built by hand.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    tri_region: np.ndarray
    boundary_nodes: np.ndarray
    interface_edges: dict[int, np.ndarray]
    h: float
    partition: Partition | None = None
    disk: tuple[float, float, float] | None = None   # (cx, cy, radius)
    grid: np.ndarray | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def boundary_edges(self) -> np.ndarray:
        bn = self.boundary_nodes
        return np.stack([bn, np.roll(bn, -1)], axis=1)

    def interior_nodes(self) -> np.ndarray:
        mask = np.ones(self.n_nodes, dtype=bool)
        mask[self.boundary_nodes] = False
        return np.nonzero(mask)[0]

    def tri_points(self) -> np.ndarray:
        return self.nodes[self.triangles]

    def areas(self) -> np.ndarray:
        if "areas" not in self._cache:
            self._cache["areas"] = _signed_areas(self.tri_points())
        return self._cache["areas"]

    def centroids(self) -> np.ndarray:
        if "centroids" not in self._cache:
            self._cache["centroids"] = self.tri_points().mean(axis=1)
        return self._cache["centroids"]

    def min_angle_deg(self) -> float:
        pts = self.tri_points()
        ang = []
        for i in range(3):
            a = pts[:, (i + 1) % 3] - pts[:, i]
            b = pts[:, (i + 2) % 3] - pts[:, i]
            na = np.linalg.norm(a, axis=1)
            nb = np.linalg.norm(b, axis=1)
            cosv = np.clip((a * b).sum(1) / (na * nb), -1.0, 1.0)
            ang.append(np.degrees(np.arccos(cosv)))
        return float(np.min(ang))

    def contains_ball(self, center, radius: float) -> bool:
        cx, cy = float(center[0]), float(center[1])
        if self.disk is not None:
            dx, dy, R = self.disk
            return math.hypot(cx - dx, cy - dy) + radius <= R + 1e-12
        if "bbox" not in self._cache:
            self._cache["bbox"] = self.nodes.min(axis=0), self.nodes.max(axis=0)
        lo, hi = self._cache["bbox"]
        return (lo[0] <= cx - radius and cx + radius <= hi[0]
                and lo[1] <= cy - radius and cy + radius <= hi[1])


def _signed_areas(tris_pts: np.ndarray) -> np.ndarray:
    """Signed area of each triangle (m, 3, 2); positive when counterclockwise."""
    e1 = tris_pts[:, 1] - tris_pts[:, 0]
    e2 = tris_pts[:, 2] - tris_pts[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def _orient_ccw(nodes: np.ndarray, tris: np.ndarray) -> np.ndarray:
    flip = _signed_areas(nodes[tris]) < 0
    tris = tris.copy()
    tris[flip, 1], tris[flip, 2] = tris[flip, 2].copy(), tris[flip, 1].copy()
    return tris


def _subdivisions(extent: float, h: float) -> int:
    return max(1, int(math.ceil(extent / h - 1e-9)))


def generate_mesh(p: Partition, h: float) -> Mesh:
    """Structured right-triangle mesh of the partitioned rectangle.

    Each strip is subdivided into ceil(thickness/h) node rows, so every
    interface line is a row of nodes and conformity holds by construction.
    When h divides the strip thickness exactly, halving h doubles every
    subdivision count and the refined node set nests the coarse one.  An h
    that leaves one cell across or one cell down, and so no interior node,
    raises TooCoarseError.

    No quality or orientation pass runs on the result.  Each cell is split
    along its rising diagonal into two triangles listed counterclockwise, so
    every area is positive by construction.  h is below every strip thickness
    and the grid is at least 2 cells across, so every cell side lies in
    (h/2, h], up to the relative 1e-9 by which a subdivision count may round
    down: each cell has dy/dx in (1/2, 2), and every angle is at least
    atan(1/2), about 26.57 degrees.  `Mesh.grid` records the node grid.
    """
    if not (h > 0):
        raise InvalidSpecError(f"mesh size must be positive, got {h}")
    tmin = min(r.thickness for r in p.regions)
    if h >= tmin:
        raise TooCoarseError(f"mesh size {h} does not resolve strip thickness {tmin}")

    dom = p.domain
    strips = sorted(p.regions, key=lambda r: r.y0)
    # count the nodes before any array is built; the float product, a lower
    # bound on the count, goes first because extent / h is inf for a subnormal h
    too_many = f"mesh size {h} gives more than {MAX_MESH_NODES} nodes"
    if (dom.width / h) * (dom.height / h) > MAX_MESH_NODES:
        raise InvalidSpecError(too_many)
    nx = _subdivisions(dom.width, h)
    row_counts = [_subdivisions(r.thickness, h) for r in strips]
    if nx < 2 or sum(row_counts) < 2:
        # one cell across or one cell down leaves no interior node
        raise TooCoarseError(f"mesh size {h} leaves no interior node in the "
                             f"{dom.width} x {dom.height} domain")
    if (nx + 1) * (sum(row_counts) + 1) > MAX_MESH_NODES:
        raise InvalidSpecError(too_many)
    xs = np.linspace(dom.x0, dom.x1, nx + 1)

    ys_parts = [np.array([dom.y0])]
    row_region = []   # region label per cell row
    for r, ny in zip(strips, row_counts):
        ys_parts.append(np.linspace(r.y0, r.y1, ny + 1)[1:])
        row_region.extend([r.label] * ny)
    ys = np.concatenate(ys_parts)
    nyrows = len(ys) - 1

    xx, yy = np.meshgrid(xs, ys)
    nodes = np.column_stack([xx.ravel(), yy.ravel()])
    W = nx + 1

    cells_i, cells_j = np.meshgrid(np.arange(nx), np.arange(nyrows))
    v00 = cells_j.ravel() * W + cells_i.ravel()
    v10 = v00 + 1
    v01 = v00 + W
    v11 = v01 + 1
    tris = np.empty((2 * nx * nyrows, 3), dtype=np.int64)
    tris[0::2] = np.column_stack([v00, v10, v11])
    tris[1::2] = np.column_stack([v00, v11, v01])
    region_per_cell = np.repeat(np.asarray(row_region, dtype=np.int64), nx)
    tri_region = np.repeat(region_per_cell, 2)

    bottom = np.arange(0, W)
    right = np.arange(2 * W - 1, nyrows * W + W, W)
    top = np.arange(nyrows * W + nx - 1, nyrows * W - 1, -1)
    left = np.arange((nyrows - 1) * W, 0, -W)
    boundary_nodes = np.concatenate([bottom, right, top, left])

    iface_edges: dict[int, np.ndarray] = {}
    for s in p.interfaces:
        rows = np.nonzero(np.abs(ys - s.y) <= 1e-12 * max(1.0, abs(s.y)) + 1e-15)[0]
        if len(rows) != 1:
            raise GeometryError(f"interface {s.index} not aligned with a node row")
        base = rows[0] * W
        ids = base + np.arange(W)
        iface_edges[s.index] = np.column_stack([ids[:-1], ids[1:]])

    return Mesh(nodes=nodes, triangles=tris, tri_region=tri_region,
                boundary_nodes=boundary_nodes, interface_edges=iface_edges,
                h=float(h), partition=p, grid=np.arange(len(nodes)).reshape(-1, W))


def generate_disk_mesh(h: float, radius: float = 1.0, center=(0.0, 0.0)) -> Mesh:
    """Concentric-ring triangulation of a disk, single region labelled 1.

    Ring i carries 6*i nodes, giving near-equilateral triangles throughout.
    The outermost ring, walked counterclockwise from angle 0, is the boundary
    trace basis.  No orientation or quality pass runs: every triangle is
    listed counterclockwise, and the smallest angle is about 30 degrees.
    """
    if not (0 < h < radius):
        raise TooCoarseError(f"mesh size {h} invalid for disk radius {radius}")
    m = max(2, int(round(radius / h)))
    cx, cy = float(center[0]), float(center[1])

    pts = [(cx, cy)]
    ring_ids = [np.array([0])]
    for i in range(1, m + 1):
        n_i = 6 * i
        th = 2 * np.pi * np.arange(n_i) / n_i
        r_i = radius * i / m
        start = len(pts)
        pts.extend(zip(cx + r_i * np.cos(th), cy + r_i * np.sin(th)))
        ring_ids.append(start + np.arange(n_i))
    nodes = np.array(pts)

    tris = []
    for j in range(6):
        tris.append([0, ring_ids[1][j], ring_ids[1][(j + 1) % 6]])
    for i in range(2, m + 1):
        inner = ring_ids[i - 1]
        outer = ring_ids[i]
        n1, n2 = len(inner), len(outer)
        ia = ib = 0
        while ia < n1 or ib < n2:
            a_next = (ia + 1) / n1
            b_next = (ib + 1) / n2
            if ib < n2 and (ia == n1 or b_next <= a_next):
                tris.append([outer[ib % n2], outer[(ib + 1) % n2], inner[ia % n1]])
                ib += 1
            else:
                tris.append([inner[(ia + 1) % n1], inner[ia % n1], outer[ib % n2]])
                ia += 1
    tris = np.asarray(tris, dtype=np.int64)

    return Mesh(nodes=nodes, triangles=tris,
                tri_region=np.ones(len(tris), dtype=np.int64),
                boundary_nodes=ring_ids[m],
                interface_edges={}, h=radius / m, partition=None,
                disk=(cx, cy, radius))


# --- plain-text formats -----------------------------------------------------
#
# Every number written by the package goes through `_fmt`: floats as Python
# float repr (round-trips exactly through float()), integers as plain digits.
#
# mesh v1 <nnodes> <ntris> <nbedges>
# x y            (node lines)
# i j k region   (triangle lines)
# i j            (boundary edge lines)

def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _open_new(path, encoding: str = "ascii"):
    """Open `path` for writing as a new file, unlinking any old one first.

    Truncating a file that was written moments before makes the kernel flush
    its delayed allocation (tens of ms on ext4); a new inode does not.  Every
    output can be regenerated, so the implicit flush is not needed.
    """
    Path(path).unlink(missing_ok=True)
    return open(path, "w", encoding=encoding, newline="\n")


def _write_csv(path, header, rows) -> None:
    """One comma-joined header line, then one line per row, LF endings."""
    with _open_new(path) as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _rows(a: np.ndarray, block: int = 256):
    """Rows of `a` as Python lists, converted a block at a time: Python
    scalars format faster than numpy ones, and a block holds few of them."""
    for start in range(0, len(a), block):
        yield from a[start:start + block].tolist()


def write_mesh(mesh: Mesh, path) -> None:
    be = mesh.boundary_edges
    with _open_new(path) as f:
        f.write(f"mesh v1 {mesh.n_nodes} {mesh.n_triangles} {len(be)}\n")
        for x, y in _rows(mesh.nodes):
            f.write(f"{_fmt(x)} {_fmt(y)}\n")
        for (i, j, k), reg in zip(_rows(mesh.triangles), _rows(mesh.tri_region)):
            f.write(f"{i} {j} {k} {reg}\n")
        for i, j in _rows(be):
            f.write(f"{i} {j}\n")


def _read_block(f, count: int, width: int, dtype, what: str) -> np.ndarray:
    """The next `count` lines of `width` numbers each, as a (count, width) array."""
    parse = float if dtype is np.float64 else int
    rows = []
    for n in range(1, count + 1):
        line = f.readline()
        fields = line.split()
        if len(fields) != width:
            got = "the file ends" if not line else f"got {len(fields)}"
            raise InvalidSpecError(f"mesh {what} line {n} of {count}: "
                                   f"expected {width} numbers, {got}")
        try:
            rows.append([parse(v) for v in fields])
        except ValueError:
            raise InvalidSpecError(f"mesh {what} line {n} of {count}: "
                                   f"{line.strip()!r} is not {width} numbers") from None
    try:
        return np.array(rows, dtype=dtype)
    except OverflowError:
        raise InvalidSpecError(f"mesh {what} lines hold an integer beyond int64") from None


def read_mesh(path) -> Mesh:
    """Read a `write_mesh` file; a malformed one raises InvalidSpecError.

    Rejected: a wrong header, a short or missing line, a field that is not a
    number, a non-finite coordinate, a node index outside the node list, a
    triangle of zero area and boundary edges that are not one closed loop.
    """
    with open(path, "r", encoding="ascii") as f:
        header = f.readline().split()
        if (len(header) != 5 or header[:2] != ["mesh", "v1"]
                or not all(v.isdigit() and int(v) > 0 for v in header[2:])):
            raise InvalidSpecError(f"unrecognized mesh header {' '.join(header)!r}")
        nn, nt, nb = (int(v) for v in header[2:])
        nodes = _read_block(f, nn, 2, np.float64, "node")
        rows = _read_block(f, nt, 4, np.int64, "triangle")
        bedges = _read_block(f, nb, 2, np.int64, "boundary edge")
    bad = np.nonzero(~np.isfinite(nodes).all(axis=1))[0]
    if len(bad):
        raise InvalidSpecError(f"mesh node {bad[0]} has a non-finite coordinate")
    tris = rows[:, :3]
    for what, idx in (("triangle", tris), ("boundary edge", bedges)):
        bad = np.nonzero(((idx < 0) | (idx >= nn)).any(axis=1))[0]
        if len(bad):
            raise InvalidSpecError(f"mesh {what} {bad[0]} names a node outside 0..{nn - 1}")
    bad = np.nonzero(_signed_areas(nodes[tris]) == 0)[0]
    if len(bad):
        raise InvalidSpecError(f"mesh triangle {bad[0]} has zero area")
    loop = bedges[:, 0]
    if (nb < 3 or len(np.unique(loop)) != nb
            or not np.array_equal(bedges[:, 1], np.roll(loop, -1))):
        raise InvalidSpecError("mesh boundary edges do not form one closed loop")
    edge_len = np.linalg.norm(nodes[loop] - nodes[bedges[:, 1]], axis=1)
    return Mesh(nodes=nodes, triangles=_orient_ccw(nodes, tris),
                tri_region=rows[:, 3], boundary_nodes=loop, interface_edges={},
                h=float(edge_len.min()))


def mesh_hash(mesh: Mesh) -> str:
    """SHA-256 over the nodes, triangles, region labels and boundary loop.

    A count tag, then each array's bytes: nodes as little-endian float64, the
    rest as little-endian int64.  A mesh and its `write_mesh`/`read_mesh`
    round trip hash alike.  Not cached: mesh arrays are mutable.
    """
    digest = hashlib.sha256(f"mesh v2 {mesh.n_nodes} {mesh.n_triangles} "
                            f"{len(mesh.boundary_nodes)}\n".encode("ascii"))
    for a, dtype in ((mesh.nodes, "<f8"), (mesh.triangles, "<i8"),
                     (mesh.tri_region, "<i8"), (mesh.boundary_nodes, "<i8")):
        digest.update(np.ascontiguousarray(a, dtype=dtype))
    return digest.hexdigest()
