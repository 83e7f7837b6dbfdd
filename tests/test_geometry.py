import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import eitlab as el
from eitlab import geometry
from eitlab.geometry import (InvalidSpecError, NoChainError, Rect, TooCoarseError,
                             mesh_hash, read_mesh, write_mesh)
from eitlab.singular import _box_partition


def test_single_region_partition():
    p = el.build_partition(1)
    assert len(p.regions) == 1
    interior = [s for s in p.interfaces if s.index >= 2]
    assert interior == []
    assert p.interfaces[0].y == 0.0


def test_three_strip_interfaces_and_chain():
    p = el.build_partition(3)
    heights = {s.index: s.y for s in p.interfaces}
    assert heights[2] == pytest.approx(1 / 3)
    assert heights[3] == pytest.approx(2 / 3)
    ch = el.build_chain(p, 3)
    assert ch.regions == (1, 2, 3)
    assert ch.links == (2, 3)


def test_extension_partition_geometry():
    p = el.build_partition(2, with_extension=True)
    assert len(p.regions) == 3
    assert p.regions[0].label == 0
    assert p.regions[0].thickness == pytest.approx(p.r0)
    s1 = p.interface_by_index(1)
    assert s1.y == 0.0 and s1.below == 0 and s1.above == 1
    # deep part of the extension is in K and at depth >= r0/2 below the edge
    k0_point = (0.9, -p.r0 / 2 - 0.05)
    assert p.chain_set_contains(k0_point)
    assert 0.0 - k0_point[1] >= p.r0 / 2
    ch = el.build_chain(p, 2)
    assert ch.regions == (0, 1, 2)


def test_marked_points_carry_interface_ball():
    p = el.build_partition(4)
    for s in p.interfaces:
        px = s.point[0]
        assert px - p.r0 / 3 >= p.omega.x0 - 1e-12
        assert px + p.r0 / 3 <= p.omega.x1 + 1e-12


def test_invalid_specs():
    with pytest.raises(InvalidSpecError):
        el.build_partition(0)
    with pytest.raises(InvalidSpecError):
        el.build_partition(-2)
    with pytest.raises(InvalidSpecError):
        el.build_partition(2, rect=(0, 0, 1, 0))


def test_chain_trivial_and_errors():
    p = el.build_partition(4)
    assert el.build_chain(p, 4).regions == (1, 2, 3, 4)
    assert el.build_chain(p, 1).regions == (1,)
    with pytest.raises(NoChainError):
        el.build_chain(p, 9)
    # a box over strips 2-3 lacks strip 1, where a chain without the
    # extension starts
    bp = _box_partition(el.build_partition(3), Rect(0.4, 0.5, 0.6, 0.9))
    assert bp.labels == (2, 3)
    with pytest.raises(NoChainError, match="start region 1"):
        el.build_chain(bp, 3)


def test_uw_labels_partition_omega():
    p = el.build_partition(4, with_extension=True)
    for k in range(0, 5):
        # strips k+1..N; the extension is never unexplored
        assert p.u_labels(k) == {lbl for lbl in p.labels if lbl > k}


def test_mesh_conformity():
    p = el.build_partition(2)
    m = el.generate_mesh(p, 0.25)
    cens = m.centroids()
    regions = {r.label: r for r in p.regions}

    def inside(r, v, tol=0.0):
        return (p.omega.x0 - tol <= v[0] <= p.omega.x1 + tol
                and r.y0 - tol <= v[1] <= r.y1 + tol)

    for tri, reg, c in zip(m.triangles, m.tri_region, cens):
        r = regions[reg]
        assert inside(r, c)
        for v in m.nodes[tri]:
            assert inside(r, v, tol=1e-12)


def test_structured_node_count():
    # h = 1/m with interfaces on grid lines: (m+1)^2 nodes
    p = el.build_partition(2)
    m = el.generate_mesh(p, 1 / 8)
    assert m.n_nodes == 9 * 9
    assert m.n_triangles == 2 * 8 * 8


def test_too_coarse():
    p = el.build_partition(2)
    with pytest.raises(TooCoarseError):
        el.generate_mesh(p, 0.6)
    with pytest.raises(TooCoarseError):
        el.generate_mesh(p, 0.5)   # h equal to the strip thickness
    # one cell across, or one cell down: no interior node
    with pytest.raises(TooCoarseError, match="no interior node"):
        el.generate_mesh(el.build_partition(2, rect=(0.0, 0.0, 0.05, 1.0)), 0.1)
    with pytest.raises(TooCoarseError, match="no interior node"):
        el.generate_mesh(el.build_partition(1, rect=(0.0, 0.0, 4.0, 1.0)), 1 / (1 + 5e-10))
    with pytest.raises(InvalidSpecError):
        el.generate_mesh(p, 0.0)


def test_mesh_node_count_is_bounded(monkeypatch):
    p = el.build_partition(3)
    # about 1e18 cells, and inf cells for a subnormal h: both are refused
    # before any array is allocated
    for h in (1e-9, 5e-324):
        with pytest.raises(InvalidSpecError, match="nodes"):
            el.generate_mesh(p, h)
    # the exact count is checked, not only its float lower bound (64 here)
    n = el.generate_mesh(p, 1 / 8).n_nodes
    monkeypatch.setattr(geometry, "MAX_MESH_NODES", n)
    assert el.generate_mesh(p, 1 / 8).n_nodes == n
    monkeypatch.setattr(geometry, "MAX_MESH_NODES", n - 1)
    with pytest.raises(InvalidSpecError, match="nodes"):
        el.generate_mesh(p, 1 / 8)


def test_refinement_nesting():
    p = el.build_partition(3)
    coarse = el.generate_mesh(p, 1 / 6)
    fine = el.generate_mesh(p, 1 / 12)
    fine_set = {(round(x, 12), round(y, 12)) for x, y in fine.nodes}
    for x, y in coarse.nodes:
        assert (round(x, 12), round(y, 12)) in fine_set


@st.composite
def _grid_requests(draw):
    """A partition and a mesh size for `generate_mesh`.

    1-6 strips with or without the extension, on a rectangle of width and
    height 1e-2 ... 1e1 at an offset, or a `_box_partition` sub-box of one,
    whose end strips are cut to unequal thickness.  h runs from just under
    the thinnest strip or the width down to 1/50 of it, and no finer than
    about 20 000 nodes.
    """
    n = draw(st.integers(1, 6))
    size = st.floats(1e-2, 1e1)
    w, ht = draw(size), draw(size)
    x0, y0 = draw(st.floats(-1e1, 1e1)), draw(st.floats(-1e1, 1e1))
    p = el.build_partition(n, rect=(x0, y0, x0 + w, y0 + ht),
                           with_extension=draw(st.booleans()))
    if len(p.regions) > 1 and draw(st.booleans()):
        d, t = p.domain, ht / n
        below = draw(st.integers(0, len(p.regions) - 2))
        above = draw(st.integers(below + 1, len(p.regions) - 1))
        lo = d.y0 + (below + draw(st.floats(0.1, 0.4))) * t
        hi = d.y0 + (above + draw(st.floats(0.6, 0.9))) * t
        p = _box_partition(p, Rect(d.x0 + draw(st.floats(0.0, 0.4)) * d.width, lo,
                                   d.x0 + draw(st.floats(0.6, 1.0)) * d.width, hi))
    limit = min(min(r.thickness for r in p.regions), p.domain.width)
    finest = max(limit / 50, math.sqrt(p.domain.width * p.domain.height / 20_000))
    coarsest = limit * (1 - 1e-6)
    assume(finest < coarsest)
    return p, coarsest * (finest / coarsest) ** draw(st.floats(0.0, 1.0))


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(request=_grid_requests())
@example(request=(el.build_partition(3), 1 / 12))
def test_triangle_orientation_and_quality(request):
    # generate_mesh runs no orientation or angle pass: its triangles are
    # counterclockwise and its angles at least atan(1/2) by construction
    m = el.generate_mesh(*request)
    assert np.all(m.areas() > 0)
    assert m.min_angle_deg() >= math.degrees(math.atan(0.5)) - 1e-9
    grid = m.grid
    assert grid.size == m.n_nodes
    x, y = m.nodes[grid, 0], m.nodes[grid, 1]
    assert np.all(y == y[:, :1])
    assert np.all(np.diff(y[:, 0]) > 0)
    assert np.all(np.diff(x, axis=1) > 0)
    assert np.array_equal(m.interior_nodes(), grid[1:-1, 1:-1].ravel())
    assert np.array_equal(m.boundary_nodes[:grid.shape[1]], grid[0])


def test_boundary_loop_ccw_closed():
    p = el.build_partition(2)
    m = el.generate_mesh(p, 1 / 8)
    bn = m.boundary_nodes
    assert len(np.unique(bn)) == len(bn)
    pts = m.nodes[bn]
    # shoelace signed area of the boundary polygon is positive (CCW)
    x, y = pts[:, 0], pts[:, 1]
    area2 = np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert area2 > 0
    # edges close up
    edges = m.boundary_edges
    assert edges[-1][1] == edges[0][0]


def test_interface_edges_on_rows():
    p = el.build_partition(2)
    m = el.generate_mesh(p, 1 / 8)
    for idx, edges in m.interface_edges.items():
        yline = p.interface_by_index(idx).y
        for i, j in edges:
            assert m.nodes[i][1] == pytest.approx(yline)
            assert m.nodes[j][1] == pytest.approx(yline)


@pytest.mark.parametrize("h, radius, center", [
    (1 / 16, 1.0, (0.0, 0.0)),
    (1 / 2, 1.0, (0.0, 0.0)),
    (1 / 128, 1.0, (0.0, 0.0)),
    (0.011, 1.0, (0.0, 0.0)),
    (0.07, 2.5, (1.0, -3.0)),
    (0.05, 0.3, (0.2, 0.1)),
], ids=["unit-h16", "unit-h2", "unit-h128", "unit-h0.011", "offset", "small-offset"])
def test_disk_mesh_basics(h, radius, center):
    # generate_disk_mesh runs no orientation or angle pass: its triangles
    # are counterclockwise and its angles at least 20 degrees by construction
    m = el.generate_disk_mesh(h, radius=radius, center=center)
    assert np.all(m.areas() > 0)
    assert m.min_angle_deg() >= 20.0
    rel = m.nodes[m.boundary_nodes] - np.asarray(center)
    assert np.allclose(np.linalg.norm(rel, axis=1), radius, atol=1e-12 * radius)
    # boundary walks counterclockwise
    th = np.unwrap(np.arctan2(rel[:, 1], rel[:, 0]))
    assert np.all(np.diff(th) > 0)


def test_mesh_io_roundtrip(tmp_path):
    p = el.build_partition(2, with_extension=True)
    m = el.generate_mesh(p, 1 / 8)
    path = tmp_path / "mesh.txt"
    write_mesh(m, path)
    first = path.read_text()
    assert first.splitlines()[0] == f"mesh v1 {m.n_nodes} {m.n_triangles} {len(m.boundary_edges)}"
    m2 = read_mesh(path)
    assert np.array_equal(m2.triangles, m.triangles)
    assert np.array_equal(m2.tri_region, m.tri_region)
    assert np.allclose(m2.nodes, m.nodes)
    assert np.array_equal(m2.boundary_nodes, m.boundary_nodes)
    # hash is stable across identical meshes
    assert mesh_hash(m) == mesh_hash(el.generate_mesh(p, 1 / 8))


def test_read_mesh_orients_clockwise_triangles(tmp_path):
    p = el.build_partition(2)
    m = el.generate_mesh(p, 1 / 8)
    path = tmp_path / "mesh.txt"
    write_mesh(m, path)
    lines = path.read_text().splitlines()
    first = 1 + m.n_nodes
    for t in range(0, m.n_triangles, 2):            # every other triangle clockwise
        i, j, k, region = lines[first + t].split()
        lines[first + t] = f"{i} {k} {j} {region}"
    path.write_text("\n".join(lines) + "\n")
    flipped = read_mesh(path)
    assert np.all(flipped.areas() > 0)
    adm = el.Admittivity([1.0, 2.0 + 1.0j])
    u = el.solve_dirichlet(m, adm, lambda x, y: x + 1j * y)
    v = el.solve_dirichlet(flipped, adm, lambda x, y: x + 1j * y)
    assert np.allclose(v.values, u.values, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("make", [
    lambda: el.generate_mesh(el.build_partition(3), 1 / 16),
    lambda: el.generate_mesh(el.build_partition(3, with_extension=True), 1 / 30),
    lambda: el.generate_mesh(el.build_partition(2, rect=(0.3, -0.7, 1.9, 0.5)), 1 / 16),
    lambda: el.generate_disk_mesh(0.1, radius=1.3, center=(0.2, -0.1)),
], ids=["strip", "extension-h30", "offset", "disk"])
def test_mesh_hash_survives_the_file_round_trip(tmp_path, make):
    m = make()
    write_mesh(m, tmp_path / "mesh.txt")
    assert mesh_hash(read_mesh(tmp_path / "mesh.txt")) == mesh_hash(m)


def test_mesh_hash_sees_every_array_but_not_the_index_dtype():
    m = el.generate_mesh(el.build_partition(2), 1 / 8)
    base = mesh_hash(m)

    def changed(**arrays):
        return mesh_hash(dataclasses.replace(m, **arrays))

    nodes = m.nodes.copy()
    nodes[10, 0] = np.nextafter(nodes[10, 0], np.inf)
    regions = m.tri_region.copy()
    regions[5] += 1
    tris = m.triangles.copy()
    tris[3] = np.roll(tris[3], 1)                    # same triangle, same orientation
    for arrays in (dict(nodes=nodes), dict(tri_region=regions), dict(triangles=tris),
                   dict(boundary_nodes=np.roll(m.boundary_nodes, 1))):
        assert changed(**arrays) != base
    assert changed(triangles=m.triangles.astype(np.int32)) == base


def test_mesh_hash_is_pinned():
    # the hash labels manifests and DtN exports; changing its format is a
    # deliberate act that must update this value
    m = el.generate_mesh(el.build_partition(2), 1 / 8)
    assert mesh_hash(m) == "503134949a1a7af48e50e56176193789b5a9aaec29319dc0d65a74bc7a488752"


N_NODES = 81      # nodes of the 2-strip h = 1/8 mesh the next test edits


@pytest.mark.parametrize("line, text, message", [
    (4, "nan 0.0", "mesh node 3 has a non-finite coordinate"),
    (4, "0.5 inf", "mesh node 3 has a non-finite coordinate"),
    (1 + N_NODES + 2, "0 1 81 1", r"mesh triangle 2 names a node outside 0\.\.80"),
    (1 + N_NODES, "-1 1 9 1", "mesh triangle 0 names a node outside"),
    (-1, "84 0", "mesh boundary edge 31 names a node outside"),
    (-5, None, "mesh boundary edge line 28 of 32: expected 2 numbers, the file ends"),
    (3, "0.25", "mesh node line 3 of 81: expected 2 numbers, got 1"),
    (1 + N_NODES, "0 1 x 1", "is not 4 numbers"),
    (1 + N_NODES, "0 1 10 99999999999999999999", "beyond int64"),
    (1 + N_NODES + 1, "0 1 2 1", "mesh triangle 1 has zero area"),   # on the bottom row
    (0, "mesh v1 0 0 0", "unrecognized mesh header"),
    (-1, "9 1", "mesh boundary edges do not form one closed loop"),
    (-2, "9 9", "mesh boundary edges do not form one closed loop"),
], ids=["nan", "inf", "triangle-index", "negative-index", "boundary-index", "truncated",
        "short-line", "not-a-number", "huge-label", "zero-area", "empty-header",
        "open-loop", "repeated-boundary-node"])
def test_read_mesh_rejects_a_malformed_file(tmp_path, line, text, message):
    m = el.generate_mesh(el.build_partition(2), 1 / 8)
    assert m.n_nodes == N_NODES
    path = tmp_path / "mesh.txt"
    write_mesh(m, path)
    lines = path.read_text().splitlines()
    if text is None:            # the file stops short
        del lines[line:]
    else:
        lines[line] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidSpecError, match=message):
        read_mesh(path)


def test_chain_set_column():
    p = el.build_partition(3)
    assert p.chain_set_contains((0.5, 0.5))
    assert p.chain_set_contains((0.4, 1 / 3))      # touches the interface
    assert not p.chain_set_contains((0.1, 0.5))    # outside the middle third
    assert not p.chain_set_contains((0.5, 1.2))
