"""Structured quadrilateral meshes for the strip demo domain.

The demo domain is a rectangular strip of three x-bands, conductor | pad |
slider, meshed with bilinear quads. The slider band ends at the symmetry
plane of the full device, so only half of the physical slider is meshed.
Elements are numbered column-major (x-band by x-band); assembly does not rely
on that order, it reads each element's material from ``Mesh.region_of``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

REGIONS = ("conductor", "pad", "slider")


class MeshError(ValueError):
    pass


@dataclass
class StripGeometry:
    """Strip dimensions (the slider length is the meshed half), then the
    elements per region along x and the rows along y."""

    conductor_length: float = 2.0
    pad_length: float = 0.25
    slider_length: float = 1.0
    height: float = 1.0
    nx_conductor: int = 8
    nx_pad: int = 2
    nx_slider: int = 6
    ny: int = 16


@dataclass
class Mesh:
    """Nodes, counterclockwise quad connectivity, region tags, node sets."""

    coords: np.ndarray           # (num_nodes, 2)
    connectivity: np.ndarray     # (num_elems, 4), int
    region_of: np.ndarray        # (num_elems,), index into REGIONS
    node_sets: dict

    @property
    def num_nodes(self):
        return self.coords.shape[0]

    @property
    def num_elems(self):
        return self.connectivity.shape[0]

    def replace_coords(self, coords):
        """Same topology with new node coordinates (morphing support)."""
        return Mesh(np.asarray(coords, dtype=float), self.connectivity,
                    self.region_of, self.node_sets)


def corner_jacobians(coords, connectivity):
    """Bilinear map Jacobian determinant at the four element corners.

    det J is bilinear over the reference square, so positivity at the corners
    implies positivity everywhere inside the element.
    """
    x = coords[connectivity]  # (n, 4, 2)
    dets = np.empty((connectivity.shape[0], 4))
    for c in range(4):
        nxt = x[:, (c + 1) % 4] - x[:, c]
        prv = x[:, (c - 1) % 4] - x[:, c]
        dets[:, c] = (nxt[:, 0] * prv[:, 1] - nxt[:, 1] * prv[:, 0]) / 4.0
    return dets


def validate_element_orientation(mesh):
    dets = corner_jacobians(mesh.coords, mesh.connectivity)
    bad = np.nonzero(np.any(dets <= 0.0, axis=1))[0]
    if bad.size:
        raise MeshError(f"non-positive mapping determinant in elements {bad[:8].tolist()}")


#: parts of at most this many nodes are not cut further by nested dissection
_ND_LEAF = 8


def nested_dissection(mesh):
    """Fill-reducing order of the mesh nodes by nested dissection.

    George, SIAM J. Numer. Anal. 10 (1973) 345-363, with coordinate cuts: a
    part of more than ``_ND_LEAF`` nodes is cut at its (upper) median node
    coordinate along x and along y. A cut's vertex separator is the set of
    nodes at or below the median that share an element with a node above
    it; the axis with the smaller separator wins, and the part is ordered as
    its lower rest, then its upper side (both recursively), then the
    separator. Smaller parts and separators keep ascending node order. A part
    that neither cut separates (one side empty, or every lower node on the
    separator) takes SuperLU's COLAMD order of its node graph. All parts of
    one level are cut at once. Returns the node indices in elimination order.
    """
    n, k = mesh.num_nodes, mesh.connectivity.shape[1]
    conn = mesh.connectivity
    graph = sp.csr_matrix((np.ones(conn.size * k),
                           (np.repeat(conn, k, axis=1).ravel(),
                            np.tile(conn, (1, k)).ravel())), shape=(n, n))
    graph.sum_duplicates()
    counts = np.diff(graph.indptr)
    rows = np.repeat(np.arange(n), counts)
    # neighbours of each node, padded with n: a node that is in no part
    neighbours = np.full((n, counts.max()), n)
    neighbours[rows, np.arange(graph.nnz) - graph.indptr[rows]] = graph.indices
    part = np.zeros(n + 1, dtype=np.int64)    # part to cut, -1 once placed
    part[n] = -1
    rank = np.arange(n)       # order inside a part placed whole
    # per level, each node's place in its part: 0 lower rest, 1 upper side,
    # 2 separator; sorting on the levels' digits, then rank, gives the order
    levels = []
    above = np.zeros(n + 1, dtype=bool)
    while True:
        active = np.flatnonzero(part[:n] >= 0)
        small = np.bincount(part[active])[part[active]] <= _ND_LEAF
        part[active[small]] = -1
        active = active[~small]
        if not active.size:
            return np.lexsort([rank] + levels[::-1])
        p = np.unique(part[active], return_inverse=True)[1]
        sizes = np.bincount(p)
        middle = np.cumsum(sizes) - sizes + sizes // 2
        nbr = neighbours[active]
        same_part = part[nbr] == part[active][:, None]
        cuts = []    # per axis: separator width per part (n: no cut), sides
        for coord in mesh.coords[active].T:
            upper = coord > coord[np.lexsort((coord, p))[middle]][p]
            above[active] = upper
            separator = ~upper & (above[nbr] & same_part).any(axis=1)
            above[active] = False
            width = np.bincount(p[separator], minlength=len(sizes))
            separates = ((np.bincount(p[upper], minlength=len(sizes)) > 0)
                         & (width < np.bincount(p[~upper], minlength=len(sizes))))
            cuts.append((np.where(separates, width, n), upper, separator))
        x_wins = (cuts[0][0] <= cuts[1][0])[p]
        upper, separator = (np.where(x_wins, x_side, y_side)
                            for x_side, y_side in zip(cuts[0][1:], cuts[1][1:]))
        digit = np.zeros(n, dtype=np.int64)
        digit[active] = np.where(separator, 2, upper)
        for q in np.flatnonzero(np.minimum(cuts[0][0], cuts[1][0]) == n):
            # the part's node graph, made diagonally dominant so that
            # SuperLU factors it and reports its COLAMD column order
            nodes = active[p == q]
            sub = graph[nodes][:, nodes]
            dominant = sub + sp.diags(np.asarray(sub.sum(axis=1)).ravel())
            rank[nodes[np.argsort(spla.splu(dominant.tocsc()).perm_c)]] = \
                np.arange(len(nodes))
            digit[nodes] = 0
            part[nodes] = -1
        levels.append(digit)
        part[active] = np.where(separator | (part[active] < 0), -1,
                                2 * p + upper)


def build_slider_mesh(geom):
    """Structured three-region strip mesh with symmetry plane at the right end.

    Node sets: ``left_conductor_end`` (x = 0), ``symmetry_plane`` (right end),
    ``pad_interface`` (pad/slider interface line), ``slider_interior`` (nodes
    strictly inside the slider band, the ones a shape morph may move).
    Regions of zero length take zero elements, so a single-region rectangle is
    the degenerate case with pad and slider lengths zero.
    """
    lengths = (geom.conductor_length, geom.pad_length, geom.slider_length)
    counts = (geom.nx_conductor, geom.nx_pad, geom.nx_slider)
    if not 0.0 < geom.height < np.inf:   # NaN fails too
        raise MeshError("degenerate geometry: height must be positive and "
                        f"finite, got {geom.height}")
    for name, l, n in zip(REGIONS, lengths, counts):
        if not 0.0 <= l < np.inf:
            raise MeshError(f"region {name!r} length must be non-negative and "
                            f"finite, got {l}")
        if l > 0.0 and n < 1:
            raise MeshError(f"region {name!r} has positive length but no elements")
        if l == 0.0 and n != 0:
            raise MeshError(f"region {name!r} has zero length but {n} elements")
    if geom.ny < 1:
        raise MeshError("ny must be >= 1")
    if all(l == 0.0 for l in lengths):
        raise MeshError("degenerate geometry: no region has positive length")

    # x grid: per-region uniform spacing, shared interface columns
    xs = [0.0]
    col_region = []  # region index per element column
    for r, (l, n) in enumerate(zip(lengths, counts)):
        if n == 0:
            continue
        x0 = xs[-1]
        xs.extend((x0 + l * (i + 1) / n) for i in range(n))
        col_region.extend([r] * n)
    xs = np.asarray(xs)
    ys = np.linspace(0.0, geom.height, geom.ny + 1)
    nx, ny = len(xs) - 1, geom.ny

    xv, yv = np.meshgrid(xs, ys, indexing="ij")
    coords = np.column_stack([xv.ravel(), yv.ravel()])

    def node(ix, iy):
        return ix * (ny + 1) + iy

    ex, ey = np.divmod(np.arange(nx * ny), ny)   # column-major elements
    conn = np.column_stack([node(ex, ey), node(ex + 1, ey),
                            node(ex + 1, ey + 1), node(ex, ey + 1)])
    region_of = np.asarray(col_region, dtype=np.int64)[ex]

    all_iy = np.arange(ny + 1)
    before = counts[0] + counts[1]   # element columns left of the slider
    node_sets = {
        "left_conductor_end": node(0, all_iy),
        "symmetry_plane": node(nx, all_iy),
        "pad_interface": (node(before, all_iy) if counts[2] and before
                          else np.empty(0, dtype=np.int64)),
        # empty without a slider, where nx == before
        "slider_interior": node(np.arange(before + 1, nx + 1)[:, None],
                                all_iy).ravel(),
    }

    mesh = Mesh(coords, conn, region_of, node_sets)
    validate_element_orientation(mesh)
    return mesh


def build_rect_mesh(nx, ny, lx=1.0, ly=1.0):
    """Single-region rectangle with boundary node sets (for verification runs)."""
    mesh = build_slider_mesh(StripGeometry(lx, 0.0, 0.0, ly, nx, 0, 0, ny))
    x, y = mesh.coords[:, 0], mesh.coords[:, 1]
    tol = 1e-12 * max(lx, ly)
    sets = dict(mesh.node_sets)
    sets["left"] = np.nonzero(x < tol)[0]
    sets["right"] = np.nonzero(x > lx - tol)[0]
    sets["bottom"] = np.nonzero(y < tol)[0]
    sets["top"] = np.nonzero(y > ly - tol)[0]
    sets["boundary"] = np.unique(np.concatenate(
        [sets["left"], sets["right"], sets["bottom"], sets["top"]]))
    mesh.node_sets = sets
    return mesh
