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

REGIONS = ("conductor", "pad", "slider")


class MeshError(ValueError):
    pass


@dataclass
class GeometryParams:
    """Strip dimensions; the slider length is the meshed half."""

    conductor_length: float = 2.0
    pad_length: float = 0.25
    slider_length: float = 1.0
    height: float = 1.0


@dataclass
class Resolution:
    """Elements per region along x, and rows along y."""

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


def build_slider_mesh(geom, res):
    """Structured three-region strip mesh with symmetry plane at the right end.

    Node sets: ``left_conductor_end`` (x = 0), ``symmetry_plane`` (right end),
    ``pad_interface`` (pad/slider interface line), ``slider_interior`` (nodes
    strictly inside the slider band, the ones a shape morph may move).
    Regions of zero length take zero elements, so a single-region rectangle is
    the degenerate case with pad and slider lengths zero.
    """
    lengths = (geom.conductor_length, geom.pad_length, geom.slider_length)
    counts = (res.nx_conductor, res.nx_pad, res.nx_slider)
    if geom.height <= 0.0:
        raise MeshError("degenerate geometry: height must be positive")
    if any(l < 0 for l in lengths):
        raise MeshError("region lengths must be non-negative")
    for name, l, n in zip(REGIONS, lengths, counts):
        if l > 0.0 and n < 1:
            raise MeshError(f"region {name!r} has positive length but no elements")
        if l == 0.0 and n != 0:
            raise MeshError(f"region {name!r} has zero length but {n} elements")
    if res.ny < 1:
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
    ys = np.linspace(0.0, geom.height, res.ny + 1)
    nx, ny = len(xs) - 1, res.ny

    xv, yv = np.meshgrid(xs, ys, indexing="ij")
    coords = np.column_stack([xv.ravel(), yv.ravel()])

    def node(ix, iy):
        return ix * (ny + 1) + iy

    conn = np.empty((nx * ny, 4), dtype=np.int64)
    region_of = np.empty(nx * ny, dtype=np.int64)
    e = 0
    for ex in range(nx):
        for ey in range(ny):
            conn[e] = (node(ex, ey), node(ex + 1, ey),
                       node(ex + 1, ey + 1), node(ex, ey + 1))
            region_of[e] = col_region[ex]
            e += 1

    all_iy = np.arange(ny + 1)
    node_sets = {
        "left_conductor_end": node(0, all_iy),
        "symmetry_plane": node(nx, all_iy),
    }
    n_cols_before_slider = sum(n for r, n in zip(range(2), counts))
    if counts[2] > 0 and (counts[0] + counts[1]) > 0:
        node_sets["pad_interface"] = node(n_cols_before_slider, all_iy)
    else:
        node_sets["pad_interface"] = np.empty(0, dtype=np.int64)
    if counts[2] > 0:
        slider_cols = np.arange(n_cols_before_slider + 1, nx + 1)
        node_sets["slider_interior"] = np.concatenate(
            [node(ix, all_iy) for ix in slider_cols])
    else:
        node_sets["slider_interior"] = np.empty(0, dtype=np.int64)

    mesh = Mesh(coords, conn, region_of, node_sets)
    validate_element_orientation(mesh)
    return mesh


def build_rect_mesh(nx, ny, lx=1.0, ly=1.0):
    """Single-region rectangle with boundary node sets (for verification runs)."""
    geom = GeometryParams(conductor_length=lx, pad_length=0.0,
                          slider_length=0.0, height=ly)
    mesh = build_slider_mesh(geom, Resolution(nx, 0, 0, ny))
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
