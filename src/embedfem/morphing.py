"""Analytic slider morphing and its exact coordinate sensitivities.

The slider band deforms by parabolic profiles of its top and bottom surfaces
over the full (mirrored) slider length; interior nodes interpolate linearly
between the moved boundaries. Topology never changes and the morph always
starts from the base configuration, so a coordinate set is a pure function of
the shape parameters.

With one parameter both surfaces deflect together (a shear that conserves
area by construction). With two parameters the surfaces deflect independently
and a quadratic-profile thickness correction, solved in closed form against
the discrete trapezoid column weights, restores the slider area exactly; the
correction vanishes at the slider ends so the pad interface never moves.
"""

from __future__ import annotations

import numpy as np

from .mesh import validate_element_orientation
from . import scalars as sc

__all__ = ["morph", "mesh_sensitivity", "slider_area", "SHAPE_PARAMETERS"]

#: the parameters of a one- and a two-parameter morph, in ``_profiles`` order
SHAPE_PARAMETERS = {1: ("deflection",),
                    2: ("deflection_top", "deflection_bottom")}


class MorphError(ValueError):
    pass


def _slider_frame(mesh):
    """Moving nodes, their normalized axial coordinate, and column weights."""
    moving = mesh.node_sets["slider_interior"]
    if moving.size == 0:
        raise MorphError("mesh has no slider region to morph")
    interface = mesh.node_sets["pad_interface"]
    symmetry = mesh.node_sets["symmetry_plane"]
    x_if = float(mesh.coords[interface, 0][0]) if interface.size \
        else float(mesh.coords[moving, 0].min())
    x_sym = float(mesh.coords[symmetry, 0][0])
    full_length = 2.0 * (x_sym - x_if)

    x = mesh.coords[moving, 0]
    t = (x - x_if) / full_length
    y = mesh.coords[moving, 1]
    y_bot = float(mesh.coords[:, 1].min())
    height = float(mesh.coords[:, 1].max()) - y_bot
    s = (y - y_bot) / height

    # trapezoid weights of the distinct slider columns, interface included
    cols = np.unique(np.concatenate([[x_if], x]))
    w = np.zeros(cols.size)
    w[:-1] += 0.5 * np.diff(cols)
    w[1:] += 0.5 * np.diff(cols)
    t_cols = (cols - x_if) / full_length
    return moving, t, s, t_cols, w


def _profiles(t, params, t_cols, w_cols):
    """Top/bottom profiles (float or Dual params) with area compensation."""
    count = params.shape[0]
    prof = 4.0 * t * (1.0 - t)
    if count == 1:
        d = params[0]
        return d * prof, d * prof
    if count == 2:
        d_top, d_bot = params[0], params[1]
        prof_cols = 4.0 * t_cols * (1.0 - t_cols)
        # area change = sum w ((d_top - d_bot) prof + 2 e prof^2) = 0
        num = float(np.sum(w_cols * prof_cols))
        den = 2.0 * float(np.sum(w_cols * prof_cols * prof_cols))
        e = -(d_top - d_bot) * num / den
        top = d_top * prof + e * prof * prof
        bot = d_bot * prof - e * prof * prof
        return top, bot
    raise MorphError(f"expected 1 or 2 shape parameters, got {count}")


def _moved_y(mesh, params):
    """The moving nodes and their morphed y (a ``Dual`` for dual params)."""
    moving, t, s, t_cols, w_cols = _slider_frame(mesh)
    top, bot = _profiles(t, params, t_cols, w_cols)
    return moving, mesh.coords[moving, 1] + bot + s * (top - bot)


def morph(mesh, params):
    """New mesh with the slider deformed by the shape parameters.

    Only nodes strictly inside the slider band move, and only vertically;
    morph(0) reproduces the base coordinates bit for bit.
    """
    moving, y = _moved_y(mesh, np.atleast_1d(np.asarray(params, dtype=float)))
    coords = mesh.coords.copy()
    coords[moving, 1] = y
    out = mesh.replace_coords(coords)
    validate_element_orientation(out)
    return out


def mesh_sensitivity(mesh, params):
    """Exact d(coords)/d(p), shape (num_nodes, 2, n_params), from the morph
    evaluated on ``Dual`` parameters. Non-slider rows are exactly zero because
    the morph never touches those nodes."""
    params = np.atleast_1d(np.asarray(params, dtype=float))
    moving, y = _moved_y(mesh, sc.Dual(params, np.eye(params.size)))
    out = np.zeros(mesh.coords.shape + (params.size,))
    out[moving, 1] = y.dx
    return out


def slider_area(mesh):
    """Shoelace area summed over the slider-region elements."""
    from .mesh import REGIONS

    elems = mesh.region_of == REGIONS.index("slider")
    x = mesh.coords[mesh.connectivity[elems]]
    area2 = np.zeros(x.shape[0])
    for c in range(4):
        a, b = x[:, c], x[:, (c + 1) % 4]
        area2 += a[:, 0] * b[:, 1] - b[:, 0] * a[:, 1]
    return 0.5 * float(np.sum(area2))
