"""Bilinear quad basis, reference-physical mapping, and weak-form kernels.

Everything here is written once against generic scalar storage: the mapping
runs in the mesh scalar kind (so shape derivatives flow through the geometry)
and interpolation/integration promote between the mesh and solution kinds
through plain arithmetic. No kernel in this module knows which evaluation
type it is running under.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import scalars as sc
from .graph import Evaluator, FieldSpec
from .mesh import MeshError

#: reference-square corner coordinates, counterclockwise
REF_NODES = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


@dataclass(frozen=True)
class BasisSet:
    """Reference-element basis values and gradients at quadrature points."""

    values: np.ndarray         # (4, nq)
    ref_gradients: np.ndarray  # (4, nq, 2)
    points: np.ndarray         # (nq, 2)
    weights: np.ndarray        # (nq,)

    @property
    def num_nodes(self):
        return self.values.shape[0]

    @property
    def num_qp(self):
        return self.values.shape[1]


def shape_values(points):
    """Bilinear shape functions phi_i = (1 + xi xi_i)(1 + eta eta_i)/4."""
    pts = np.atleast_2d(points)
    return 0.25 * (1.0 + np.outer(REF_NODES[:, 0], pts[:, 0])) \
                * (1.0 + REF_NODES[:, 1][:, None] * pts[:, 1][None, :])


def shape_gradients(points):
    pts = np.atleast_2d(points)
    grads = np.empty((4, pts.shape[0], 2))
    grads[:, :, 0] = 0.25 * REF_NODES[:, 0][:, None] \
        * (1.0 + REF_NODES[:, 1][:, None] * pts[:, 1][None, :])
    grads[:, :, 1] = 0.25 * REF_NODES[:, 1][:, None] \
        * (1.0 + REF_NODES[:, 0][:, None] * pts[:, 0][None, :])
    return grads


def bilinear_basis(quad_order=2):
    """Tensor-product Gauss quadrature basis tables on [-1, 1]^2."""
    if quad_order not in (1, 2, 3):
        raise ValueError(f"unsupported quadrature order {quad_order}")
    x1, w1 = np.polynomial.legendre.leggauss(quad_order)
    pts = np.array([(xa, xb) for xa in x1 for xb in x1])
    wts = np.array([wa * wb for wa in w1 for wb in w1])
    return BasisSet(shape_values(pts), shape_gradients(pts), pts, wts)


# ---------------------------------------------------------------------------
# generic element geometry
# ---------------------------------------------------------------------------

def element_tables(table, num_elems):
    """A reference table (n, q, ...) as (e, n, q, ...), element axis fastest
    like the arena's: (q,) rows would give C-ordered, q-long inner loops."""
    return np.asfortranarray(np.broadcast_to(table, (num_elems,) + table.shape))


def mapping_jacobian(coords, ref_grad):
    """2x2 mapping Jacobian entries J[a][b] = d x_a / d xi_b, each (e, q).

    ``coords`` is generic storage shaped (e, n, 2) and ``ref_grad`` the
    (e, n, q, 2) ``element_tables`` of the reference gradients; the result
    shares the coordinates' kind, so dual coordinates give dual geometry.
    """
    return [[interpolate_to_qp(coords[:, :, a], ref_grad[:, :, :, b])
             for b in range(2)] for a in range(2)]


def element_geometry(coords, basis):
    """Determinant, physical gradients, and weighted basis tables.

    Returns (det, phys_grad, det_w) where det has shape (e, q), ``phys_grad``
    is a list [n][d] of (e, q) scalars, and det_w = det * w_q. Raises if the
    determinant is non-positive anywhere (ids are workset-local).
    """
    ref_grad = element_tables(basis.ref_gradients, np.shape(coords)[0])
    jac = mapping_jacobian(coords, ref_grad)
    det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
    det_values = sc.strip_derivatives(det)
    if np.any(det_values <= 0.0):
        bad = np.unique(np.nonzero(det_values <= 0.0)[0])
        raise MeshError(
            f"non-positive mapping determinant in workset elements {bad[:8].tolist()}")
    # inverse transpose applied to reference gradients:
    #   d phi / dx = (d phi/d xi) (d xi/dx),  d xi_b / d x_a = adj(J)/det
    inv = [[jac[1][1] / det, -jac[0][1] / det],
           [-jac[1][0] / det, jac[0][0] / det]]
    phys_grad = [[inv[0][d] * ref_grad[:, n, :, 0]
                  + inv[1][d] * ref_grad[:, n, :, 1] for d in range(2)]
                 for n in range(basis.num_nodes)]
    det_w = det * basis.weights
    return det, phys_grad, det_w


def interpolate_to_qp(nodal, table):
    """sum_n nodal[:, n] table[:, n]: (e, n) storage by an (e, n, q) table ->
    (e, q) storage, u at the qp with ``bf`` and grad u with ``grad_bf``'s
    components. The nodes are added in order, in place into the first."""
    acc = nodal[:, 0][:, None] * table[:, 0]
    for n in range(1, np.shape(table)[1]):
        sc.add_into(acc, nodal[:, n][:, None] * table[:, n])
    return acc


def integrate(integrand, weighted):
    """sum_q integrand(e, q, .) * weighted(e, i, q, .) as (e, i) storage.

    Scalar integrands contract with the weighted basis values, vector
    integrands with the weighted basis gradients; a residual kernel adds up
    the contractions of its terms.

    The terms are added one quadrature point at a time, ((t0 + t1) + t2) + t3,
    each in place into the first, without forming the (e, i, q, ...) product.
    For four points numpy's ``sum`` over q adds in this order whatever the
    scalar kind and memory order, but from +0.0: it gives ``0.0 + x`` where
    this gives ``x``, which differ only in the sign of a zero (an all -0.0
    sum). The scatter adds every residual into zeroed globals, which erases
    that sign, so the assembled outputs are bitwise the broadcast-and-sum's.
    Vector integrands are added in row-major (q, d) order; numpy would sum
    those 8 terms pairwise for plain values but sequentially for partials,
    so no single order matches it there.

    Kernels contract like this, explicitly and elementwise, and never reduce
    field data with a numpy reduction: numpy's pairwise summation follows
    memory order, and the field storage is element-fastest, not C-ordered.
    """
    # np.shape reads the ``shape`` of every scalar kind: value axes only
    w_shape = np.shape(weighted)
    i_rank = len(np.shape(integrand))
    if len(w_shape) != i_rank + 1:
        raise ValueError(f"integrand rank {i_rank} does not match weighted "
                         f"basis rank {len(w_shape)}")
    terms = (weighted[(slice(None), slice(None)) + point]
             * integrand[(slice(None),) + point][:, None]
             for point in np.ndindex(*w_shape[2:]))
    acc = next(terms)
    for term in terms:
        sc.add_into(acc, term)
    return acc


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------

class ElementGeometryEvaluator(Evaluator):
    """Maps gathered coordinates to weighted basis tables and qp coordinates;
    ``bf`` holds the basis values as a real field (Albany's BF).

    Plain coordinates are memoized per arena by the workset start and the
    coordinate bits last mapped into it (bits, so -0.0 and NaN never hit):
    on a match the arena's fields still hold that geometry, and the call
    returns without touching them. Worksets of equal size share one arena.
    Dual coordinates (shape tangents) are mapped on every call.
    """

    name = "element_geometry"

    def __init__(self, basis):
        self.basis = basis
        self._memo = {}   # arena -> (workset start, coordinate bits)
        self.depends = (FieldSpec("coords_node", ("elem", "node", "dim"), "mesh"),)
        self.evaluates = (
            FieldSpec("bf", ("elem", "node", "qp"), "real"),
            FieldSpec("weighted_bf", ("elem", "node", "qp"), "mesh"),
            FieldSpec("grad_bf", ("elem", "node", "qp", "dim"), "mesh"),
            FieldSpec("weighted_grad_bf", ("elem", "node", "qp", "dim"), "mesh"),
            FieldSpec("det_w", ("elem", "qp"), "mesh"),
            FieldSpec("coords_qp", ("elem", "qp", "dim"), "mesh"),
        )

    def evaluate(self, ctx):
        coords = ctx.field("coords_node")
        if not isinstance(coords, np.ndarray):
            self._compute(ctx, coords)
            return
        bits = coords.view(np.int64)
        last = self._memo.get(ctx.arena)
        if (last is not None and last[0] == ctx.workset.start
                and np.array_equal(last[1], bits)):
            return
        self._memo[ctx.arena] = None   # a failed computation leaves no memo
        self._compute(ctx, coords)
        self._memo[ctx.arena] = (ctx.workset.start, bits.copy(order="K"))

    def _compute(self, ctx, coords):
        basis = self.basis
        bf = ctx.field("bf")
        bf[...] = basis.values
        det, phys_grad, det_w = element_geometry(coords, basis)
        sc.copy_into(ctx.field("det_w"), det_w)
        sc.copy_into(ctx.field("weighted_bf"), det_w[:, None] * bf)
        gbf = ctx.field("grad_bf")
        wgbf = ctx.field("weighted_grad_bf")
        for n in range(basis.num_nodes):
            for d in range(2):
                sc.copy_into(gbf[:, n, :, d], phys_grad[n][d])
                sc.copy_into(wgbf[:, n, :, d], phys_grad[n][d] * det_w)
        xqp = ctx.field("coords_qp")
        for d in range(2):
            sc.copy_into(xqp[:, :, d], interpolate_to_qp(coords[:, :, d], bf))


class SolutionAtQPEvaluator(Evaluator):
    """Interpolates one nodal unknown and its gradient to quadrature points."""

    def __init__(self, unknown):
        self.unknown = unknown
        self.name = f"{unknown}_at_qp"
        self.depends = (
            FieldSpec(f"{unknown}_node", ("elem", "node"), "solution"),
            FieldSpec("bf", ("elem", "node", "qp"), "real"),
            FieldSpec("grad_bf", ("elem", "node", "qp", "dim"), "mesh"),
        )
        self.evaluates = (
            FieldSpec(f"{unknown}_qp", ("elem", "qp"), "solution"),
            FieldSpec(f"grad_{unknown}_qp", ("elem", "qp", "dim"), "solution"),
        )

    def evaluate(self, ctx):
        nodal = ctx.field(f"{self.unknown}_node")
        sc.copy_into(ctx.field(f"{self.unknown}_qp"),
                     interpolate_to_qp(nodal, ctx.field("bf")))
        gbf = ctx.field("grad_bf")
        grad = ctx.field(f"grad_{self.unknown}_qp")
        for d in range(2):
            sc.copy_into(grad[:, :, d], interpolate_to_qp(nodal, gbf[:, :, :, d]))
