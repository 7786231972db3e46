"""Gather/seed and extract/scatter stages plus global linear-algebra objects.

The gather evaluators pull global vectors into element-local fields and seed
the embedded scalar data for the evaluation type at hand (identity seeding for
stiffness rows, parameter or direction seeds for sensitivities, coordinate
seeds for shape derivatives, coefficient gathers for spectral unknowns, one
state per sample for ensembles). The scatter evaluators extract the embedded
results and stage them; the assembly driver merges staged contributions into
the global objects in element order, which makes the result independent of the
workset partition bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import scalars as sc
from .graph import (ENSEMBLE_RESIDUAL, Evaluator, FieldSpec, JACOBIAN,
                    RESIDUAL, SG_JACOBIAN, SG_RESIDUAL, SHAPE_TANGENT, TANGENT,
                    MissingSpecializationError)


@dataclass(frozen=True)
class Workset:
    """A contiguous block of elements; it may span several material regions."""

    start: int
    stop: int

    @property
    def size(self):
        return self.stop - self.start

    @property
    def elements(self):
        return slice(self.start, self.stop)


def build_worksets(mesh, workset_size=0):
    """Partition all elements into contiguous blocks of ``workset_size``
    elements (the last one may be shorter).

    ``workset_size`` of zero means one workset for the whole mesh.
    """
    n = mesh.num_elems
    size = workset_size if workset_size > 0 else n
    return [Workset(s, min(s + size, n)) for s in range(0, n, size)]


class ConnectivityMap:
    """(element, local node, equation) -> global dof, interleaved numbering.

    dof = node * n_eq + eq, so the unknowns of one node sit next to each
    other and element derivative blocks map to contiguous dof groups.
    """

    def __init__(self, connectivity, n_eq):
        self.node_conn = np.asarray(connectivity, dtype=np.int64)
        self.n_eq = int(n_eq)
        self.num_nodes = int(self.node_conn.max()) + 1
        self.num_global_dofs = self.num_nodes * self.n_eq
        eqs = np.arange(self.n_eq, dtype=np.int64)
        # (elem, node, eq) and the node-major/equation-minor flattening
        self.dof = self.node_conn[:, :, None] * self.n_eq + eqs
        n_elems, n_nodes = self.node_conn.shape
        self.elem_dofs = self.dof.reshape(n_elems, n_nodes * self.n_eq)

    @property
    def dofs_per_element(self):
        return self.elem_dofs.shape[1]


class GlobalSystem:
    """Solution/residual vectors and the fixed-pattern CSR matrix.

    The sparsity pattern is the symbolic element-graph closure of the
    connectivity; scatter adds into precomputed positions so duplicate
    contributions sum and the pattern never changes.
    """

    def __init__(self, conn):
        self.conn = conn
        n = conn.num_global_dofs
        nd = conn.dofs_per_element
        rows = np.repeat(conn.elem_dofs, nd, axis=1).ravel()
        cols = np.tile(conn.elem_dofs, (1, nd)).ravel()
        pattern = sp.coo_matrix(
            (np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
        pattern.sum_duplicates()
        pattern.sort_indices()
        self.indptr = pattern.indptr
        self.indices = pattern.indices
        self.nnz = pattern.nnz
        # per-element positions of (row i, col j) entries inside the CSR data
        locator = sp.csr_matrix(
            (np.arange(1, self.nnz + 1), self.indices, self.indptr), shape=(n, n))
        pos = np.asarray(locator[rows, cols]).ravel() - 1
        self.positions = pos.reshape(conn.elem_dofs.shape[0], nd, nd)
        self._diag = np.asarray(
            locator[np.arange(n), np.arange(n)]).ravel() - 1

    @property
    def num_dofs(self):
        return self.conn.num_global_dofs

    def new_matrix_data(self, trailing=()):
        return np.zeros((self.nnz,) + trailing)

    def matrix_from_data(self, data):
        n = self.num_dofs
        return sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()),
                             shape=(n, n))

    def row_entry_indices(self, dofs):
        """Indices into the CSR data of all entries in the given rows."""
        if len(dofs) == 0:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([np.arange(self.indptr[r], self.indptr[r + 1])
                               for r in dofs])

    def diag_indices(self, dofs):
        return self._diag[dofs]

    @cached_property
    def column_colors(self):
        """Greedy distance-2 coloring of the pattern's columns.

        Two columns that share a row get different colors, so the columns of
        one color are structurally orthogonal and can be perturbed together
        (Curtis, Powell & Reid, 1974). Columns are colored in dof order with
        the smallest color no conflicting column holds; built on first use.
        """
        n = self.num_dofs
        pattern = sp.csr_matrix(
            (np.ones(self.nnz), self.indices, self.indptr), shape=(n, n))
        conflicts = (pattern.T @ pattern).tocsr()
        colors = np.full(n, -1, dtype=np.int64)
        for j in range(n):
            taken = set(colors[conflicts.indices[
                conflicts.indptr[j]:conflicts.indptr[j + 1]]].tolist())
            color = 0
            while color in taken:
                color += 1
            colors[j] = color
        return colors


# ---------------------------------------------------------------------------
# assembly state shared between the driver and the gather/scatter evaluators
# ---------------------------------------------------------------------------

class AssemblyState:
    """Inputs of the current assembly: coordinates, vectors, and seed data."""

    def __init__(self):
        self.coords = None        # (num_nodes, 2)
        self.x = None             # (num_dofs,)
        self.x_block = None       # (num_coeffs or samples, num_dofs) unknowns
        self.v = None             # directional seed vector
        self.Xp = None            # (num_nodes, 2, n_shape_params)
        self.tangent_mode = "parameters"  # or "direction"
        self.n_deriv = None       # derivative width of the current assembly


# ---------------------------------------------------------------------------
# gather evaluators (seed + gather fused)
# ---------------------------------------------------------------------------

class _GatherCoordinatesBase(Evaluator):
    name = "gather_coordinates"
    evaluates = (FieldSpec("coords_node", ("elem", "node", "dim"), "mesh"),)

    def __init__(self, state, conn):
        self.state = state
        self.conn = conn

    def _values(self, ws):
        return self.state.coords[self.conn.node_conn[ws.elements]]


class GatherCoordinates(_GatherCoordinatesBase):
    """Plain copy of node coordinates into the workset field."""

    def evaluate(self, ctx):
        ctx.field("coords_node").assign(self._values(ctx.workset))


class GatherCoordinatesShape(_GatherCoordinatesBase):
    """Copies coordinates and seeds their shape-parameter derivatives.

    The seed columns come from the precalculated coordinate sensitivities, so
    downstream geometry quantities carry d(.)/dp automatically.
    """

    def evaluate(self, ctx):
        if self.state.Xp is None:
            raise ValueError("shape-tangent assembly needs coordinate sensitivities")
        field = ctx.field("coords_node")
        field.data.val[...] = self._values(ctx.workset)
        field.data.dx[...] = self.state.Xp[self.conn.node_conn[ctx.workset.elements]]


class _GatherSolutionBase(Evaluator):
    name = "gather_solution"

    def __init__(self, state, conn, unknowns):
        self.state = state
        self.conn = conn
        self.unknowns = tuple(unknowns)
        self.evaluates = tuple(
            FieldSpec(f"{u}_node", ("elem", "node"), "solution")
            for u in self.unknowns)

    def _dofs(self, ws, eq):
        return self.conn.dof[ws.elements, :, eq]


class GatherSolution(_GatherSolutionBase):
    def evaluate(self, ctx):
        for eq, u in enumerate(self.unknowns):
            ctx.field(f"{u}_node").assign(
                self.state.x[self._dofs(ctx.workset, eq)])


class GatherSolutionJacobian(_GatherSolutionBase):
    """Gathers values and seeds d(local x)/d(local x) with the identity."""

    def evaluate(self, ctx):
        n_eq = len(self.unknowns)
        n_nodes = self.conn.node_conn.shape[1]
        for eq, u in enumerate(self.unknowns):
            data = ctx.field(f"{u}_node").data
            data.val[...] = self.state.x[self._dofs(ctx.workset, eq)]
            data.dx[...] = 0.0
            for n in range(n_nodes):
                data.dx[:, n, n * n_eq + eq] = 1.0


class GatherSolutionTangent(_GatherSolutionBase):
    """Solution partials stay zero (parameters seed themselves), or carry the
    supplied direction for directional-derivative assemblies."""

    def evaluate(self, ctx):
        for eq, u in enumerate(self.unknowns):
            data = ctx.field(f"{u}_node").data
            dofs = self._dofs(ctx.workset, eq)
            data.val[...] = self.state.x[dofs]
            data.dx[...] = 0.0
            if self.state.tangent_mode == "direction":
                data.dx[:, :, 0] = self.state.v[dofs]


class GatherSolutionSG(_GatherSolutionBase):
    def evaluate(self, ctx):
        for eq, u in enumerate(self.unknowns):
            data = ctx.field(f"{u}_node").data
            dofs = self._dofs(ctx.workset, eq)
            data.coeffs[...] = np.moveaxis(self.state.x_block[:, dofs], 0, -1)


class GatherSolutionEnsemble(_GatherSolutionBase):
    def evaluate(self, ctx):
        for eq, u in enumerate(self.unknowns):
            ctx.field(f"{u}_node").data.vals[...] = \
                self.state.x_block[:, self._dofs(ctx.workset, eq)]


class GatherSolutionSGJacobian(_GatherSolutionBase):
    def evaluate(self, ctx):
        n_eq = len(self.unknowns)
        n_nodes = self.conn.node_conn.shape[1]
        for eq, u in enumerate(self.unknowns):
            data = ctx.field(f"{u}_node").data
            dofs = self._dofs(ctx.workset, eq)
            data.val.coeffs[...] = np.moveaxis(self.state.x_block[:, dofs], 0, -1)
            data.dx.coeffs[...] = 0.0
            for n in range(n_nodes):
                data.dx.coeffs[:, n, n * n_eq + eq, 0] = 1.0


# ---------------------------------------------------------------------------
# scatter evaluators (extract + scatter fused, staging for ordered merge)
# ---------------------------------------------------------------------------

class _ScatterBase(Evaluator):
    name = "scatter_residual"
    evaluates = (FieldSpec("residual_scattered", ("elem",), "real"),)

    def __init__(self, state, conn, unknowns):
        self.state = state
        self.conn = conn
        self.unknowns = tuple(unknowns)
        self.depends = tuple(
            FieldSpec(f"{u}_residual", ("elem", "node"), "solution")
            for u in self.unknowns)

    def _rows(self, ws):
        # (n_ws, n_nodes, n_eq) in element-major order
        return self.conn.dof[ws.elements]

    def _local(self, ctx, shape, fill):
        """Element-local residual block (n_ws, n_nodes, n_eq, ...)."""
        out = np.empty(shape)
        for eq, u in enumerate(self.unknowns):
            fill(out, eq, ctx.field(f"{u}_residual").data)
        return out


class ScatterResidual(_ScatterBase):
    def evaluate(self, ctx):
        ws = ctx.workset
        n_nodes = self.conn.node_conn.shape[1]
        vals = self._local(
            ctx, (ws.size, n_nodes, len(self.unknowns)),
            lambda out, eq, data: out.__setitem__((..., eq), data))
        ctx.stage("f", (self._rows(ws).ravel(), vals.ravel()))


class ScatterJacobian(_ScatterBase):
    """Values go to the residual; derivative rows go to the stiffness entries."""

    def evaluate(self, ctx):
        ws = ctx.workset
        n_nodes = self.conn.node_conn.shape[1]
        n_eq = len(self.unknowns)
        nd = n_nodes * n_eq
        vals = np.empty((ws.size, n_nodes, n_eq))
        jac = np.empty((ws.size, nd, nd))
        for eq, u in enumerate(self.unknowns):
            data = ctx.field(f"{u}_residual").data
            vals[..., eq] = data.val
            jac[:, eq::n_eq, :] = data.dx
        ctx.stage("f", (self._rows(ws).ravel(), vals.ravel()))
        ctx.stage("jac", jac)


class ScatterTangent(_ScatterBase):
    """Extracts d(residual)/d(parameter) columns alongside the values."""

    def evaluate(self, ctx):
        ws = ctx.workset
        n_nodes = self.conn.node_conn.shape[1]
        n_eq = len(self.unknowns)
        vals = np.empty((ws.size, n_nodes, n_eq))
        cols = np.empty((ws.size, n_nodes, n_eq, self.state.n_deriv))
        for eq, u in enumerate(self.unknowns):
            data = ctx.field(f"{u}_residual").data
            vals[..., eq] = data.val
            cols[:, :, eq, :] = data.dx
        rows = self._rows(ws).ravel()
        ctx.stage("f", (rows, vals.ravel()))
        ctx.stage("fp", (rows, cols.reshape(rows.size, self.state.n_deriv)))


class ScatterSGResidual(_ScatterBase):
    def evaluate(self, ctx):
        ws = ctx.workset
        n_nodes = self.conn.node_conn.shape[1]
        n_eq = len(self.unknowns)
        n_coeff = ctx.field(f"{self.unknowns[0]}_residual").data.basis.size
        coeffs = np.empty((ws.size, n_nodes, n_eq, n_coeff))
        for eq, u in enumerate(self.unknowns):
            coeffs[:, :, eq, :] = ctx.field(f"{u}_residual").data.coeffs
        rows = self._rows(ws).ravel()
        ctx.stage("F", (rows, coeffs.reshape(rows.size, n_coeff)))


class ScatterEnsembleResidual(_ScatterBase):
    """Stages every sample's residual rows into the flattened (samples,
    num_dofs) residual: sample s's rows are the plain rows plus s num_dofs,
    in the plain order, so each entry sums its terms in the plain order."""

    def evaluate(self, ctx):
        ws = ctx.workset
        n_nodes = self.conn.node_conn.shape[1]
        samples = self.state.x_block.shape[0]
        vals = np.empty((samples, ws.size, n_nodes, len(self.unknowns)))
        for eq, u in enumerate(self.unknowns):
            vals[..., eq] = ctx.field(f"{u}_residual").data.vals
        offsets = np.arange(samples)[:, None] * self.conn.num_global_dofs
        ctx.stage("f", ((offsets + self._rows(ws).ravel()).ravel(),
                        vals.ravel()))


class ScatterSGJacobian(_ScatterBase):
    def evaluate(self, ctx):
        ws = ctx.workset
        n_nodes = self.conn.node_conn.shape[1]
        n_eq = len(self.unknowns)
        nd = n_nodes * n_eq
        data0 = ctx.field(f"{self.unknowns[0]}_residual").data
        n_coeff = data0.val.basis.size
        coeffs = np.empty((ws.size, n_nodes, n_eq, n_coeff))
        jac = np.empty((ws.size, nd, nd, n_coeff))
        for eq, u in enumerate(self.unknowns):
            data = ctx.field(f"{u}_residual").data
            coeffs[:, :, eq, :] = data.val.coeffs
            jac[:, eq::n_eq, :, :] = data.dx.coeffs
        rows = self._rows(ws).ravel()
        ctx.stage("F", (rows, coeffs.reshape(rows.size, n_coeff)))
        ctx.stage("jac_blocks", jac)


_GATHER_SOLUTION = {
    RESIDUAL.tag: GatherSolution,
    JACOBIAN.tag: GatherSolutionJacobian,
    TANGENT.tag: GatherSolutionTangent,
    SHAPE_TANGENT.tag: GatherSolutionTangent,
    SG_RESIDUAL.tag: GatherSolutionSG,
    SG_JACOBIAN.tag: GatherSolutionSGJacobian,
    ENSEMBLE_RESIDUAL.tag: GatherSolutionEnsemble,
}

_GATHER_COORDINATES = {
    RESIDUAL.tag: GatherCoordinates,
    JACOBIAN.tag: GatherCoordinates,
    TANGENT.tag: GatherCoordinates,
    SHAPE_TANGENT.tag: GatherCoordinatesShape,
    SG_RESIDUAL.tag: GatherCoordinates,
    SG_JACOBIAN.tag: GatherCoordinates,
    ENSEMBLE_RESIDUAL.tag: GatherCoordinates,
}

_SCATTER = {
    RESIDUAL.tag: ScatterResidual,
    JACOBIAN.tag: ScatterJacobian,
    TANGENT.tag: ScatterTangent,
    SHAPE_TANGENT.tag: ScatterTangent,
    SG_RESIDUAL.tag: ScatterSGResidual,
    SG_JACOBIAN.tag: ScatterSGJacobian,
    ENSEMBLE_RESIDUAL.tag: ScatterEnsembleResidual,
}


def _specialized(table, registrar_name, ev_type):
    cls = table.get(ev_type.tag)
    if cls is None:
        raise MissingSpecializationError(
            f"registrar {registrar_name} has no specialization for {ev_type.tag}")
    return cls


def gather_coordinates_registrar(state, conn):
    def gather_coordinates(ev_type):
        return _specialized(_GATHER_COORDINATES, "gather_coordinates",
                            ev_type)(state, conn)
    return gather_coordinates


def gather_solution_registrar(state, conn, unknowns):
    def gather_solution(ev_type):
        return _specialized(_GATHER_SOLUTION, "gather_solution",
                            ev_type)(state, conn, unknowns)
    return gather_solution


def scatter_residual_registrar(state, conn, unknowns):
    def scatter_residual(ev_type):
        return _specialized(_SCATTER, "scatter_residual",
                            ev_type)(state, conn, unknowns)
    return scatter_residual
