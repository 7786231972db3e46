"""Gather/seed and extract/scatter specializations plus global linear-algebra objects.

``_SPECIALIZATIONS`` holds one row per evaluation type: a coordinate gather,
a solution gather and a scatter, the only evaluators that differ between the
types' graphs. The solution gather's ``bind`` checks the type's inputs and
returns the arena keys. Each gather's ``_value`` pulls global vectors into
one element-local scalar with seeded embedded data (identity seeds for
stiffness rows, direction seeds for sensitivities, coordinate seeds for shape
derivatives, coefficients for spectral unknowns, one state per sample for
ensembles), and its ``evaluate`` copies that scalar into the whole field. The scatter's ``targets`` name the global
objects it fills, and its ``evaluate`` adds each workset's rows straight
into them. Worksets run in element order, so every entry sums its terms in
element order, bitwise independent of the workset partition. ``finish``
replaces the Dirichlet rows of whatever was filled.

A new evaluation type needs a storage kind in ``fields.make_storage``, an
``EvaluationType`` constant and one row here; the assembly loop is unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import scalars as sc
from .graph import (ENSEMBLE_RESIDUAL, Evaluator, FieldSpec, JACOBIAN,
                    RESIDUAL, SG_JACOBIAN, SG_RESIDUAL, SHAPE_TANGENT, TANGENT)


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
        # CSR data position of each row's diagonal entry
        self.diagonal = np.asarray(
            locator[np.arange(n), np.arange(n)]).ravel() - 1

    @property
    def num_dofs(self):
        return self.conn.num_global_dofs

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


def _add_rows(target, rows, vals):
    """``target[rows[i]] += vals[i]`` in the order of i, as one 1-D ``add.at``
    over a contiguous target's flat entries: numpy's multi-dimensional
    ``add.at`` is several times slower and adds in the same order."""
    width = target[0].size
    if width > 1:
        rows = (rows[:, None] * width + np.arange(width)).ravel()
    np.add.at(target.reshape(-1), rows, vals.reshape(-1))


def _required(value, what):
    if value is None:
        raise ValueError(f"assembly needs {what}")
    return np.asarray(value, dtype=float)


# ---------------------------------------------------------------------------
# assembly state shared between the driver and the gather/scatter evaluators
# ---------------------------------------------------------------------------

class AssemblyState:
    """Inputs and global objects of the current assembly.

    :func:`bind` clears the inputs, lets the type's gather store the ones it
    reads and allocates the global objects its scatter adds into
    (``targets``, by name); :func:`finish` takes the targets out again.
    """

    def __init__(self, system, coords, sg_basis=None):
        self.system = system
        self.coords = coords      # (num_nodes, 2)
        self.sg_basis = sg_basis  # chaos basis tables of the spectral types
        self.x = None             # (num_dofs,), or (coeffs or samples, num_dofs)
        self.v = None             # directional seed vector
        self.Xp = None            # (num_nodes, 2, n_shape_params)
        self.targets = {}


class _Specialized(Evaluator):
    """An evaluator of the specialization table: it reads its inputs from and
    scatters into the shared assembly state."""

    def __init__(self, state, unknowns):
        self.state = state
        self.conn = state.system.conn
        self.unknowns = tuple(unknowns)


# ---------------------------------------------------------------------------
# gather evaluators (seed + gather fused; each writes its whole fields)
# ---------------------------------------------------------------------------

class GatherCoordinates(_Specialized):
    """Plain copy of node coordinates into the workset field."""

    name = "gather_coordinates"
    evaluates = (FieldSpec("coords_node", ("elem", "node", "dim"), "mesh"),)

    def _value(self, ws):
        return self.state.coords[self.conn.node_conn[ws.elements]]

    def evaluate(self, ctx):
        sc.copy_into(ctx.field("coords_node"), self._value(ctx.workset))


class GatherCoordinatesShape(GatherCoordinates):
    """Copies coordinates and seeds their shape-parameter derivatives.

    The seed columns come from the precalculated coordinate sensitivities, so
    downstream geometry quantities carry d(.)/dp automatically.
    """

    def _value(self, ws):
        return sc.Dual(super()._value(ws),
                       self.state.Xp[self.conn.node_conn[ws.elements]])


class GatherSolution(_Specialized):
    """Plain copy of the solution vector into the workset fields.

    Each specialization only overrides ``_value``, the element-local scalar
    of one unknown. ``evaluate`` assigns it to the whole field, and plain
    values assigned to dual storage get zero partials.
    """

    name = "gather_solution"

    def __init__(self, state, unknowns):
        super().__init__(state, unknowns)
        self.evaluates = tuple(
            FieldSpec(f"{u}_node", ("elem", "node"), "solution")
            for u in self.unknowns)

    @staticmethod
    def bind(state, x=None):
        """Check this type's inputs and store them in ``state``. Returns the
        arena keys (``deriv_width``, ``basis``, ``samples``) and the seeds
        (``tangent_params``, ``uncertain``, ``basis``) from which
        ``ParameterLibrary.push`` promotes the parameters once per assembly."""
        state.x = _required(x, "the solution vector x")
        return {}, {}

    def _dofs(self, ws, eq):
        return self.conn.dof[ws.elements, :, eq]

    def _identity(self, eq):
        """Seeds of unknown eq, (nodes, dofs): row n is e_(n * n_eq + eq)."""
        return np.eye(self.conn.dofs_per_element)[eq::len(self.unknowns)]

    def _value(self, ws, eq):
        return self.state.x[self._dofs(ws, eq)]

    def evaluate(self, ctx):
        for eq, u in enumerate(self.unknowns):
            sc.copy_into(ctx.field(f"{u}_node"), self._value(ctx.workset, eq))


class GatherSolutionJacobian(GatherSolution):
    """Gathers values and seeds d(local x)/d(local x) with the identity."""

    @staticmethod
    def bind(state, x=None):
        GatherSolution.bind(state, x)
        return {"deriv_width": state.system.conn.dofs_per_element}, {}

    def _value(self, ws, eq):
        # the seeds broadcast over the workset's elements
        return sc.Dual(super()._value(ws, eq), self._identity(eq))


class GatherSolutionTangent(GatherSolution):
    """Zero solution partials (parameters seed themselves), or the direction
    v for directional-derivative assemblies."""

    @staticmethod
    def bind(state, x=None, tangent_params=(), v=None):
        GatherSolution.bind(state, x)
        if v is not None:
            state.v = np.asarray(v, dtype=float)
            return {"deriv_width": 1}, {}
        if not tangent_params:
            raise ValueError("tangent assembly needs tangent_params or a direction v")
        return ({"deriv_width": len(tangent_params)},
                {"tangent_params": tuple(tangent_params)})

    def _value(self, ws, eq):
        x = super()._value(ws, eq)
        if self.state.v is None:
            return x
        return sc.Dual(x, self.state.v[self._dofs(ws, eq)][:, :, None])


class GatherSolutionShapeTangent(GatherSolutionTangent):
    """Zero solution partials; the coordinate gather seeds d/dp from Xp."""

    @staticmethod
    def bind(state, x=None, Xp=None):
        GatherSolution.bind(state, x)
        state.Xp = _required(Xp, "the coordinate sensitivities Xp")
        return {"deriv_width": state.Xp.shape[-1]}, {}


class GatherSolutionSG(GatherSolution):
    @staticmethod
    def bind(state, x_block=None, uncertain=None):
        if state.sg_basis is None:
            raise ValueError("spectral assembly needs the model built with sg_basis")
        state.x = _required(x_block, "the block unknowns x_block")
        return ({"basis": state.sg_basis},
                {"uncertain": uncertain, "basis": state.sg_basis})

    def _value(self, ws, eq):
        return sc.PCE(np.moveaxis(self.state.x[:, self._dofs(ws, eq)], 0, -1),
                      self.state.sg_basis)


class GatherSolutionSGJacobian(GatherSolutionSG):
    @staticmethod
    def bind(state, x_block=None, uncertain=None):
        keys, seeds = GatherSolutionSG.bind(state, x_block, uncertain)
        return dict(keys, deriv_width=state.system.conn.dofs_per_element), seeds

    def _value(self, ws, eq):
        basis = self.state.sg_basis
        mean = np.arange(basis.size) == 0   # deterministic seeds
        return sc.Dual(super()._value(ws, eq),
                       sc.PCE(self._identity(eq)[:, :, None] * mean, basis))


class GatherSolutionEnsemble(GatherSolution):
    @staticmethod
    def bind(state, x_block=None):
        state.x = _required(x_block, "the block unknowns x_block")
        return {"samples": state.x.shape[0]}, {}

    def _value(self, ws, eq):
        return sc.Ensemble(self.state.x[:, self._dofs(ws, eq)])


# ---------------------------------------------------------------------------
# scatter evaluators (extract + scatter fused, straight into the globals)
# ---------------------------------------------------------------------------

class ScatterResidual(_Specialized):
    """Adds the workset's residual rows into ``f``; every scatter's
    ``targets`` name the global objects its ``evaluate`` adds into."""

    name = "scatter_residual"
    targets = ("f",)
    evaluates = (FieldSpec("residual_scattered", ("elem",), "real"),)

    def __init__(self, state, unknowns):
        super().__init__(state, unknowns)
        self.depends = tuple(
            FieldSpec(f"{u}_residual", ("elem", "node"), "solution")
            for u in self.unknowns)

    def _local(self, ctx, part, trailing=()):
        """Element-local block (n_ws, n_nodes, n_eq, *trailing) of one part
        of the residual storage, e.g. its values or its partials."""
        n_ws, n_nodes = ctx.workset.size, self.conn.node_conn.shape[1]
        out = np.empty((n_ws, n_nodes, len(self.unknowns)) + trailing)
        for eq, u in enumerate(self.unknowns):
            out[:, :, eq] = part(ctx.field(f"{u}_residual"))
        return out

    def _add_at_dofs(self, ctx, name, local):
        _add_rows(self.state.targets[name],
                  self.conn.dof[ctx.workset.elements].ravel(), local)

    def _add_at_entries(self, ctx, name, local):
        """Element matrices into CSR data at their pattern positions."""
        _add_rows(self.state.targets[name],
                  self.state.system.positions[ctx.workset.elements].ravel(), local)

    def evaluate(self, ctx):
        self._add_at_dofs(ctx, "f", self._local(ctx, lambda data: data))


class ScatterJacobian(ScatterResidual):
    """Values go to the residual; derivative rows go to the stiffness entries."""

    targets = ("f", "jac")

    def evaluate(self, ctx):
        nd = self.conn.dofs_per_element
        self._add_at_dofs(ctx, "f", self._local(ctx, lambda data: data.val))
        self._add_at_entries(ctx, "jac",
                             self._local(ctx, lambda data: data.dx, (nd,)))


class ScatterTangent(ScatterResidual):
    """Extracts d(residual)/d(parameter) columns alongside the values."""

    targets = ("f", "fp")

    def evaluate(self, ctx):
        width = self.state.targets["fp"].shape[1]
        self._add_at_dofs(ctx, "f", self._local(ctx, lambda data: data.val))
        self._add_at_dofs(ctx, "fp",
                          self._local(ctx, lambda data: data.dx, (width,)))


class ScatterSGResidual(ScatterResidual):
    targets = ("F",)

    def evaluate(self, ctx):
        size = self.state.targets["F"].shape[1]
        self._add_at_dofs(ctx, "F",
                          self._local(ctx, lambda data: data.coeffs, (size,)))


class ScatterSGJacobian(ScatterResidual):
    targets = ("F", "jac_blocks")

    def evaluate(self, ctx):
        size = self.state.targets["F"].shape[1]
        nd = self.conn.dofs_per_element
        self._add_at_dofs(
            ctx, "F", self._local(ctx, lambda data: data.val.coeffs, (size,)))
        self._add_at_entries(
            ctx, "jac_blocks",
            self._local(ctx, lambda data: data.dx.coeffs, (nd, size)))


class ScatterEnsembleResidual(ScatterResidual):
    """Adds every sample's residual rows into the flattened (samples,
    num_dofs) residual: sample s's rows are the plain rows plus s num_dofs,
    in the plain order, so each entry sums its terms in the plain order."""

    def evaluate(self, ctx):
        ws = ctx.workset
        f = self.state.targets["f"]
        vals = np.empty((f.shape[0], ws.size, self.conn.node_conn.shape[1],
                         len(self.unknowns)))
        for eq, u in enumerate(self.unknowns):
            vals[..., eq] = ctx.field(f"{u}_residual").vals
        offsets = np.arange(f.shape[0])[:, None] * f.shape[1]
        _add_rows(f.reshape(-1),
                  (offsets + self.conn.dof[ws.elements].ravel()).ravel(), vals)


#: one row per evaluation type: its coordinate gather, solution gather and
#: scatter
_SPECIALIZATIONS = {
    RESIDUAL.tag: (GatherCoordinates, GatherSolution, ScatterResidual),
    JACOBIAN.tag: (GatherCoordinates, GatherSolutionJacobian, ScatterJacobian),
    TANGENT.tag: (GatherCoordinates, GatherSolutionTangent, ScatterTangent),
    SHAPE_TANGENT.tag: (GatherCoordinatesShape, GatherSolutionShapeTangent,
                        ScatterTangent),
    SG_RESIDUAL.tag: (GatherCoordinates, GatherSolutionSG, ScatterSGResidual),
    SG_JACOBIAN.tag: (GatherCoordinates, GatherSolutionSGJacobian,
                      ScatterSGJacobian),
    ENSEMBLE_RESIDUAL.tag: (GatherCoordinates, GatherSolutionEnsemble,
                            ScatterEnsembleResidual),
}


def specializations(ev_type, state, unknowns):
    """The coordinate gather, solution gather and scatter of ``ev_type``'s
    row; a type without a row raises ``KeyError`` with its tag."""
    return [cls(state, unknowns) for cls in _SPECIALIZATIONS[ev_type.tag]]


# ---------------------------------------------------------------------------
# one assembly: bind the inputs, (execute the graph per workset), finish
# ---------------------------------------------------------------------------

def bind(ev_type, state, x=None, **inputs):
    """Check and store one assembly's inputs through the type's gather and
    allocate the global objects its scatter names. Returns the arena keys
    and the parameter seeds."""
    _, gather, scatter = _SPECIALIZATIONS[ev_type.tag]
    state.x = state.v = state.Xp = None
    if x is not None:
        inputs["x"] = x
    keys, seeds = gather.bind(state, **inputs)
    state.targets = _zeros(scatter.targets, state.system, **keys)
    return keys, seeds


def _zeros(names, system, deriv_width=None, basis=None, samples=None):
    """Zeroed global objects by name: the residual ``f`` (one row per
    sample), tangent columns ``fp``, spectral residual ``F`` and the CSR data
    ``jac`` and ``jac_blocks`` (one column per chaos coefficient)."""
    n, nnz = system.num_dofs, system.nnz
    size = None if basis is None else basis.size
    shapes = {"f": (n,) if samples is None else (samples, n),
              "fp": (n, deriv_width), "F": (n, size),
              "jac": (nnz,), "jac_blocks": (nnz, size)}
    return {name: np.zeros(shapes[name]) for name in names}


@dataclass
class AssemblyOutputs:
    """Per-type results; the residual value component is always filled."""

    residual: np.ndarray = None    # (samples, num_dofs) for the ensemble type
    jacobian: object = None        # scipy CSR
    tangent: np.ndarray = None     # (num_dofs, n_params)
    directional: np.ndarray = None
    sg_residual: np.ndarray = None # (n_coeffs, num_dofs)
    sg_jacobian: list = None       # one CSR per coefficient


class DirichletRows:
    """Dofs and values of the Dirichlet conditions, with the CSR data
    positions of their rows and diagonals found once per model."""

    def __init__(self, system, dofs, values):
        self.dofs = dofs
        self.values = values
        self.entries = system.row_entry_indices(dofs)
        self.diag = system.diagonal[dofs]


def finish(state, dirichlet):
    """Replace the Dirichlet rows of whichever global objects the scatter
    filled (f <- x - g, J rows <- identity) and return them as outputs."""
    targets, state.targets = state.targets, {}
    d, g = dirichlet.dofs, dirichlet.values
    out = AssemblyOutputs()
    if "F" in targets:
        F = targets["F"]
        F[d, :] = state.x[:, d].T
        F[d, 0] -= g
        out.residual = F[:, 0].copy()
        out.sg_residual = np.ascontiguousarray(F.T)
    else:
        out.residual = targets["f"]
        out.residual[..., d] = state.x[..., d] - g
    if "fp" in targets:
        fp = targets["fp"]
        if state.v is not None:
            fp[d, 0] = state.v[d]
            out.directional = fp[:, 0].copy()
        else:
            fp[d, :] = 0.0
            out.tangent = fp
    if "jac" in targets:
        jac = targets["jac"]
        jac[dirichlet.entries] = 0.0
        jac[dirichlet.diag] = 1.0
        out.jacobian = state.system.matrix_from_data(jac)
    if "jac_blocks" in targets:
        blocks = targets["jac_blocks"]
        blocks[dirichlet.entries, :] = 0.0
        blocks[dirichlet.diag, 0] = 1.0
        out.sg_jacobian = [state.system.matrix_from_data(blocks[:, k].copy())
                           for k in range(blocks.shape[1])]
    return out
