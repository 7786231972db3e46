"""Problem driver: wires mesh, physics, and per-type evaluator graphs.

``ThermoElectricModel.assemble`` realizes the workset loop

    zero globals; for each workset: gather -> execute graph -> scatter

with the staged contributions merged in element order, then applies Dirichlet
conditions by row replacement (row <- e_i, f <- x - g), which keeps the sparse
pattern static and is transparent to every embedded derivative.
``ThermoElectricModel.residuals`` runs the same loop once for a whole block of
states under the ensemble type.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import scalars as sc
from .analysis import SolveFailure
from .assembly import (AssemblyState, ConnectivityMap, GlobalSystem,
                       build_worksets, gather_coordinates_registrar,
                       gather_solution_registrar, scatter_residual_registrar)
from .discretization import (ElementGeometryEvaluator, SolutionAtQPEvaluator,
                             bilinear_basis)
from .graph import (ENSEMBLE_RESIDUAL, EVALUATION_TYPES, JACOBIAN, RESIDUAL,
                    SG_JACOBIAN, SG_RESIDUAL, SHAPE_TANGENT, TANGENT,
                    WorksetContext, instantiate_for_all_types)
from .physics import (ConductivityEvaluator, ElementMaterials,
                      HeatResidualEvaluator, JouleHeatingEvaluator,
                      ParameterLibrary, PotentialResidualEvaluator,
                      QuadraticSourceEvaluator, TabulatedSourceEvaluator,
                      objective_max_temperature)

UNKNOWNS = ("psi", "temp")
N_EQ = len(UNKNOWNS)


def _add_rows(target, rows, vals):
    """``target[rows[i]] += vals[i]`` in the order of i, as one 1-D ``add.at``
    over a contiguous target's flat entries: numpy's multi-dimensional
    ``add.at`` is several times slower and adds in the same order."""
    width = target[0].size
    if width > 1:
        rows = (rows[:, None] * width + np.arange(width)).ravel()
    np.add.at(target.reshape(-1), rows, vals.reshape(-1))


@dataclass
class AssemblyOutputs:
    """Per-type results; the residual value component is always filled."""

    residual: np.ndarray = None    # (samples, num_dofs) for the ensemble type
    jacobian: object = None        # scipy CSR
    tangent: np.ndarray = None     # (num_dofs, n_params)
    directional: np.ndarray = None
    sg_residual: np.ndarray = None # (n_coeffs, num_dofs)
    sg_jacobian: list = None       # one CSR per coefficient


class ThermoElectricModel:
    """Coupled potential/heat model on a region-tagged quad mesh."""

    def __init__(self, mesh, materials, *, quad_order=2, workset_size=0,
                 sg_basis=None, with_joule=True, mms_forcing=None,
                 dirichlet=()):
        self.mesh = mesh
        self.materials = materials
        self.basis = bilinear_basis(quad_order)
        self.conn = ConnectivityMap(mesh.connectivity, N_EQ)
        self.system = GlobalSystem(self.conn)
        self.worksets = build_worksets(mesh, workset_size)
        self.sg_basis = sg_basis
        self.state = AssemblyState()
        self.state.coords = mesh.coords.copy()
        self.base_coords = mesh.coords.copy()
        self.library = ParameterLibrary()

        lib = self.library
        mats = ElementMaterials(materials, mesh.region_of)
        # one geometry cache for every type whose coordinates are plain values
        geometry_cache = {}
        registrars = [
            gather_coordinates_registrar(self.state, self.conn),
            lambda ev_type: ElementGeometryEvaluator(
                self.basis,
                geometry_cache if ev_type.mesh_kind == "real" else None),
            gather_solution_registrar(self.state, self.conn, UNKNOWNS),
            lambda ev_type: SolutionAtQPEvaluator("psi", self.basis),
            lambda ev_type: SolutionAtQPEvaluator("temp", self.basis),
            lambda ev_type: ConductivityEvaluator(mats, lib, ev_type),
        ]
        if with_joule:
            registrars.append(lambda ev_type: JouleHeatingEvaluator())
        if mms_forcing is not None:
            registrars.append(lambda ev_type: TabulatedSourceEvaluator(mms_forcing))
        else:
            registrars.append(lambda ev_type: QuadraticSourceEvaluator(lib, ev_type))
        registrars.append(lambda ev_type: PotentialResidualEvaluator())
        registrars.append(lambda ev_type: HeatResidualEvaluator(
            mats, with_joule=with_joule))
        registrars.append(scatter_residual_registrar(self.state, self.conn, UNKNOWNS))

        self.graphs = instantiate_for_all_types(
            registrars, EVALUATION_TYPES + (ENSEMBLE_RESIDUAL,),
            ["residual_scattered"],
            dim_sizes={"node": self.basis.num_nodes, "qp": self.basis.num_qp,
                       "dim": 2, "eq": N_EQ})
        self.library.freeze()

        self.dirichlet_dofs, self.dirichlet_values = self._build_dirichlet(dirichlet)
        # CSR data positions of the Dirichlet rows and of their diagonals
        self._dirichlet_entries = self.system.row_entry_indices(self.dirichlet_dofs)
        self._dirichlet_diag = self.system.diag_indices(self.dirichlet_dofs)

    # -- configuration --------------------------------------------------------

    def _build_dirichlet(self, entries):
        dofs, values = [], []
        for set_name, unknown, value in entries:
            nodes = self.mesh.node_sets[set_name]
            eq = UNKNOWNS.index(unknown)
            dofs.append(nodes * N_EQ + eq)
            if callable(value):
                xy = self.mesh.coords[nodes]
                values.append(np.asarray(value(xy[:, 0], xy[:, 1]), dtype=float))
            else:
                values.append(np.full(len(nodes), float(value)))
        if not dofs:
            return np.empty(0, dtype=np.int64), np.empty(0)
        dofs = np.concatenate(dofs)
        values = np.concatenate(values)
        dofs, keep = np.unique(dofs, return_index=True)
        return dofs, values[keep]

    @property
    def num_dofs(self):
        return self.system.num_dofs

    def set_coords(self, coords):
        """Swap node coordinates (mesh morphing); topology stays fixed."""
        self.state.coords = np.asarray(coords, dtype=float)

    def reset_coords(self):
        self.state.coords = self.base_coords.copy()

    def initial_guess(self):
        x = np.zeros(self.num_dofs)
        x[self.dirichlet_dofs] = self.dirichlet_values
        return x

    def warm_start(self):
        """Initial guess with the potential block pre-solved at T = 0.

        A plain zero guess leaves a one-element jump in psi at its Dirichlet
        sets, whose quadratic Joule source is mesh-singular and throws the
        first Newton step far outside the validity range of sigma(T). Solving
        the (then linear, decoupled) potential sub-block once removes that
        spike; the temperature stays at the reference value.
        """
        import scipy.sparse.linalg as spla

        x = self.initial_guess()
        f, jac = self.jacobian(x)
        psi = np.arange(UNKNOWNS.index("psi"), self.num_dofs, N_EQ)
        try:
            lu = spla.splu(jac[psi][:, psi].tocsc())
        except RuntimeError as err:
            raise SolveFailure("LU factorization of the potential block "
                               f"failed: {str(err).strip()}") from err
        x[psi] -= lu.solve(f[psi])
        return x

    def objective(self, x):
        return objective_max_temperature(x, n_eq=N_EQ,
                                         temp_eq=UNKNOWNS.index("temp"))

    # -- assembly -------------------------------------------------------------

    def assemble(self, ev_type, x=None, **inputs):
        """Assemble one of the six ``EVALUATION_TYPES``; see ``_assemble``.

        The ensemble type has its own entry point, :meth:`residuals`.
        """
        if ev_type is ENSEMBLE_RESIDUAL:
            raise ValueError("ensemble residuals are assembled by residuals()")
        return self._assemble(ev_type, x, **inputs)

    def _assemble(self, ev_type, x=None, *, tangent_params=(), v=None, Xp=None,
                  x_block=None, uncertain=None):
        state = self.state
        state.tangent_mode = "parameters"
        state.v = None
        state.Xp = None
        basis_needed = ev_type in (SG_RESIDUAL, SG_JACOBIAN)
        if basis_needed and self.sg_basis is None:
            raise ValueError("spectral assembly needs the model built with sg_basis")
        if basis_needed or ev_type is ENSEMBLE_RESIDUAL:
            if x_block is None:
                raise ValueError(f"{ev_type.tag} assembly needs the block "
                                 "unknown vector")
            state.x_block = np.asarray(x_block, dtype=float)
            state.x = state.x_block[0]
        else:
            if x is None:
                raise ValueError("assembly needs the solution vector")
            state.x = np.asarray(x, dtype=float)

        width = samples = None
        if ev_type is JACOBIAN or ev_type is SG_JACOBIAN:
            width = self.conn.dofs_per_element
        elif ev_type is TANGENT:
            if v is not None:
                state.tangent_mode = "direction"
                state.v = np.asarray(v, dtype=float)
                width = 1
                tangent_params = ()
            else:
                if not tangent_params:
                    raise ValueError("tangent assembly needs parameters or a direction")
                width = len(tangent_params)
        elif ev_type is SHAPE_TANGENT:
            if Xp is None:
                raise ValueError("shape-tangent assembly needs coordinate sensitivities")
            state.Xp = np.asarray(Xp, dtype=float)
            width = state.Xp.shape[-1]
        elif ev_type is ENSEMBLE_RESIDUAL:
            samples = state.x_block.shape[0]
        state.n_deriv = width

        self.library.push(ev_type, tangent_params=tuple(tangent_params),
                          uncertain=uncertain, basis=self.sg_basis)

        graph = self.graphs[ev_type]
        sg_basis = self.sg_basis if basis_needed else None
        staged = []
        for ws in self.worksets:
            arena = graph.arena_for(ws.size, deriv_width=width, basis=sg_basis,
                                    samples=samples)
            ctx = WorksetContext(ws, arena)
            graph.execute(ctx)
            staged.append(ctx.staged)
        return self._merge(ev_type, staged, width)

    def _merge(self, ev_type, staged, width):
        out = AssemblyOutputs()
        system = self.system
        n = self.num_dofs
        state = self.state
        x = state.x_block if ev_type is ENSEMBLE_RESIDUAL else state.x
        f = np.zeros(x.shape)   # (samples, num_dofs) for the ensemble type
        jac_data = fp = spectral = jac_blocks = None
        if ev_type is JACOBIAN:
            jac_data = system.new_matrix_data()
        if ev_type is TANGENT or ev_type is SHAPE_TANGENT:
            fp = np.zeros((n, width))
        if ev_type is SG_RESIDUAL or ev_type is SG_JACOBIAN:
            spectral = np.zeros((n, self.sg_basis.size))
        if ev_type is SG_JACOBIAN:
            jac_blocks = system.new_matrix_data((self.sg_basis.size,))

        for ws, stage in zip(self.worksets, staged):
            for key, target in (("f", f.reshape(-1)), ("fp", fp), ("F", spectral)):
                if key in stage:
                    _add_rows(target, *stage[key])
            pos = system.positions[ws.elements].ravel()
            for key, target in (("jac", jac_data), ("jac_blocks", jac_blocks)):
                if key in stage:
                    _add_rows(target, pos, stage[key])

        # Dirichlet row replacement: f <- x - g, J rows <- identity
        d = self.dirichlet_dofs
        g = self.dirichlet_values
        if spectral is not None:
            spectral[d, :] = state.x_block[:, d].T
            spectral[d, 0] -= g
            f = spectral[:, 0].copy()
        else:
            f[..., d] = x[..., d] - g
        out.residual = f

        if jac_data is not None:
            jac_data[self._dirichlet_entries] = 0.0
            jac_data[self._dirichlet_diag] = 1.0
            out.jacobian = system.matrix_from_data(jac_data)
        if fp is not None:
            if state.tangent_mode == "direction":
                fp[d, 0] = state.v[d]
                out.directional = fp[:, 0].copy()
            else:
                fp[d, :] = 0.0
                out.tangent = fp
        if spectral is not None:
            out.sg_residual = np.ascontiguousarray(spectral.T)
        if jac_blocks is not None:
            jac_blocks[self._dirichlet_entries, :] = 0.0
            jac_blocks[self._dirichlet_diag, 0] = 1.0
            out.sg_jacobian = [system.matrix_from_data(jac_blocks[:, k].copy())
                               for k in range(self.sg_basis.size)]
        return out

    # -- convenience wrappers ---------------------------------------------------

    def residual(self, x):
        return self.assemble(RESIDUAL, x).residual

    def residuals(self, x_block):
        """Residuals of the S states in the rows of ``x_block`` (S, num_dofs)
        from one ensemble assembly; row s is bitwise ``residual(x_block[s])``.

        Goes straight to the assembly driver: ``assemble`` serves the six
        analysis types only.
        """
        return self._assemble(ENSEMBLE_RESIDUAL, x_block=x_block).residual

    def jacobian(self, x):
        out = self.assemble(JACOBIAN, x)
        return out.residual, out.jacobian

    def tangent(self, x, params):
        out = self.assemble(TANGENT, x, tangent_params=tuple(params))
        return out.residual, out.tangent

    def directional(self, x, v):
        return self.assemble(TANGENT, x, v=v).directional

    def shape_tangent(self, x, Xp):
        out = self.assemble(SHAPE_TANGENT, x, Xp=Xp)
        return out.residual, out.tangent

    def sg_residual(self, x_block, uncertain):
        return self.assemble(SG_RESIDUAL, x_block=x_block,
                             uncertain=uncertain).sg_residual

    def sg_jacobian(self, x_block, uncertain):
        out = self.assemble(SG_JACOBIAN, x_block=x_block, uncertain=uncertain)
        return out.sg_residual, out.sg_jacobian
