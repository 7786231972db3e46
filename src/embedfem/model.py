"""Problem driver: wires mesh, physics, and per-type evaluator graphs.

The model builds each type-blind kernel once; a type's graph is its row of
``assembly._SPECIALIZATIONS`` (coordinate gather, solution gather, scatter)
around those shared kernels.

``ThermoElectricModel.assemble`` realizes one loop for every evaluation type

    gather.bind; library.push; scatter.start;
    for each workset in element order: gather -> kernels -> scatter;
    scatter.finish

without testing which type it runs: the type's solution gather checks and
binds its inputs and names the seeds from which the library promotes the
parameters once; its scatter allocates the global objects it fills, adds each
workset's rows straight into them and finishes them by Dirichlet row
replacement (row <- e_i, f <- x - g), which keeps the sparse pattern static
and is transparent to every embedded derivative.
``ThermoElectricModel.residuals`` runs the same loop once for a whole block of
states under the ensemble type.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .analysis import LUOrder, sparse_lu
from .assembly import (AssemblyState, ConnectivityMap, DirichletRows,
                       GlobalSystem, build_worksets, specializations)
from .discretization import (ElementGeometryEvaluator, SolutionAtQPEvaluator,
                             bilinear_basis)
from .graph import (ENSEMBLE_RESIDUAL, EVALUATION_TYPES, JACOBIAN, RESIDUAL,
                    SG_JACOBIAN, SG_RESIDUAL, SHAPE_TANGENT, TANGENT,
                    WorksetContext, instantiate_for_all_types)
from .mesh import nested_dissection
from .physics import (ConductivityEvaluator, ElementMaterials,
                      HeatResidualEvaluator, JouleHeatingEvaluator,
                      ParameterLibrary, PotentialResidualEvaluator,
                      QuadraticSourceEvaluator, TabulatedSourceEvaluator,
                      objective_max_temperature)

UNKNOWNS = ("psi", "temp")
N_EQ = len(UNKNOWNS)


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
        self.state = AssemblyState(self.system, mesh.coords.copy(), sg_basis)
        self.library = ParameterLibrary()
        self._ends = {}   # each type's solution gather and scatter

        lib = self.library
        mats = ElementMaterials(materials, mesh.region_of)
        # the type-blind evaluators, built once and shared by every graph
        geometry = ElementGeometryEvaluator(self.basis)
        kernels = [SolutionAtQPEvaluator("psi"), SolutionAtQPEvaluator("temp"),
                   ConductivityEvaluator(mats, lib)]
        if with_joule:
            kernels.append(JouleHeatingEvaluator())
        kernels.append(QuadraticSourceEvaluator(lib) if mms_forcing is None
                       else TabulatedSourceEvaluator(mms_forcing))
        kernels += [PotentialResidualEvaluator(),
                    HeatResidualEvaluator(mats, with_joule=with_joule)]


        def evaluators(ev_type):
            coords, solution, scatter = specializations(ev_type, self.state,
                                                        UNKNOWNS)
            self._ends[ev_type] = solution, scatter
            return [coords, geometry, solution, *kernels, scatter]

        self.graphs = instantiate_for_all_types(
            evaluators, EVALUATION_TYPES + (ENSEMBLE_RESIDUAL,),
            ["residual_scattered"],
            dim_sizes={"node": self.basis.num_nodes, "qp": self.basis.num_qp,
                       "dim": 2, "eq": N_EQ})

        self.dirichlet = DirichletRows(self.system,
                                       *self._build_dirichlet(dirichlet))

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

    # One nested-dissection order of the mesh nodes serves every sparse LU.
    # Each order is built on first use, so a model that never solves (the
    # FD oracle's) never pays for it.

    @cached_property
    def _node_order(self):
        return nested_dissection(self.mesh)

    @cached_property
    def lu_order(self):
        """Order of the Jacobian pattern, the dofs of each node together."""
        dofs = self._node_order[:, None] * N_EQ + np.arange(N_EQ)
        return LUOrder.of(self.system.indptr, self.system.indices, dofs.ravel())

    @cached_property
    def potential_order(self):
        """Order of the potential (psi) block of the Jacobian pattern."""
        return LUOrder.of(self.system.indptr, self.system.indices,
                          self._node_order * N_EQ + UNKNOWNS.index("psi"))

    def set_coords(self, coords):
        """Swap node coordinates (mesh morphing); topology stays fixed."""
        self.state.coords = np.asarray(coords, dtype=float)

    def reset_coords(self):
        self.state.coords = self.mesh.coords.copy()

    def initial_guess(self):
        x = np.zeros(self.num_dofs)
        x[self.dirichlet.dofs] = self.dirichlet.values
        return x

    def warm_start(self):
        """Initial guess with the potential block pre-solved at T = 0.

        A plain zero guess leaves a one-element jump in psi at its Dirichlet
        sets, whose quadratic Joule source is mesh-singular and throws the
        first Newton step far outside the validity range of sigma(T). Solving
        the (then linear, decoupled) potential sub-block once removes that
        spike; the temperature stays at the reference value.
        """
        x = self.initial_guess()
        f, jac = self.jacobian(x)
        psi = np.arange(UNKNOWNS.index("psi"), self.num_dofs, N_EQ)
        solve = sparse_lu(jac, self.potential_order,
                          "LU factorization of the potential block")
        x[psi] -= solve(f[psi])
        return x

    def objective(self, x):
        return objective_max_temperature(x, n_eq=N_EQ,
                                         temp_eq=UNKNOWNS.index("temp"))

    # -- assembly -------------------------------------------------------------

    def assemble(self, ev_type, *args, **inputs):
        """Assemble one of the six ``EVALUATION_TYPES`` from the inputs its
        solution gather's ``bind`` takes; see ``_assemble``.

        The ensemble type has its own entry point, :meth:`residuals`.
        """
        if ev_type not in EVALUATION_TYPES:
            raise ValueError(f"{ev_type.tag} is not one of the six analysis "
                             "types; ensemble residuals are assembled by "
                             "residuals()")
        return self._assemble(ev_type, *args, **inputs)

    def _assemble(self, ev_type, *args, **inputs):
        """One pass of the module docstring's loop for ``ev_type``."""
        gather, scatter = self._ends[ev_type]
        keys, seeds = gather.bind(*args, **inputs)
        self.library.push(**seeds)
        scatter.start(**keys)
        graph = self.graphs[ev_type]
        try:
            for ws in self.worksets:
                graph.execute(WorksetContext(ws, graph.arena_for(ws.size, **keys)))
        except BaseException:
            scatter.release()
            raise
        return scatter.finish(self.dirichlet)

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
