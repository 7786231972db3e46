"""Built-in oracle suite: AD vs finite differences, manufactured solutions,
and the intrusive-vs-non-intrusive spectral cross check.

These routines back the ``verify`` run mode and the acceptance tests. Every
check compares the embedded-derivative path against an independent route:
divided differences of the plain residual, an analytic manufactured solution,
or sampled deterministic solves projected onto the spectral basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import scalars as sc
from .analysis import (NewtonConfig, SolveFailure, newton_solve,
                       nisp_project, sg_functional_expansion, sg_newton_solve)
from .discretization import element_geometry, element_tables, interpolate_to_qp
from .mesh import build_rect_mesh
from .model import ThermoElectricModel, UNKNOWNS
from .physics import MaterialTable, RegionMaterial


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def row(self):
        status = "PASS" if self.passed else "FAIL"
        return (self.name, status, self.measured, self.tolerance, self.detail)


#: element-samples per ensemble assembly in ``fd_jacobian``: the 16x16
#: strip's 256 elements times its 36 perturbed states. Bigger meshes evaluate
#: fewer states at once, which bounds the ensemble's field buffers.
_ENSEMBLE_ELEMENT_SAMPLES = 256 * 36
#: and at most 12 states per assembly. On the 16x16 strip all 36 states at
#: once make every kernel temporary 288 KiB; malloc then trims the top of the
#: heap after each kernel and faults it back in: 1,728 minor page faults per
#: fd-verify op against none with 12, and the op took 21.1 ms against 18.0 ms
#: (medians of 6 alternating processes of 40 ops each, slower in 5 of 6).
_ENSEMBLE_MAX_SAMPLES = 12


def fd_jacobian(model, x):
    """Central-difference Jacobian of the assembled residual, as CSR on the
    model's static pattern.

    Column j takes the step h_j = 1e-6 (1 + |x_j|). All columns of
    one color of ``model.system.column_colors`` share no row, and each row's
    residual depends only on the unknowns of its own stencil, so one pair of
    residuals per color gives every entry bitwise the divided difference that
    perturbing its column alone would give. The perturbed states go through
    ``model.residuals`` in groups of colors, each sample bitwise a plain
    residual, and one gather reads every entry off its column's color.
    """
    system = model.system
    colors = system.column_colors
    n_colors = int(colors.max()) + 1
    h = 1e-6 * (1.0 + np.abs(x))
    rows = np.repeat(np.arange(x.size), np.diff(system.indptr))
    cols = system.indices
    diffs = np.empty((n_colors, x.size))
    per_call = max(1, min(_ENSEMBLE_ELEMENT_SAMPLES // model.mesh.num_elems,
                          _ENSEMBLE_MAX_SAMPLES) // 2)
    for first in range(0, n_colors, per_call):
        # rows 2k and 2k + 1: color first + k stepped up and down
        groups = colors == np.arange(first, min(first + per_call, n_colors))[:, None]
        states = np.empty((2 * len(groups), x.size))
        states[0::2] = np.where(groups, x + h, x)
        states[1::2] = np.where(groups, x - h, x)
        res = model.residuals(states)
        diffs[first:first + len(groups)] = res[0::2] - res[1::2]
    return system.matrix_from_data(diffs[colors[cols], rows] / (2.0 * h[cols]))


def jacobian_fd_error(model, x):
    """Max entry deviation between the embedded and divided-difference
    Jacobians, measured relative to the matrix scale.

    Entries below the scale of the matrix cannot be resolved better than the
    divided-difference noise floor, so the per-entry denominator never drops
    under max|J_fd|. Both matrices hold the model's CSR pattern, so their
    data arrays align entry for entry; outside the pattern both are zero.
    """
    _, jac = model.jacobian(x)
    fd = fd_jacobian(model, x).data
    emb = jac.data
    scale = np.max(np.abs(fd))
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(emb)), scale)
    return float(np.max(np.abs(emb - fd) / denom))


def check_jacobian_fd(model):
    """The FD-vs-AD error at one seeded random state, within 1e-6."""
    tol = 1e-6
    rng = np.random.default_rng(0)
    x = model.initial_guess() + 0.3 * rng.normal(size=model.num_dofs)
    err = jacobian_fd_error(model, x)
    return CheckResult("jacobian_vs_fd", err <= tol, err, tol,
                       "1 random state(s)")


# ---------------------------------------------------------------------------
# method of manufactured solutions on the heat equation
# ---------------------------------------------------------------------------

def _mms_model(n, velocity=(-3.0, 1.0), kappa=1.0):
    """Heat-only setup on the unit square: Joule coupling disabled.

    Manufactured temperature T* = sin(pi x) sin(pi y) + x with the forcing
    s* = kappa lap T* + v . grad T*, which makes T* the exact solution of the
    assembled heat residual; psi solves a decoupled harmonic problem.
    """
    mesh = build_rect_mesh(n, n)

    def exact(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y) + x

    def forcing(x, y):
        lap = -2.0 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)
        grad = (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y) + 1.0,
                np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))
        return kappa * lap + velocity[0] * grad[0] + velocity[1] * grad[1]

    materials = MaterialTable(
        conductor=RegionMaterial(1.0, kappa, tuple(velocity), 0.0, 0.0),
        pad=RegionMaterial(1.0, kappa, (0.0, 0.0), 0.0, 0.0),
        slider=RegionMaterial(1.0, kappa, (0.0, 0.0), 0.0, 0.0))
    bc = [("left", "psi", 0.0), ("right", "psi", 0.5),
          ("boundary", "temp", exact)]
    model = ThermoElectricModel(mesh, materials, with_joule=False,
                                mms_forcing=forcing, dirichlet=bc)
    return model, exact


def _l2_error(model, x, exact):
    mesh = model.mesh
    basis = model.basis
    coords = model.state.coords[mesh.connectivity]
    _, _, det_w = element_geometry(coords, basis)
    bf = element_tables(basis.values, mesh.num_elems)
    temp_eq = UNKNOWNS.index("temp")
    nodal = x[temp_eq::len(UNKNOWNS)][mesh.connectivity]
    t_h = interpolate_to_qp(nodal, bf)
    x_qp = interpolate_to_qp(coords[:, :, 0], bf)
    y_qp = interpolate_to_qp(coords[:, :, 1], bf)
    err = t_h - exact(x_qp, y_qp)
    # element-fastest terms: sum in C order (pairwise sums follow memory)
    return float(np.sqrt(np.ascontiguousarray(err * err * det_w).sum()))


def mms_convergence(sizes=(8, 16, 32), config=None):
    """L2 errors and the least-squares convergence order across meshes."""
    config = config or NewtonConfig()
    errors = []
    for n in sizes:
        model, exact = _mms_model(n)
        result = newton_solve(model, config)
        errors.append(_l2_error(model, result.x, exact))
    logs_h = np.log(1.0 / np.asarray(sizes, dtype=float))
    order = float(np.polyfit(logs_h, np.log(errors), 1)[0])
    return errors, order


def check_mms(sizes=(8, 16, 32), target=2.0, window=0.15, config=None):
    errors, order = mms_convergence(sizes, config)
    passed = abs(order - target) <= window
    detail = "errors " + ", ".join(f"{e:.3e}" for e in errors)
    return CheckResult("mms_convergence_order", passed, order, target, detail)


# ---------------------------------------------------------------------------
# spectral cross-check
# ---------------------------------------------------------------------------

def sg_vs_nisp(model, expansion, nisp_order=6, config=None):
    """Max-temperature expansions by the intrusive solve and by projection.

    The comparison metric is relative to the largest projected coefficient:
    the highest retained mode carries the spectral truncation gap between the
    Galerkin solution and the exact projection, so per-coefficient relative
    agreement on it is not a property any intrusive method can offer.
    """
    config = config or NewtonConfig()
    basis = model.sg_basis
    name = next(iter(expansion))
    coeffs = sc.PCE(np.asarray(expansion[name], dtype=float), basis)

    sg = sg_newton_solve(model, expansion, config)
    sg_coeffs = sg_functional_expansion(
        sg, basis, lambda x: model.objective(x).value, nisp_order)

    nominal = model.library.value(name)

    def sample(xi):
        value = float(coeffs.evaluate(xi))
        model.library.set_value(name, value)
        try:
            return model.objective(newton_solve(model, config).x).value
        except SolveFailure as err:
            where = f"NISP sample at xi = {xi:.4g} ({name} = {value:.4g})"
            raise SolveFailure(f"{where} failed: {err}", err.history) from err
        finally:
            model.library.set_value(name, nominal)

    nisp_coeffs = nisp_project(sample, basis, nisp_order)
    rel = np.abs(sg_coeffs - nisp_coeffs) / np.max(np.abs(nisp_coeffs))
    return sg_coeffs, nisp_coeffs, rel, sg


def check_sg_vs_nisp(model, expansion, nisp_order, config=None):
    """Passes when every coefficient agrees within 1e-3 (see sg_vs_nisp)."""
    tol = 1e-3
    sg_coeffs, nisp_coeffs, rel, _ = sg_vs_nisp(model, expansion, nisp_order,
                                                config)
    detail = ("sg " + ", ".join(f"{c:.4f}" for c in sg_coeffs)
              + " | nisp " + ", ".join(f"{c:.4f}" for c in nisp_coeffs))
    return CheckResult("sg_vs_nisp", bool(np.all(rel <= tol)),
                       float(np.max(rel)), tol, detail)


def run_verification(model, config=None, expansion=None, nisp_order=None):
    """The FD-vs-AD and manufactured-solution checks, and with an uncertain
    ``expansion`` the spectral cross check at quadrature order ``nisp_order``."""
    checks = [check_jacobian_fd(model), check_mms(config=config)]
    if model.sg_basis is not None and expansion:
        checks.append(check_sg_vs_nisp(model, expansion, nisp_order, config))
    return checks
