"""Solver and analysis drivers consuming the assembled quantities.

Newton with the embedded-derivative Jacobian, natural parameter continuation,
forward-sensitivity reduced gradients, bound-constrained optimization by
SciPy's L-BFGS-B, the intrusive spectral Newton solve, and the non-intrusive
spectral projection oracle used to verify it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import scalars as sc
from .physics import NonPhysicalStateError


class SolveFailure(RuntimeError):
    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history or []


class FactorizationFailure(SolveFailure):
    """SuperLU or ILU(0) broke down on the matrix itself; a smaller step of
    the parameter that produced the matrix does not cure it."""


@dataclass
class NewtonConfig:
    """Newton and linear-solver settings."""

    abs_tol: float = 1e-11
    rel_tol: float = 1e-12
    max_iters: int = 30
    dense_dof_limit: int = 2000    # sparse LU at or below, ILU(0) + GMRES above

    def __post_init__(self):
        # NaN fails the comparisons too
        if not (0 < self.abs_tol < np.inf and 0 < self.rel_tol < np.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.dense_dof_limit < 0:
            raise ValueError(f"dense_dof_limit must be >= 0, got "
                             f"{self.dense_dof_limit}")


#: GMRES settings of the ILU(0) branch of ``_linear_solve``
_GMRES = dict(rtol=1e-10, atol=0.0, restart=80, maxiter=400)

#: A refinement sweep that cuts its residual by less than this factor
#: abandons its kept factor, and SG Newton re-assembles its SG Jacobian only
#: after a step that cuts ||F|| by less (Shamanskii; Kelley 2003, ch. 5). SG
#: Newton, whose SG Jacobian is exact only in deterministic directions, is
#: thus a chord iteration that keeps one SG Jacobian and its mean-block LU.
_REFRESH = 0.05

#: Forcing terms of the SG GMRES, its relative tolerances (Eisenstat &
#: Walker 1996, choice 2): eta = gamma (||F_k|| / ||F_k-1||)^alpha, at most
#: ``_SG_ETA_MAX`` (also the first solve's when no mean-based step precedes
#: it), and never below half the ratio of the stopping tolerance to ||F_k||,
#: so that no solve is tighter than convergence needs.
_SG_GAMMA, _SG_ALPHA, _SG_ETA_MAX = 0.9, 2.0, 1e-3


@dataclass
class NewtonResult:
    x: np.ndarray
    history: list    # ||f|| per iterate; the last meets the stop test
    iterations: int
    jacobian: object    # the Jacobian at x
    factor: object = None     # the last LU's solve; None on the ILU branch
    factorizations: int = 0   # LUs made
    refinement_sweeps: int = 0   # solves with a kept factor


#: SuperLU's diagonal pivot threshold in ``sparse_lu``: the diagonal entry
#: of a column is its pivot while at least this fraction of the column's
#: largest entry, otherwise the largest entry is
_PIVOT_THRESHOLD = 0.01


@dataclass(frozen=True)
class LUOrder:
    """A symmetric fill-reducing order of a principal block of one sparsity
    pattern, with the CSC structure of the permuted block.

    The permuted block is A[dofs][:, dofs] of a CSR matrix A with the
    pattern; its CSC entry k is ``A.data[gather[k]]``. ``perm[k]`` is the
    index, in ascending dof order, of the block row at permuted position k.
    """

    perm: np.ndarray
    gather: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    @classmethod
    def of(cls, indptr, indices, dofs):
        """The order ``dofs`` (each block row's dof) of the CSR pattern."""
        n = len(indptr) - 1
        positions = sp.csr_matrix((np.arange(1, len(indices) + 1), indices,
                                   indptr), shape=(n, n))
        block = positions[dofs][:, dofs].tocsc()
        return cls(np.argsort(np.argsort(dofs)), block.data - 1,
                   block.indices, block.indptr)


def sparse_lu(matrix, order=None, label="LU factorization"):
    """Factor a square sparse matrix with SuperLU; returns ``solve(rhs)``.

    With an :class:`LUOrder` of the matrix's pattern, the permuted block is
    gathered straight from ``matrix.data`` and factored in that order
    (``permc_spec="NATURAL"``) with threshold pivoting: SuperLU keeps the
    diagonal pivot unless it is smaller than ``_PIVOT_THRESHOLD`` times the
    largest entry of its column (``SymmetricMode``). ``solve`` then takes and
    returns vectors over the block's dofs in ascending order. Without an
    order the whole matrix is factored by a plain ``splu`` (COLAMD, partial
    pivoting). A factorization that breaks down raises
    FactorizationFailure("<label> failed: <SuperLU's message>").
    """
    try:
        if order is None:
            return spla.splu(matrix.tocsc()).solve
        n = len(order.perm)
        permuted = sp.csc_matrix((matrix.data[order.gather], order.indices,
                                  order.indptr), shape=(n, n))
        lu = spla.splu(permuted, permc_spec="NATURAL",
                       diag_pivot_thresh=_PIVOT_THRESHOLD,
                       options={"SymmetricMode": True})
    except RuntimeError as err:
        raise FactorizationFailure(f"{label} failed: {str(err).strip()}") from err

    def solve(rhs):
        y = lu.solve(rhs[order.perm])
        x = np.empty_like(y)   # keeps the layout of SuperLU's own solution
        x[order.perm] = y
        return x

    return solve


def _refine(jacobian, rhs, solve, tol):
    """For each column b of ``rhs``: x = solve(b), then x += solve(b -
    jacobian @ x) until ||b - jacobian @ x|| <= tol ||b||. Returns (x,
    sweeps), x None once a sweep cuts a residual by less than 1 / _REFRESH."""
    columns, sweeps = [], 0
    for b in np.reshape(rhs, (len(rhs), -1)).T:
        x, r, norm = 0.0, b, np.linalg.norm(b)
        target = tol * norm
        while True:
            x, sweeps = x + solve(r), sweeps + 1
            r = b - jacobian @ x
            res = np.linalg.norm(r)
            if res <= target:
                break
            if not res <= _REFRESH * norm:   # a NaN residual abandons too
                return None, sweeps
            norm = res
        columns.append(x)
    return np.column_stack(columns).reshape(np.shape(rhs)), sweeps


def _linear_solve(jacobian, rhs, config, order=None, factor=None):
    """Solve ``jacobian @ x = rhs`` for one vector or an (n, k) block;
    returns ``(x, factor, sweeps)``.

    A kept ``factor`` of a nearby matrix (a :func:`sparse_lu` solve) is
    refined with to ``rel_tol`` in ``sweeps`` solves. Without one, or once it
    stalls, at or below ``dense_dof_limit`` unknowns one sparse LU (in
    ``order`` if given) solves every column and is the factor returned;
    above it, ILU(0)-preconditioned GMRES solves column by column and None
    is. A factorization that breaks down raises FactorizationFailure.
    """
    x, sweeps = (None, 0) if factor is None else _refine(
        jacobian, rhs, factor, config.rel_tol)
    if x is not None:
        return x, factor, sweeps
    n = jacobian.shape[0]
    if n <= config.dense_dof_limit:
        factor = sparse_lu(jacobian, order)
        return factor(rhs), factor, sweeps
    try:
        ilu = spla.spilu(jacobian.tocsc(), drop_tol=0.0, fill_factor=1.0)
    except RuntimeError as err:
        raise FactorizationFailure(
            f"ILU factorization failed: {str(err).strip()}") from err
    precond = spla.LinearOperator((n, n), ilu.solve)

    def gmres(b):
        sol, info = spla.gmres(jacobian, b, M=precond, **_GMRES)
        if info != 0:
            raise SolveFailure(f"GMRES did not converge (info={info})")
        return sol

    if rhs.ndim == 1:
        return gmres(rhs), None, sweeps
    return np.column_stack([gmres(b) for b in rhs.T]), None, sweeps


def newton_solve(model, config=None, x0=None, factor=None):
    """Newton on f(x) = 0 with the embedded-derivative Jacobian.

    Steps are damped by a backtracking line search on ||f||, which guards the
    first iterations from the default (discontinuous) initial guess and from
    leaving the validity range of the constitutive laws; near the root the
    full step always passes, so terminal convergence stays quadratic. The
    full step's trial assembles the Jacobian, whose residual is bitwise the
    plain residual, so an accepted full step already holds the next
    iteration's (f, J); damped trials assemble the residual alone, and the
    Jacobian follows at the accepted point. Each step refines with the last
    factor (a nearby solve's ``factor`` at first), which ``_refine`` abandons
    once it stalls, and otherwise factors J in the model's ``lu_order``.
    Converges when ||f|| <= abs_tol or ||f|| <= rel_tol * ||f(x0)||; the
    result carries the Jacobian at its x and the factor.
    """
    config = config or NewtonConfig()
    if x0 is None:
        warm = getattr(model, "warm_start", None)
        x = warm() if warm is not None else model.initial_guess()
    else:
        x = np.asarray(x0, dtype=float).copy()
    order = getattr(model, "lu_order", None)
    f, jac = model.jacobian(x)
    norm = norm0 = float(np.linalg.norm(f))
    history = [norm]
    if norm <= config.abs_tol:
        return NewtonResult(x, history, 0, jac, factor)
    factorizations = sweeps = 0
    for it in range(1, config.max_iters + 1):
        kept = factor
        step, factor, spent = _linear_solve(jac, f, config, order, kept)
        factorizations += factor is not kept
        sweeps += spent
        alpha = 1.0
        for _ in range(40):
            candidate = x - alpha * step
            try:
                if alpha == 1.0:
                    trial_f, trial_jac = model.jacobian(candidate)
                else:
                    trial_f, trial_jac = model.residual(candidate), None
                new_norm = float(np.linalg.norm(trial_f))
            except NonPhysicalStateError:
                new_norm = np.inf
            if np.isfinite(new_norm) and new_norm <= (1.0 - 1e-4 * alpha) * norm:
                break
            alpha *= 0.5
        else:
            raise SolveFailure("Newton line search failed to find a decrease",
                               history)
        x, norm = candidate, new_norm
        history.append(norm)
        if trial_jac is None:
            f, jac = model.jacobian(x)
        else:
            f, jac = trial_f, trial_jac
        if norm <= config.abs_tol or norm <= config.rel_tol * norm0:
            return NewtonResult(x, history, it, jac, factor, factorizations,
                                sweeps)
    raise SolveFailure(f"Newton did not converge in {config.max_iters} iterations",
                       history)


def convergence_order_estimate(history):
    """Order estimate log(e_k+1/e_k)/log(e_k/e_k-1) from the last useful triple.

    Entries at the machine-precision residual floor are dropped first; ratios
    across the floor say nothing about the iteration itself.
    """
    floor = max(1e-13, 1e-13 * max(history))
    h = [e for e in history if e > floor]
    if len(h) < 3:
        return float("nan")
    e0, e1, e2 = h[-3], h[-2], h[-1]
    return float(np.log(e2 / e1) / np.log(e1 / e0))


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------

@dataclass
class ContinuationStep:
    parameter: float
    objective: float
    iterations: int
    residual_norm: float


#: times a failed continuation step is halved before the sweep gives up
_MAX_BISECTIONS = 4


def continuation(model, setter, values, config=None):
    """Natural continuation: the previous solution predicts, and Newton
    corrects with the previous factor.

    ``setter(model, p)`` applies one parameter value p to the model (a
    library value or a shape morph); ``values`` is the uniform sweep, and
    each step records ``model.objective`` at the corrected state. On a failed
    corrector the step is bisected up to ``_MAX_BISECTIONS`` times, unless a
    factorization broke down, which no smaller step cures; if the target
    value still fails, the error names it, carries the corrector's message
    and holds the partial table as its history.
    """
    config = config or NewtonConfig()
    table = []
    x = factor = start = None
    for target in values:
        queue = [target]
        while queue:
            p = queue[0]
            setter(model, p)
            try:
                result = newton_solve(model, config, x0=x, factor=factor)
            except SolveFailure as err:
                if (start is None or len(queue) > _MAX_BISECTIONS
                        or isinstance(err, FactorizationFailure)):
                    raise SolveFailure(
                        f"continuation failed at parameter {float(target)}: "
                        f"{err}", history=[s.__dict__ for s in table]) from err
                queue.insert(0, 0.5 * (start + p))
                continue
            x, factor = result.x, result.factor
            start = p
            queue.pop(0)
        table.append(ContinuationStep(float(target),
                                      float(model.objective(x).value),
                                      result.iterations, result.history[-1]))
    return table, x


# ---------------------------------------------------------------------------
# reduced gradient and optimization
# ---------------------------------------------------------------------------

def reduced_gradient(jacobian, f_p, objective_gradient, config=None,
                     order=None, factor=None):
    """dg/dp = -(dg/dx)^T J^{-1} f_p via the forward-sensitivity solves.

    ``f_p`` holds one column per parameter, ``objective_gradient`` the dense
    dg/dx. One linear solve takes all columns, refined with a kept ``factor``
    such as Newton's, or with one LU of J (in ``order``). The explicit dg/dp
    term is zero for the shape problem (parameters never appear in the
    objective directly).
    """
    config = config or NewtonConfig()
    f_p = np.atleast_2d(np.asarray(f_p, dtype=float))
    if f_p.shape[0] != jacobian.shape[0]:
        f_p = f_p.T
    sens = _linear_solve(jacobian, f_p, config, order, factor)[0]
    return -(np.asarray(objective_gradient) @ sens)


@dataclass
class OptimizeResult:
    p: np.ndarray
    value: float
    iterations: int
    converged: bool
    history: list    # (p, g) at the start and at each accepted iterate
    reason: str      # why the run stopped


def optimize(func, p0, bounds, tol=1e-6, max_iters=50):
    """SciPy's L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) on ``func(p) -> (g,
    dg/dp)`` from ``p0`` clipped to ``bounds`` = (lower, upper): ``tol`` is
    its projected-gradient tolerance, the rest are SciPy's defaults.

    ``converged`` is SciPy's success, met by the gradient test or by the
    relative decrease of g, and ``reason`` is its message, which names the
    test that stopped the run. A ``SolveFailure`` at the start raises.
    L-BFGS-B cannot take one at a trial point, so that ends the run at the
    last accepted iterate, with a ``reason`` that names the failed p.
    """
    from scipy.optimize import minimize   # 17 MB that only optimize needs
    history = []

    def objective(p):
        try:
            g, grad = func(p)
        except SolveFailure as err:
            where = f"p = {p.tolist()}" if history else "start"
            raise SolveFailure(f"objective evaluation failed at {where}: "
                               f"{err}") from err
        if not history:
            history.append((p.copy(), g))
        return g, grad

    def accept(intermediate_result):
        history.append((intermediate_result.x.copy(), intermediate_result.fun))

    try:
        result = minimize(objective, np.clip(p0, *bounds), jac=True,
                          method="L-BFGS-B", bounds=list(zip(*bounds)),
                          callback=accept,
                          options=dict(gtol=tol, maxiter=max_iters))
        converged, reason = result.success, result.message
    except SolveFailure as err:
        if not history:
            raise
        converged, reason = False, str(err)
    return OptimizeResult(*history[-1], len(history) - 1, converged, history,
                          reason)


# ---------------------------------------------------------------------------
# spectral (stochastic Galerkin) solve and its projection oracle
# ---------------------------------------------------------------------------

@dataclass
class SGSystem:
    """Block operator (J . dX)_k = sum_ij C_ijk / <P_k^2> J_i dx_j."""

    blocks: list
    basis: object
    order: LUOrder = None    # of the blocks' pattern, for the mean-block LU

    @property
    def num_coeffs(self):
        return self.basis.size

    @property
    def num_dofs(self):
        return self.blocks[0].shape[0]

    def operator(self):
        n, p1 = self.num_dofs, self.num_coeffs
        scaled = self.basis.triple_scaled

        def matvec(flat):
            x = np.asarray(flat, dtype=float).reshape(p1, n)
            out = np.zeros((p1, n))
            for i, block in enumerate(self.blocks):
                out += scaled[i].T @ (block @ x.T).T
            return out.ravel()

        return spla.LinearOperator((p1 * n, p1 * n), matvec)

    def mean_preconditioner(self):
        solve = sparse_lu(self.blocks[0], self.order,
                          "LU factorization of the SG mean block")
        n, p1 = self.num_dofs, self.num_coeffs

        def apply(flat):
            return solve(flat.reshape(p1, n).T).T.ravel()

        return spla.LinearOperator((p1 * n, p1 * n), apply)


@dataclass
class SGResult:
    coefficients: np.ndarray   # (num_coeffs, num_dofs)
    history: list    # ||F|| per iterate; the last meets the stop test
    iterations: int


def sg_newton_solve(model, uncertain, config=None):
    """Chord Newton on the spectral residual with a mean-based preconditioner.

    The mean block starts from the deterministic solve (hot start), which is
    the natural initial expansion and makes the zero-uncertainty case reduce
    to the deterministic solution immediately. The first step is mean-based
    (Powell & Elman 2009): the hot start's Jacobian, refined with its factor,
    solves every coefficient block of F(x0), and the first SG Jacobian, whose
    residual is bitwise F, is assembled where it lands; a step that does not
    reduce ||F|| or lands on a non-physical state is discarded. The SG
    Jacobian, its block operator and the mean-block factor are kept across
    steps and re-assembled at the current state only when the last step cut
    ||F|| by less than ``_REFRESH``; each GMRES solve stops at its forcing
    term. Convergence is judged on the SG residual: ||F|| <= abs_tol or
    ||F|| <= rel_tol * ||F(x0)||; ``iterations`` counts the mean-based step.
    """
    config = config or NewtonConfig()
    basis = model.sg_basis
    if basis is None:
        raise ValueError("model was built without spectral basis tables")
    n = model.num_dofs
    x_block = np.zeros((basis.size, n))
    # solve the deterministic problem at the expansion means
    nominal = {name: model.library.value(name) for name in uncertain}
    try:
        for name, coeffs in uncertain.items():
            model.library.set_value(name, float(np.asarray(coeffs)[0]))
        hot = newton_solve(model, config)
    finally:
        for name, value in nominal.items():
            model.library.set_value(name, value)
    x_block[0] = hot.x

    f = model.sg_residual(x_block, uncertain)
    norm = norm0 = float(np.linalg.norm(f))
    history = [norm0]
    if norm0 <= config.abs_tol:
        return SGResult(x_block, history, 0)
    stop = max(config.abs_tol, config.rel_tol * norm0)
    trial = x_block - _linear_solve(hot.jacobian, f.T, config, model.lu_order,
                                    hot.factor)[0].T
    del hot   # its factor and Jacobian go before the SG Jacobian comes
    try:
        trial_f, blocks = model.sg_jacobian(trial, uncertain)
        new_norm = float(np.linalg.norm(trial_f))
    except NonPhysicalStateError:
        new_norm = np.inf
    rate = np.inf   # before any step GMRES starts at the cap
    if new_norm < norm:
        x_block, f, rate, norm = trial, trial_f, new_norm / norm, new_norm
        history.append(norm)
        if norm <= stop:
            return SGResult(x_block, history, 1)
    else:
        f, blocks = model.sg_jacobian(x_block, uncertain)
    refresh = True
    for it in range(len(history), config.max_iters + 1):   # -> history[it]
        if refresh:
            system = SGSystem(blocks, basis, model.lu_order)
            operator, precond = system.operator(), system.mean_preconditioner()
        eta = min(_SG_ETA_MAX, max(_SG_GAMMA * rate ** _SG_ALPHA,
                                   0.5 * stop / norm))
        update, info = spla.gmres(operator, f.ravel(), M=precond, rtol=eta,
                                  atol=0.0, restart=80, maxiter=400)
        if info != 0:
            raise SolveFailure(f"spectral GMRES did not converge (info={info})",
                               history)
        x_block = x_block - update.reshape(basis.size, n)
        f = model.sg_residual(x_block, uncertain)
        new_norm = float(np.linalg.norm(f))
        history.append(new_norm)
        if not np.isfinite(new_norm):
            raise SolveFailure("spectral Newton diverged", history)
        if new_norm <= stop:
            return SGResult(x_block, history, it)
        rate, norm = new_norm / norm, new_norm
        refresh = rate > _REFRESH
        if refresh:   # the old system goes before the new one is assembled
            blocks = system = operator = precond = None
            f, blocks = model.sg_jacobian(x_block, uncertain)
    raise SolveFailure(
        f"spectral Newton did not converge in {config.max_iters} iterations",
        history)


def shape_objective_gradient(model, params, config=None):
    """Objective and reduced gradient of the shape problem at one design.

    Morphs the base mesh, solves, and evaluates dg/dp = -(dg/dx)^T J^{-1} f_p
    with J the Jacobian that Newton returns at its solution, solved by
    refinement with Newton's last factor, and f_p from the shape-tangent
    assembly seeded by the exact coordinate sensitivities. The explicit dg/dp
    term is identically zero (the parameters never appear in the objective).
    """
    from .morphing import mesh_sensitivity, morph

    config = config or NewtonConfig()
    params = np.atleast_1d(np.asarray(params, dtype=float))
    model.set_coords(morph(model.mesh, params).coords)
    result = newton_solve(model, config)
    objective = model.objective(result.x)
    _, f_p = model.shape_tangent(result.x, mesh_sensitivity(model.mesh, params))
    grad = reduced_gradient(result.jacobian, f_p,
                            objective.dense_gradient(model.num_dofs), config,
                            model.lu_order, result.factor)
    return objective.value, np.atleast_1d(grad), result


def nisp_project(sample, basis, quad_order):
    """Non-intrusive spectral projection of ``sample(xi) -> value(s)``.

    Solves/evaluates at the Gauss-Legendre nodes and projects onto the basis,
    c_k = sum_q (w_q / 2) out(xi_q) P_k(xi_q) / <P_k^2>.
    """
    nodes, weights = sc.gauss_legendre(quad_order)
    samples = np.stack([np.atleast_1d(np.asarray(sample(x), dtype=float))
                        for x in nodes])
    coeffs = sc.project_samples(samples, nodes, weights, basis)
    return coeffs[0] if coeffs.shape[0] == 1 else coeffs


def sg_functional_expansion(result, basis, functional, quad_order):
    """Project a functional of the spectral solution onto the basis.

    Evaluates the block solution at quadrature nodes (a plain polynomial
    evaluation), applies ``functional`` to each realized state, and projects.
    Using the same rule as the non-intrusive oracle makes the two expansions
    directly comparable.
    """
    nodes, weights = sc.gauss_legendre(quad_order)
    vals = sc.legendre_values(basis.degree, nodes)   # (size, nq)
    samples = []
    for q in range(len(nodes)):
        state = result.coefficients.T @ vals[:, q]
        samples.append(functional(state))
    return sc.project_samples(np.asarray(samples), nodes, weights, basis)
