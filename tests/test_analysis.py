"""Solver drivers: the linear solve and the reduced gradient on the demo
Jacobian, and on closed-form problems Newton, gradients, optimization,
continuation, and the spectral solve on a linear-in-parameter case."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from embedfem import analysis, config
from embedfem import scalars as sc
from embedfem.analysis import (FactorizationFailure, NewtonConfig,
                               SGSystem, SolveFailure, _linear_solve,
                               continuation,
                               convergence_order_estimate, newton_solve,
                               nisp_project, optimize, reduced_gradient,
                               sg_newton_solve, shape_objective_gradient,
                               sparse_lu)
from embedfem.mesh import Mesh, build_rect_mesh, nested_dissection
from embedfem.morphing import mesh_sensitivity, morph
from embedfem.model import ThermoElectricModel
from embedfem.physics import (MaterialTable, NonPhysicalStateError,
                              RegionMaterial)


class AffineToy:
    """f(x) = A x - b with a fixed random well-conditioned matrix."""

    def __init__(self, n=6, seed=0):
        rng = np.random.default_rng(seed)
        self.mat = rng.normal(size=(n, n)) + n * np.eye(n)
        self.rhs = rng.normal(size=n)
        self.num_dofs = n

    def initial_guess(self):
        return np.zeros(self.num_dofs)

    def residual(self, x):
        return self.mat @ x - self.rhs

    def jacobian(self, x):
        return self.residual(x), sp.csr_matrix(self.mat)


class CubicToy:
    """f(x) = x^3 + x - b componentwise, smooth with known quadratic Newton."""

    num_dofs = 3

    def initial_guess(self):
        return np.full(self.num_dofs, 0.8)

    def residual(self, x):
        return x ** 3 + x - np.array([1.0, 2.0, 3.0])

    def jacobian(self, x):
        return self.residual(x), sp.csr_matrix(np.diag(3.0 * x ** 2 + 1.0))


def test_newton_linear_problem_converges_in_one_iteration():
    result = newton_solve(AffineToy())
    assert result.iterations == 1
    assert result.history[-1] <= 1e-11


def test_newton_accepts_exact_initial_guess_with_zero_iterations():
    toy = AffineToy()
    x_star = np.linalg.solve(toy.mat, toy.rhs)
    result = newton_solve(toy, x0=x_star)
    assert result.iterations == 0
    assert np.array_equal(result.x, x_star)


def test_newton_quadratic_convergence_on_smooth_problem():
    result = newton_solve(CubicToy())
    order = convergence_order_estimate(result.history)
    assert order >= 1.7


def test_newton_failure_carries_history():
    config = NewtonConfig(max_iters=1, abs_tol=1e-15, rel_tol=1e-16)
    with pytest.raises(SolveFailure) as err:
        newton_solve(CubicToy(), config)
    assert len(err.value.history) >= 2


class CountingModel:
    """Forwards to a model and counts its residual and Jacobian assemblies."""

    def __init__(self, model):
        self.model = model
        self.num_dofs = model.num_dofs
        self.calls = {"residual": 0, "jacobian": 0}

    def residual(self, x):
        self.calls["residual"] += 1
        return self.model.residual(x)

    def jacobian(self, x):
        self.calls["jacobian"] += 1
        return self.model.jacobian(x)


def test_newton_takes_the_initial_norm_from_the_first_jacobian():
    model = config.build_model(config.RunConfig())
    x0 = model.warm_start()
    counting = CountingModel(model)
    result = newton_solve(counting, x0=x0)
    assert result.history[0] == np.linalg.norm(model.residual(x0))
    assert result.iterations == 4
    # every step of this solve is a full step, whose trial Jacobian is the
    # next iteration's: one Jacobian at x0 and one per iteration, and no
    # residual at all
    assert counting.calls == {"residual": 0, "jacobian": 5}


def meets_stop_test(history):
    """Newton's and SG Newton's stop test on the last residual norm, with
    the default tolerances."""
    cfg = NewtonConfig()
    return history[-1] <= cfg.abs_tol or history[-1] <= cfg.rel_tol * history[0]


def residual_trial_newton(model, config, x):
    """Newton with residual-only line-search trials and a fresh Jacobian at
    every iterate, whose steps refine with the last factor as ``newton_solve``
    does: the reference that its Jacobian trials must reproduce bit for bit.
    Returns x, the history and the number of damped steps."""
    f, jac = model.jacobian(x)
    norm = norm0 = float(np.linalg.norm(f))
    history = [norm]
    damped = 0
    factor = None
    for it in range(1, config.max_iters + 1):
        if it > 1:
            f, jac = model.jacobian(x)
        step, factor, _ = _linear_solve(jac, f, config, model.lu_order, factor)
        alpha = 1.0
        for _ in range(40):
            candidate = x - alpha * step
            try:
                new_norm = float(np.linalg.norm(model.residual(candidate)))
            except NonPhysicalStateError:
                new_norm = np.inf
            if np.isfinite(new_norm) and new_norm <= (1.0 - 1e-4 * alpha) * norm:
                break
            alpha *= 0.5
        else:
            raise AssertionError("reference line search found no decrease")
        damped += alpha < 1.0
        x, norm = candidate, new_norm
        history.append(norm)
        if norm <= config.abs_tol or norm <= config.rel_tol * norm0:
            return x, history, damped
    raise AssertionError("reference Newton did not converge")


@pytest.mark.parametrize("psi_scale", [1.0, 4.0])
def test_newton_jacobian_trials_are_bitwise_residual_trials(psi_scale):
    # from the warm start every step is a full step; with its potential
    # scaled by 4 some are damped
    model = config.build_model(config.RunConfig())
    x0 = model.warm_start()
    x0[0::2] *= psi_scale
    want_x, want_history, damped = residual_trial_newton(model, NewtonConfig(),
                                                         x0)
    assert (damped > 0) == (psi_scale != 1.0)
    result = newton_solve(model, x0=x0)
    assert np.array_equal(_bits(result.x), _bits(want_x))
    assert np.array_equal(_bits(np.array(result.history)),
                          _bits(np.array(want_history)))
    assert np.array_equal(_bits(result.jacobian.data),
                          _bits(model.jacobian(result.x)[1].data))


class ArctanToy:
    """f(x) = atan(x) - 0.1 componentwise: Newton's full step overshoots far
    from the root. Above ``valid_below`` the state is non-physical."""

    num_dofs = 2

    def __init__(self, valid_below=np.inf):
        self.valid_below = valid_below
        self.calls = {"residual": 0, "jacobian": 0}

    def residual(self, x):
        self.calls["residual"] += 1
        return self._residual(x)

    def _residual(self, x):
        if np.any(x > self.valid_below):
            raise NonPhysicalStateError("outside the validity range")
        return np.arctan(x) - 0.1

    def jacobian(self, x):
        self.calls["jacobian"] += 1
        return self._residual(x), sp.csr_matrix(np.diag(1.0 / (1.0 + x ** 2)))


def test_newton_rejected_full_step_takes_residual_trials_and_returns_jacobian():
    toy = ArctanToy()
    x0 = np.array([1.6, 0.0])
    result = newton_solve(toy, x0=x0)
    assert meets_stop_test(result.history)
    assert toy.calls["residual"] >= 1     # the full step from x0 failed
    # the first accepted iterate is the half step, so the Jacobian after it
    # is assembled at that point
    step = (np.arctan(x0) - 0.1) * (1.0 + x0 ** 2)
    assert result.history[1] == np.linalg.norm(toy._residual(x0 - 0.5 * step))
    assert np.array_equal(result.jacobian.toarray(),
                          toy.jacobian(result.x)[1].toarray())


def test_newton_non_physical_trial_jacobian_counts_as_an_infinite_norm():
    toy = ArctanToy(valid_below=1.0)
    x0 = np.array([-1.6, 0.0])
    step = (np.arctan(x0) - 0.1) * (1.0 + x0 ** 2)
    assert (x0 - step)[0] > toy.valid_below
    result = newton_solve(toy, x0=x0)
    assert meets_stop_test(result.history)
    assert result.history[1] == np.linalg.norm(toy._residual(x0 - 0.5 * step))


def test_newton_at_an_exact_initial_guess_assembles_one_jacobian():
    toy = CountingModel(AffineToy())
    x_star = np.linalg.solve(toy.model.mat, toy.model.rhs)
    assert newton_solve(toy, x0=x_star).iterations == 0
    assert toy.calls == {"residual": 0, "jacobian": 1}


def test_convergence_order_estimate_drops_floor_entries():
    history = [1.0, 1e-2, 1e-4, 1e-8, 3e-14]
    order = convergence_order_estimate(history)
    assert order == pytest.approx(2.0, abs=1e-6)


# ---------------------------------------------------------------------------
# linear solve
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def demo():
    """The demo model (16x16 strip, 578 dofs) and its Newton solution."""
    model = config.build_model(config.RunConfig())
    return model, newton_solve(model).x


def test_linear_solve_matches_dense_lu_on_demo_jacobian(demo):
    model, x = demo
    f, jac = model.jacobian(x)
    block = np.column_stack([f, np.random.default_rng(0).normal(
        size=(model.num_dofs, 2))])
    assert model.num_dofs <= NewtonConfig().dense_dof_limit
    reference = sla.lu_solve(sla.lu_factor(jac.toarray()), block)
    for rhs, ref in ((f, reference[:, 0]), (block, reference)):
        got = _linear_solve(jac, rhs, NewtonConfig())[0]
        assert got.shape == ref.shape
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("limit, kind", [(3, "LU"), (2, "ILU")])
def test_linear_solve_singular_matrix_raises_solve_failure(limit, kind):
    # row and column 1 hold no entry at all
    jac = sp.csr_matrix(([1.0, 2.0], ([0, 2], [0, 2])), shape=(3, 3))
    with pytest.raises(FactorizationFailure,
                       match=f"^{kind} factorization failed: "):
        _linear_solve(jac, np.ones(3), NewtonConfig(dense_dof_limit=limit))


def test_linear_solve_ilu_branch_solves_a_block_column_by_column():
    toy = AffineToy()
    jac = sp.csr_matrix(toy.mat)
    block = np.random.default_rng(1).normal(size=(toy.num_dofs, 3))
    cfg = NewtonConfig(dense_dof_limit=toy.num_dofs - 1)
    got = _linear_solve(jac, block, cfg)[0]
    by_column = np.column_stack([_linear_solve(jac, b, cfg)[0]
                                 for b in block.T])
    assert np.array_equal(got, by_column)
    assert np.allclose(toy.mat @ got, block, rtol=0.0, atol=1e-9)


def test_sg_mean_preconditioner_factorization_failure_is_a_solve_failure():
    singular = sp.csr_matrix(([1.0, 2.0], ([0, 2], [0, 2])), shape=(3, 3))
    with pytest.raises(SolveFailure, match="^LU factorization of the SG mean "
                                           "block failed: "):
        SGSystem([singular], BASIS).mean_preconditioner()


# ---------------------------------------------------------------------------
# sparse LU in the model's nested-dissection order
# ---------------------------------------------------------------------------

def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _strip(n):
    """The demo strip scaled to n x n elements."""
    cfg = config.RunConfig()
    g = cfg.geometry
    g.nx_conductor, g.nx_pad, g.nx_slider, g.ny = n // 2, n // 8, 3 * n // 8, n
    return cfg


def _renumbered(mesh, rng):
    """The same mesh with its nodes numbered in a random order."""
    new_of = rng.permutation(mesh.num_nodes)
    coords = np.empty_like(mesh.coords)
    coords[new_of] = mesh.coords
    return Mesh(coords, new_of[mesh.connectivity], mesh.region_of,
                {name: new_of[nodes] for name, nodes in mesh.node_sets.items()})


@pytest.mark.parametrize("mesh", ["strip", "square", "renumbered"])
def test_mesh_order_is_a_permutation_keeping_node_dofs_together(mesh):
    strip = config.build_mesh(config.RunConfig())
    mesh = {"strip": strip, "square": build_rect_mesh(12, 12),
            "renumbered": _renumbered(strip, np.random.default_rng(0))}[mesh]
    model = ThermoElectricModel(mesh, config.build_materials(config.RunConfig()))
    nodes = nested_dissection(mesh)
    assert np.array_equal(np.sort(nodes), np.arange(mesh.num_nodes))
    perm = model.lu_order.perm
    assert np.array_equal(np.sort(perm), np.arange(model.num_dofs))
    assert np.array_equal(perm[0::2], 2 * nodes)
    assert np.array_equal(perm[1::2], 2 * nodes + 1)
    assert np.array_equal(model.potential_order.perm, nodes)


def recursive_nested_dissection(mesh, leaf=8):
    """``nested_dissection`` one part at a time: the reference for the
    library's version, which cuts all parts of a level at once."""
    n = mesh.num_nodes
    graph = sp.csr_matrix((n, n))
    for a in range(4):
        for b in range(4):
            graph += sp.csr_matrix((np.ones(mesh.num_elems),
                                    (mesh.connectivity[:, a],
                                     mesh.connectivity[:, b])), shape=(n, n))
    graph = graph.tocsr()
    order = []

    def cut(nodes, coord):
        upper = coord > np.sort(coord)[len(coord) // 2]
        lower = nodes[~upper]
        touching = np.asarray(graph[lower][:, nodes[upper]].sum(axis=1)).ravel()
        return lower, nodes[upper], touching > 0

    def dissect(nodes):
        if len(nodes) <= leaf:
            order.extend(nodes)
            return
        cuts = [c for c in (cut(nodes, mesh.coords[nodes, 0]),
                            cut(nodes, mesh.coords[nodes, 1]))
                if c[1].size and not c[2].all()]
        if not cuts:
            sub = graph[nodes][:, nodes]
            dominant = sub + sp.diags(np.asarray(sub.sum(axis=1)).ravel())
            order.extend(nodes[np.argsort(spla.splu(dominant.tocsc()).perm_c)])
            return
        lower, upper, separator = min(cuts, key=lambda c: c[2].sum())
        dissect(lower[~separator])
        dissect(upper)
        order.extend(lower[separator])

    dissect(np.arange(n))
    return np.array(order)


@pytest.mark.parametrize("mesh", ["strip", "square", "renumbered",
                                  "half collapsed", "point"])
def test_nested_dissection_matches_the_recursive_reference(mesh):
    # collapsing nodes onto one point leaves parts that no cut separates,
    # which take COLAMD's order: the whole mesh for "point"
    strip = config.build_mesh(config.RunConfig())
    square = build_rect_mesh(12, 12)
    collapsed = square.coords.copy()
    collapsed[:80] = 0.0
    mesh = {"strip": strip, "square": square,
            "renumbered": _renumbered(strip, np.random.default_rng(0)),
            "half collapsed": square.replace_coords(collapsed),
            "point": square.replace_coords(np.zeros_like(square.coords)),
            }[mesh]
    assert np.array_equal(nested_dissection(mesh),
                          recursive_nested_dissection(mesh))


@pytest.fixture(scope="module")
def factored():
    """(matrix, order, factored block) of each block that ``sparse_lu``
    factors in a model's order, at a state where the library factors it: the
    16x16 Jacobian at the solution (the reduced gradient's), its potential
    block at the initial guess (the warm start's), its SG mean block at the
    hot start and the 32x32 Jacobian at the warm start (Newton's first)."""
    model16 = config.build_model(config.RunConfig(), sg_basis=BASIS)
    model32 = config.build_model(_strip(32))
    solution = newton_solve(model16)
    _, jac0 = model16.jacobian(model16.initial_guess())
    psi = np.arange(0, model16.num_dofs, 2)
    x_block = np.zeros((BASIS.size, model16.num_dofs))
    x_block[0] = solution.x
    _, blocks = model16.sg_jacobian(x_block,
                                    {"PadSigma0": [35.0, 10.0, 0.0, 0.0]})
    _, jac32 = model32.jacobian(model32.warm_start())
    return {"jacobian16": (solution.jacobian, model16.lu_order,
                           solution.jacobian),
            "potential16": (jac0, model16.potential_order, jac0[psi][:, psi]),
            "sg_mean16": (blocks[0], model16.lu_order, blocks[0]),
            "jacobian32": (jac32, model32.lu_order, jac32)}


@pytest.mark.parametrize("name", ["jacobian16", "potential16", "sg_mean16",
                                  "jacobian32"])
def test_sparse_lu_mesh_order_agrees_with_plain_splu(factored, name):
    matrix, order, block = factored[name]
    reference = spla.splu(block.tocsc())
    solve = sparse_lu(matrix, order)
    rng = np.random.default_rng(23)
    n = block.shape[0]
    for rhs in (rng.normal(size=n), rng.normal(size=(n, 3))):
        want, got = reference.solve(rhs), solve(rhs)
        assert got.shape == want.shape
        assert got.flags.f_contiguous == want.flags.f_contiguous
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("n", [16, 32])
def test_sparse_lu_mesh_order_is_backward_stable_at_random_states(n):
    # far from a solution the Jacobian is ill conditioned (1-norm condition
    # up to about 5e7 here), so solutions of two stable factorizations differ
    # by about cond * eps; threshold pivoting must keep the backward error
    # at the level of a few eps all the same
    rng = np.random.default_rng(21)
    model = config.build_model(_strip(n))
    x = model.initial_guess() + 0.3 * rng.normal(size=model.num_dofs)
    _, jac = model.jacobian(x)
    b = rng.normal(size=model.num_dofs)
    x = sparse_lu(jac, model.lu_order)(b)
    scale = abs(jac).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max()
    assert np.abs(jac @ x - b).max() <= 1e-15 * scale


def test_sparse_lu_mesh_order_factors_the_128_strip_jacobian():
    model = config.build_model(_strip(128))
    _, jac = model.jacobian(model.warm_start())
    b = np.random.default_rng(22).normal(size=model.num_dofs)
    x = sparse_lu(jac, model.lu_order)(b)
    assert np.linalg.norm(jac @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_sparse_lu_mesh_order_singular_matrix_raises_superlu_message():
    model = config.build_model(config.RunConfig())
    _, jac = model.jacobian(model.initial_guess())
    row = 2 * (model.mesh.num_nodes // 2) + 1    # an interior temperature row
    jac.data[jac.indptr[row]:jac.indptr[row + 1]] = 0.0
    with pytest.raises(FactorizationFailure,
                       match="^LU factorization failed: Factor is exactly "
                             "singular$"):
        sparse_lu(jac, model.lu_order)


# ---------------------------------------------------------------------------
# reduced gradient
# ---------------------------------------------------------------------------

def test_reduced_gradient_scalar_closed_form():
    # f = x - p^2, g = x: dg/dp = 2p
    for p in (-1.3, 0.0, 0.7):
        jac = sp.csr_matrix(np.array([[1.0]]))
        f_p = np.array([[-2.0 * p]])
        grad = reduced_gradient(jac, f_p, np.array([1.0]))
        assert grad[0] == pytest.approx(2.0 * p, abs=1e-14)


def test_reduced_gradient_zero_sensitivities():
    jac = sp.csr_matrix(np.eye(4))
    grad = reduced_gradient(jac, np.zeros((4, 2)), np.ones(4))
    assert np.array_equal(grad, np.zeros(2))


def test_reduced_gradient_linear_in_objective_gradient():
    rng = np.random.default_rng(3)
    jac = sp.csr_matrix(rng.normal(size=(5, 5)) + 5 * np.eye(5))
    f_p = rng.normal(size=(5, 2))
    g_x = rng.normal(size=5)
    one = reduced_gradient(jac, f_p, g_x)
    two = reduced_gradient(jac, f_p, 2.0 * g_x)
    assert np.allclose(two, 2.0 * one, rtol=1e-13)


def test_reduced_gradient_two_shape_parameters_matches_per_column_solves(demo):
    # deflection_top and deflection_bottom: Newton's last factor refines
    # both columns, each as if alone
    model, _ = demo
    base = model.mesh
    p = np.array([0.05, -0.03])
    try:
        _, grad, state = shape_objective_gradient(model, p)
        x_p = mesh_sensitivity(base, p)
        _, f_p = model.shape_tangent(state.x, x_p.reshape(len(base.coords),
                                                          2, p.size))
        # a fresh Jacobian at the solution: the gradient must be bitwise the
        # one from the Jacobian that Newton returned
        _, jac = model.jacobian(state.x)
        g_x = model.objective(state.x).dense_gradient(model.num_dofs)
    finally:
        model.reset_coords()
    per_column = np.column_stack([
        _linear_solve(jac, f_p[:, k], NewtonConfig(), model.lu_order,
                      state.factor)[0] for k in range(p.size)])
    expected = -(g_x @ per_column)
    assert grad.shape == (2,)
    assert np.array_equal(reduced_gradient(jac, f_p, g_x, order=model.lu_order,
                                           factor=state.factor), expected)
    assert np.array_equal(grad, expected)


def test_shape_gradient_on_the_demo_strip_makes_three_lus(monkeypatch):
    # the potential block, J(x0) and J(x1): J(x0)'s factor stalls on J(x1)
    # after one sweep, so the second step factors afresh, and the later
    # Newton steps and the gradient refine with J(x1)'s
    model = config.build_model(config.RunConfig())
    labels, handed = [], []
    lu, linear_solve = analysis.sparse_lu, analysis._linear_solve

    def counting_lu(matrix, order=None, label="LU factorization"):
        labels.append(label)
        return lu(matrix, order, label)

    def recording_solve(jacobian, rhs, config, order=None, factor=None):
        handed.append(factor is not None)
        return linear_solve(jacobian, rhs, config, order, factor)

    monkeypatch.setattr(analysis, "sparse_lu", counting_lu)
    monkeypatch.setattr("embedfem.model.sparse_lu", counting_lu)
    monkeypatch.setattr(analysis, "_linear_solve", recording_solve)
    try:
        _, _, result = shape_objective_gradient(model, [0.1])
    finally:
        model.reset_coords()
    assert labels == ["LU factorization of the potential block",
                      "LU factorization", "LU factorization"]
    assert handed == [False, True, True, True, True]
    assert result.iterations == 4 and result.factorizations == 2
    assert result.refinement_sweeps == 15


def test_a_far_kept_factor_stalls_and_falls_back_to_a_fresh_lu(demo):
    # the warm start's Jacobian is far from the one at the solution: its
    # factor's first sweep cuts the residual by less than 1 / _REFRESH
    model, x = demo
    cfg = NewtonConfig()
    far = sparse_lu(model.jacobian(model.warm_start())[1], model.lu_order)
    _, jac = model.jacobian(x)
    b = np.random.default_rng(2).normal(size=model.num_dofs)
    got, factor, sweeps = _linear_solve(jac, b, cfg, model.lu_order, far)
    assert factor is not far and sweeps == 1
    fresh = sparse_lu(jac, model.lu_order)(b)
    assert np.linalg.norm(got - fresh) <= 1e-12 * np.linalg.norm(fresh)
    # a residual that is not finite abandons the factor too
    nan = np.full(model.num_dofs, np.nan)
    assert _linear_solve(jac, nan, cfg, model.lu_order, factor)[1] is not factor


@pytest.mark.parametrize("n, p", [(16, [0.1]), (16, [0.05, -0.03]),
                                  (32, [0.1]), (32, [0.05, -0.03])])
def test_kept_factor_gradient_matches_a_fresh_lu_gradient(n, p):
    model = config.build_model(_strip(n))
    cfg = NewtonConfig(dense_dof_limit=10 ** 6)
    p = np.array(p)
    _, grad, state = shape_objective_gradient(model, p, cfg)
    assert state.refinement_sweeps > 0
    base = model.mesh
    _, f_p = model.shape_tangent(state.x, mesh_sensitivity(base, p).reshape(
        len(base.coords), 2, p.size))
    g_x = model.objective(state.x).dense_gradient(model.num_dofs)
    fresh = reduced_gradient(state.jacobian, f_p, g_x, cfg, model.lu_order)
    assert np.max(np.abs(grad - fresh)) <= 1e-10


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def quadratic(p):
    g = float((p[0] - 0.3) ** 2)
    return g, np.array([2.0 * (p[0] - 0.3)])


def test_optimize_convex_quadratic():
    result = optimize(quadratic, [0.0], ([-1.0], [1.0]), tol=1e-8)
    assert result.converged
    assert result.p[0] == pytest.approx(0.3, abs=1e-6)


def test_optimize_zero_steps_at_minimizer():
    result = optimize(quadratic, [0.3], ([-1.0], [1.0]), tol=1e-8)
    assert result.iterations == 0
    assert len(result.history) == 1


def test_optimize_respects_bounds():
    result = optimize(quadratic, [0.0], ([-1.0], [0.2]), tol=1e-8)
    assert result.p[0] == pytest.approx(0.2, abs=1e-9)


def test_optimize_never_accepts_an_increase():
    calls = []

    def rosenbrock_like(p):
        g = float((p[0] - 1.0) ** 2 + 3.0 * (p[1] - p[0] ** 2) ** 2)
        calls.append(g)
        grad = np.array([
            2.0 * (p[0] - 1.0) - 12.0 * p[0] * (p[1] - p[0] ** 2),
            6.0 * (p[1] - p[0] ** 2)])
        return g, grad

    result = optimize(rosenbrock_like, [-0.5, 0.5], ([-2.0, -2.0], [2.0, 2.0]),
                      tol=1e-7, max_iters=100)
    accepted = [g for _, g in result.history]
    assert all(b <= a + 1e-15 for a, b in zip(accepted, accepted[1:]))
    assert result.converged
    assert np.allclose(result.p, [1.0, 1.0], atol=1e-4)


def test_optimize_failure_at_the_start_raises():
    def unsolvable(p):
        raise SolveFailure("Newton did not converge")

    with pytest.raises(SolveFailure, match="^objective evaluation failed at "
                                           "start: Newton did not converge$"):
        optimize(unsolvable, [0.0], ([-1.0], [2.0]), tol=1e-8)


def test_optimize_failure_at_a_trial_point_keeps_the_best_point():
    # g = (p - 1)^2 / 4 from 0: the first step reaches 0.5 and the second
    # aims at the minimizer 1, past the last p whose solve succeeds
    def fails_past_three_quarters(p):
        if p[0] > 0.75:
            raise SolveFailure("Newton did not converge")
        return 0.25 * float(p[0] - 1.0) ** 2, np.array([0.5 * (p[0] - 1.0)])

    result = optimize(fails_past_three_quarters, [0.0], ([-1.0], [2.0]),
                      tol=1e-8)
    assert not result.converged
    assert result.reason == ("objective evaluation failed at p = [1.0]: "
                             "Newton did not converge")
    assert [(p.tolist(), g) for p, g in result.history] == [([0.0], 0.25),
                                                            ([0.5], 0.0625)]
    assert result.p.tolist() == [0.5] and result.value == 0.0625
    assert result.iterations == 1


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------

class ParametrizedToy(AffineToy):
    """Affine toy whose rhs shifts with a parameter; objective = x[0]."""

    def __init__(self):
        super().__init__(n=4, seed=1)
        self.p = 0.0

    def residual(self, x):
        rhs = self.rhs.copy()
        rhs[0] += self.p
        return self.mat @ x - rhs

    def jacobian(self, x):
        return self.residual(x), sp.csr_matrix(self.mat)

    def objective(self, x):
        class Result:
            def __init__(self, value):
                self.value = value
        return Result(float(x[0]))


def test_continuation_ignored_parameter_gives_identical_objective():
    toy = ParametrizedToy()

    def setter(model, value):
        pass  # the residual never sees it

    table, _ = continuation(toy, setter, [0.0, 1.0])
    assert table[0].objective == table[1].objective


def test_continuation_tracks_parameter():
    toy = ParametrizedToy()

    def setter(model, value):
        model.p = value

    values = np.linspace(0.0, 2.0, 5)
    table, x_last = continuation(toy, setter, values)
    assert [s.parameter for s in table] == list(values)
    # x depends linearly on p here, so the objective curve is affine
    gs = np.array([s.objective for s in table])
    assert np.allclose(np.diff(gs, 2), 0.0, atol=1e-12)
    assert np.allclose(toy.residual(x_last), 0.0, atol=1e-9)


def test_continuation_hands_each_step_its_predecessor_factor(monkeypatch):
    handed, made = [], []
    solve = analysis.newton_solve

    def recording(model, config, x0=None, factor=None):
        handed.append(factor)
        result = solve(model, config, x0=x0, factor=factor)
        made.append(result.factor)
        return result

    def setter(model, value):
        model.p = value

    monkeypatch.setattr(analysis, "newton_solve", recording)
    continuation(ParametrizedToy(), setter, np.linspace(0.0, 2.0, 3))
    assert handed[0] is None and made[0] is not None
    assert all(h is m for h, m in zip(handed[1:], made))


def test_continuation_with_handed_factors_keeps_its_iterations(monkeypatch):
    # the demo's deflection sweep against correctors that factor afresh
    model = config.build_model(config.RunConfig())
    base = model.mesh

    def setter(m, value):
        m.set_coords(morph(base, [value]).coords)

    values = np.linspace(-0.3, 0.3, 4)
    try:
        kept, _ = continuation(model, setter, values)
        solve = analysis.newton_solve
        monkeypatch.setattr(analysis, "newton_solve",
                            lambda m, c, x0=None, factor=None: solve(m, c, x0))
        fresh, _ = continuation(model, setter, values)
    finally:
        model.reset_coords()
    assert [s.iterations for s in kept] == [s.iterations for s in fresh]
    assert np.allclose([s.objective for s in kept],
                       [s.objective for s in fresh], rtol=1e-14, atol=0.0)


def test_continuation_failure_names_the_parameter_and_keeps_the_cause():
    config = NewtonConfig(max_iters=1, abs_tol=1e-15, rel_tol=1e-16)
    with pytest.raises(SolveFailure) as info:
        continuation(CubicToy(), lambda model, value: None,
                     np.linspace(-0.3, 0.3, 3), config)
    message = str(info.value)
    assert message.startswith("continuation failed at parameter -0.3: ")
    assert "Newton did not converge in 1 iterations" in message
    assert "np.float64" not in message
    assert isinstance(info.value.__cause__, SolveFailure)
    assert info.value.history == []


class SingularAtZeroToy(ParametrizedToy):
    """Affine toy whose matrix is scaled by the parameter: singular at 0."""

    def residual(self, x):
        return self.p * (self.mat @ x) - self.rhs

    def jacobian(self, x):
        return self.residual(x), sp.csr_matrix(self.p * self.mat)


def test_continuation_does_not_bisect_a_factorization_failure():
    # 0.5 would converge, but no smaller step cures a singular matrix at 0
    attempts = []

    def setter(model, value):
        attempts.append(value)
        model.p = value

    with pytest.raises(SolveFailure) as info:
        continuation(SingularAtZeroToy(), setter, [1.0, 0.0])
    assert attempts == [1.0, 0.0]
    assert str(info.value) == ("continuation failed at parameter 0.0: "
                               "LU factorization failed: Factor is exactly "
                               "singular")
    assert isinstance(info.value.__cause__, FactorizationFailure)
    assert [step["parameter"] for step in info.value.history] == [1.0]


def test_continuation_on_the_32_strip_stops_at_the_first_ilu_breakdown():
    cfg = _strip(32)
    model = config.build_model(cfg)
    attempts = []

    def setter(model, value):
        attempts.append(value)
        model.library.set_value("PadSigma0", 30.0 + value)

    newton = config.newton_config(cfg)
    assert model.num_dofs > newton.dense_dof_limit
    with pytest.raises(SolveFailure) as info:
        continuation(model, setter, [-0.3, 0.0, 0.3], newton)
    assert attempts == [-0.3]
    assert str(info.value) == ("continuation failed at parameter -0.3: ILU "
                               "factorization failed: Factor is exactly "
                               "singular")


# ---------------------------------------------------------------------------
# spectral solve and projection oracle
# ---------------------------------------------------------------------------

BASIS = sc.build_basis_data(3)


def test_nisp_constant_output():
    coeffs = nisp_project(lambda xi: 4.25, BASIS, 8)
    assert coeffs[0] == pytest.approx(4.25, abs=1e-13)
    assert np.allclose(coeffs[1:], 0.0, atol=1e-13)


def test_nisp_recovers_input_expansion():
    source = sc.PCE([35.0, 15.0, 0.0, 0.0], BASIS)
    coeffs = nisp_project(lambda xi: source.evaluate(xi), BASIS, 8)
    assert np.allclose(coeffs, [35.0, 15.0, 0.0, 0.0], atol=1e-12)


def linear_heat_model():
    """Heat-only problem whose solution is affine in the uncertain source."""
    mesh = build_rect_mesh(6, 6)
    mat = RegionMaterial(1.0, 1.0, (0.0, 0.0), 0.0, 0.0)
    materials = MaterialTable(mat, RegionMaterial(1.0, 1.0, (0.0, 0.0), 0.0, 0.0),
                              RegionMaterial(1.0, 1.0, (0.0, 0.0), 0.0, 0.0))
    bc = [("left", "psi", 0.0), ("right", "psi", 0.5),
          ("boundary", "temp", 0.0)]
    return ThermoElectricModel(mesh, materials, with_joule=False,
                               dirichlet=bc, sg_basis=BASIS)


def test_sg_solve_exact_for_linear_parameter_dependence():
    model = linear_heat_model()
    expansion = [1.0, 0.5, 0.0, 0.0]
    result = sg_newton_solve(model, {"Alpha": expansion})
    alpha = sc.PCE(expansion, BASIS)
    for xi in BASIS.quad_nodes:
        realized = result.coefficients.T @ sc.legendre_values(BASIS.degree, xi)
        model.library.set_value("Alpha", float(alpha.evaluate(xi)))
        deterministic = newton_solve(model).x
        assert np.max(np.abs(realized - deterministic)) < 1e-9
    model.library.set_value("Alpha", 1.0)


def test_sg_newton_is_a_chord_iteration_on_true_sg_residuals(monkeypatch):
    model = config.build_model(config.RunConfig(), sg_basis=BASIS)
    uncertain = {"PadSigma0": [35.0, 15.0, 0.0, 0.0]}
    jacobian_states, jacobian_f, residual_states, tolerances = [], [], [], []
    sg_jacobian, sg_residual = model.sg_jacobian, model.sg_residual
    gmres = analysis.spla.gmres

    def counting_jacobian(x_block, unc):
        jacobian_states.append(x_block.copy())
        f, blocks = sg_jacobian(x_block, unc)
        jacobian_f.append(f.copy())
        return f, blocks

    def counting_residual(x_block, unc):
        residual_states.append(x_block.copy())
        return sg_residual(x_block, unc)

    def recording_gmres(*args, **kwargs):
        tolerances.append(kwargs["rtol"])
        return gmres(*args, **kwargs)

    monkeypatch.setattr(model, "sg_jacobian", counting_jacobian)
    monkeypatch.setattr(model, "sg_residual", counting_residual)
    monkeypatch.setattr(analysis.spla, "gmres", recording_gmres)
    result = sg_newton_solve(model, uncertain)
    k = result.iterations
    assert meets_stop_test(result.history) and k >= 3
    # ||F(x0)|| from one SG residual at the hot start, whose higher
    # coefficients are zero
    x0 = residual_states[0]
    assert not np.any(x0[1:])
    model.library.set_value("PadSigma0", 35.0)
    f0, hot_jacobian = model.residual(x0[0]), model.jacobian(x0[0])[1]
    assert np.linalg.norm(f0) <= 1e-11
    # the mean-based step solves every coefficient block of F(x0) with the
    # hot start's Jacobian, and the first SG Jacobian is assembled where it
    # lands: its residual gives ||F(x1)||, with no SG residual spent there
    x1 = jacobian_states[0]
    f0_block = sg_residual(x0, uncertain)
    assert np.allclose(hot_jacobian @ (x0 - x1).T, f0_block.T, rtol=0.0,
                       atol=1e-12 * np.max(np.abs(f0_block)))
    # bitwise the refinement with the hot start's last factor
    hot = newton_solve(model)
    assert np.array_equal(_bits(hot.x), _bits(x0[0]))
    step = _linear_solve(hot.jacobian, f0_block.T, NewtonConfig(),
                         model.lu_order, hot.factor)[0]
    assert np.array_equal(_bits(x1), _bits(x0 - step.T))
    # then one SG residual after each GMRES step
    iterates = [x0, x1] + residual_states[1:]
    assert len(residual_states) == k and len(tolerances) == k - 1
    # the Jacobian is refreshed only at states the loop reached, after a step
    # that cut ||F|| by less than _REFRESH, and fewer than k times
    h = result.history
    stalled = [j for j in range(2, k) if h[j] > analysis._REFRESH * h[j - 1]]
    assert len(jacobian_states) == 1 + len(stalled) < k
    for x_block, j in zip(jacobian_states[1:], stalled):
        assert np.array_equal(_bits(x_block), _bits(iterates[j]))
    # each SG Jacobian's residual is bitwise the SG residual at its state
    for x_block, f in zip(jacobian_states, jacobian_f):
        assert np.array_equal(_bits(f), _bits(sg_residual(x_block, uncertain)))
    # so the history is bitwise the one explicit SG residuals give
    want = [float(np.linalg.norm(sg_residual(x, uncertain))) for x in iterates]
    assert np.array_equal(_bits(np.array(h)), _bits(np.array(want)))
    # each GMRES solve stops at the forcing term of the step before it, the
    # mean-based one included, and never more loosely than the cap
    eta_max = analysis._SG_ETA_MAX
    stop = max(1e-11, 1e-12 * h[0])
    assert tolerances == [
        min(eta_max, max(analysis._SG_GAMMA * (h[j] / h[j - 1]) ** 2,
                         0.5 * stop / h[j])) for j in range(1, k)]
    assert max(tolerances) <= eta_max


def chord_from_the_hot_start(model, uncertain, config):
    """SG Newton without the mean-based step: the chord iteration from the
    hot start, the reference that a refused mean-based step must reproduce
    bit for bit. Returns the coefficients and the history."""
    basis, n = model.sg_basis, model.num_dofs
    x_block = np.zeros((basis.size, n))
    model.library.set_value("PadSigma0", float(uncertain["PadSigma0"][0]))
    x_block[0] = newton_solve(model, config).x
    f, blocks = model.sg_jacobian(x_block, uncertain)
    norm = norm0 = float(np.linalg.norm(f))
    history = [norm0]
    stop = max(config.abs_tol, config.rel_tol * norm0)
    eta, refresh = analysis._SG_ETA_MAX, True
    for _ in range(config.max_iters):
        if refresh:
            system = SGSystem(blocks, basis, model.lu_order)
            operator, precond = system.operator(), system.mean_preconditioner()
        update, info = spla.gmres(operator, f.ravel(), M=precond, rtol=eta,
                                  atol=0.0, restart=80, maxiter=400)
        assert info == 0
        x_block = x_block - update.reshape(basis.size, n)
        f = model.sg_residual(x_block, uncertain)
        new_norm = float(np.linalg.norm(f))
        history.append(new_norm)
        if new_norm <= stop:
            return x_block, history
        rate, norm = new_norm / norm, new_norm
        refresh = rate > analysis._REFRESH
        if refresh:
            f, blocks = model.sg_jacobian(x_block, uncertain)
        eta = min(analysis._SG_ETA_MAX,
                  max(analysis._SG_GAMMA * rate ** analysis._SG_ALPHA,
                      0.5 * stop / norm))
    raise AssertionError("reference SG Newton did not converge")


@pytest.mark.parametrize("bad_step", [
    lambda step: -step,                          # ||F|| grows
    lambda step: np.full_like(step, np.nan),     # ||F|| is not finite
    lambda step: np.full_like(step, 1e6),        # T = -1e6: sigma(T) < 0
], ids=["no-decrease", "non-finite", "non-physical"])
def test_refused_mean_step_gives_the_chord_from_the_hot_start(monkeypatch,
                                                             bad_step):
    # a mean-based step that does not reduce ||F||, or whose state the SG
    # Jacobian refuses, is discarded: the solve is then bitwise the chord
    # iteration from the hot start
    model = config.build_model(config.RunConfig(), sg_basis=BASIS)
    model.library.set_value("Beta", 0.01)
    uncertain = {"PadSigma0": [35.0, 15.0, 0.0, 0.0]}
    want_x, want_history = chord_from_the_hot_start(model, uncertain,
                                                    NewtonConfig())
    linear_solve = analysis._linear_solve

    def bad_mean_step(jacobian, rhs, *args):
        # every Newton step solves a vector, the mean-based step a block
        x, *rest = linear_solve(jacobian, rhs, *args)
        return (bad_step(x) if rhs.ndim == 2 else x), *rest

    monkeypatch.setattr(analysis, "_linear_solve", bad_mean_step)
    result = sg_newton_solve(model, uncertain)
    assert result.iterations == len(want_history) - 1
    assert np.array_equal(_bits(result.coefficients), _bits(want_x))
    assert np.array_equal(_bits(np.array(result.history)),
                          _bits(np.array(want_history)))


def test_sg_jacobian_is_exact_in_mean_only_directions():
    """Central differences of the SG residual at a 16x16 state off the SG
    solution. The block operator matches them to rounding in a mean-only
    direction; in a stochastic one it is off by about 4e-6 at any step,
    because truncated Galerkin products are not associative."""
    model = config.build_model(config.RunConfig(), sg_basis=BASIS)
    uncertain = {"PadSigma0": [35.0, 15.0, 0.0, 0.0]}
    rng = np.random.default_rng(0)
    x_block = np.zeros((BASIS.size, model.num_dofs))
    model.library.set_value("PadSigma0", 35.0)
    x_block[0] = newton_solve(model).x
    x_block[0] += 0.01 * np.max(np.abs(x_block[0])) * rng.normal(
        size=model.num_dofs)
    x_block[1] = 0.05 * x_block[0]
    _, blocks = model.sg_jacobian(x_block, uncertain)
    operator = SGSystem(blocks, BASIS).operator()

    def mismatch(direction, step=1e-6):
        fd = (model.sg_residual(x_block + step * direction, uncertain)
              - model.sg_residual(x_block - step * direction, uncertain))
        fd = fd.ravel() / (2.0 * step)
        return (np.linalg.norm(operator.matvec(direction.ravel()) - fd)
                / np.linalg.norm(fd))

    mean_only = np.zeros_like(x_block)
    mean_only[0] = rng.normal(size=model.num_dofs)
    stochastic = np.zeros_like(x_block)
    stochastic[1:] = rng.normal(size=(BASIS.size - 1, model.num_dofs))
    assert mismatch(mean_only) <= 1e-9
    assert mismatch(stochastic) <= 1e-4


def test_sg_degenerate_uncertainty_reduces_to_deterministic():
    model = linear_heat_model()
    result = sg_newton_solve(model, {"Alpha": [1.0, 0.0, 0.0, 0.0]})
    # the hot start is the exact solution: no step is taken
    assert result.iterations == 0 and meets_stop_test(result.history)
    model.library.set_value("Alpha", 1.0)
    deterministic = newton_solve(model).x
    assert np.max(np.abs(result.coefficients[0] - deterministic)) <= 1e-12
    assert np.max(np.abs(result.coefficients[1:])) <= 1e-12
