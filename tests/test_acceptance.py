"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test records a pass/fail line for the terminal summary before asserting,
so the full table prints even when something regresses.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import record_criterion
from embedfem import graph as gr
from embedfem import scalars as sc
from embedfem.analysis import (NewtonConfig, continuation,
                               convergence_order_estimate, newton_solve,
                               optimize, shape_objective_gradient)
from embedfem.cli import main
from embedfem.fields import Layout
from embedfem.mesh import GeometryParams, Resolution, build_slider_mesh
from embedfem.model import ThermoElectricModel
from embedfem.morphing import mesh_sensitivity, morph
from embedfem.physics import default_materials
from embedfem.verification import check_mms, fd_jacobian, sg_vs_nisp
from test_scalars import _ZOO

DEMO_BC = [("left_conductor_end", "psi", 0.0),
           ("symmetry_plane", "psi", 0.5),
           ("left_conductor_end", "temp", 0.0)]
BASIS = sc.build_basis_data(3)
PAD_EXPANSION = {"PadSigma0": [35.0, 15.0, 0.0, 0.0]}


def demo_model(**kw):
    kw.setdefault("dirichlet", DEMO_BC)
    kw.setdefault("materials", default_materials())
    materials = kw.pop("materials")
    return ThermoElectricModel(build_slider_mesh(GeometryParams(), Resolution()),
                               materials, **kw)


def random_state(model, seed, scale=0.3):
    rng = np.random.default_rng(seed)
    return model.initial_guess() + scale * rng.normal(size=model.num_dofs)


def check(number, description, passed, detail=""):
    record_criterion(number, description, passed, detail)
    assert passed, f"criterion {number}: {description} ({detail})"


def test_criterion_01_single_source_values_bitwise():
    start = time.perf_counter()
    model = demo_model(sg_basis=BASIS)
    x = random_state(model, seed=0)
    x_block = np.zeros((BASIS.size, model.num_dofs))
    x_block[0] = x
    deterministic_pad = {"PadSigma0": [35.0, 0.0, 0.0, 0.0]}
    rng = np.random.default_rng(1)
    v = rng.normal(size=model.num_dofs)
    x_p = 0.01 * rng.normal(size=(model.mesh.num_nodes, 2, 2))

    reference = model.residual(x)
    produced = {
        "Jacobian": model.assemble(gr.JACOBIAN, x).residual,
        "Tangent": model.assemble(
            gr.TANGENT, x, tangent_params=("Alpha", "Beta", "PadSigma0")).residual,
        "Directional": model.assemble(gr.TANGENT, x, v=v).residual,
        "ShapeTangent": model.assemble(gr.SHAPE_TANGENT, x, Xp=x_p).residual,
        "SGResidual": model.assemble(gr.SG_RESIDUAL, x_block=x_block,
                                     uncertain=deterministic_pad).residual,
        "SGJacobian": model.assemble(gr.SG_JACOBIAN, x_block=x_block,
                                     uncertain=deterministic_pad).residual,
    }
    mismatched = [tag for tag, f in produced.items()
                  if not np.array_equal(f, reference)]
    elapsed = time.perf_counter() - start
    check(1, "value/mean component of every evaluation type is bitwise equal "
             "to the plain residual",
          not mismatched and elapsed < 5.0,
          f"{len(produced)} types, {elapsed:.2f} s" +
          (f", mismatched: {mismatched}" if mismatched else ""))


def test_criterion_02_jacobian_matches_finite_differences():
    start = time.perf_counter()
    model = demo_model()
    worst = 0.0
    for seed in range(5):
        x = random_state(model, seed=seed)
        _, jac = model.jacobian(x)
        dense = jac.toarray()
        fd = fd_jacobian(model, x).toarray()
        # per-entry relative error with the matrix scale as the denominator
        # floor: entries below the divided-difference noise floor cannot be
        # resolved better than the scale of the matrix itself
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(dense)),
                           np.max(np.abs(fd)))
        worst = max(worst, float(np.max(np.abs(dense - fd) / denom)))
    elapsed = time.perf_counter() - start
    check(2, "embedded Jacobian matches central differences over 5 random "
             "states (<= 1e-6)",
          worst <= 1e-6 and elapsed < 30.0,
          f"max rel err {worst:.2e}, {elapsed:.1f} s")


def test_criterion_03_parameter_sensitivities():
    model = demo_model()
    model.library.set_value("Alpha", 0.3)
    model.library.set_value("Beta", 0.05)
    solved = newton_solve(model).x
    names = ("Alpha", "Beta", "PadSigma0")
    _, tangent = model.tangent(solved, names)
    worst = 0.0
    for k, name in enumerate(names):
        p0 = model.library.value(name)
        h = 1e-6 * (1.0 + abs(p0))
        model.library.set_value(name, p0 + h)
        f_plus = model.residual(solved)
        model.library.set_value(name, p0 - h)
        f_minus = model.residual(solved)
        model.library.set_value(name, p0)
        fd = (f_plus - f_minus) / (2.0 * h)
        err = np.max(np.abs(tangent[:, k] - fd)) / np.max(np.abs(fd))
        worst = max(worst, float(err))

    rng = np.random.default_rng(2)
    v = rng.normal(size=model.num_dofs)
    _, jac = model.jacobian(solved)
    jv = model.directional(solved, v)
    ref = jac @ v
    dir_err = float(np.max(np.abs(jv - ref)) / np.max(np.abs(ref)))
    check(3, "parameter sensitivities match FD (<= 1e-6); directional "
             "derivative matches J v (<= 1e-12)",
          worst <= 1e-6 and dir_err <= 1e-12,
          f"tangent {worst:.2e}, directional {dir_err:.2e}")


def test_criterion_04_shape_sensitivity_chain():
    model = demo_model()
    base = model.mesh
    p = np.array([0.05])

    model.set_coords(morph(base, p).coords)
    solved = newton_solve(model).x
    x_p = mesh_sensitivity(base, p)
    _, f_p = model.shape_tangent(solved, x_p)
    h = 1e-6
    model.set_coords(morph(base, p + h).coords)
    f_plus = model.residual(solved)
    model.set_coords(morph(base, p - h).coords)
    f_minus = model.residual(solved)
    model.set_coords(morph(base, p).coords)
    fd = (f_plus - f_minus) / (2.0 * h)
    tangent_err = float(np.max(np.abs(f_p[:, 0] - fd)) / np.max(np.abs(fd)))

    _, grad, _ = shape_objective_gradient(model, p)
    hp = 1e-5
    g_plus, _, _ = shape_objective_gradient(model, p + hp)
    g_minus, _, _ = shape_objective_gradient(model, p - hp)
    fd_grad = (g_plus - g_minus) / (2.0 * hp)
    grad_err = float(abs(grad[0] - fd_grad) / max(abs(fd_grad), 1e-12))
    model.reset_coords()
    check(4, "shape tangent matches end-to-end FD (<= 1e-5); reduced "
             "gradient matches FD of g(solve(morph(p))) (<= 1e-4)",
          tangent_err <= 1e-5 and grad_err <= 1e-4,
          f"tangent {tangent_err:.2e}, gradient {grad_err:.2e}")


def test_criterion_05_mms_convergence_order():
    start = time.perf_counter()
    result = check_mms(sizes=(8, 16, 32), target=2.0, window=0.15)
    elapsed = time.perf_counter() - start
    check(5, "manufactured-solution L2 convergence order 2.0 +/- 0.15 on "
             "{8^2, 16^2, 32^2}",
          result.passed and elapsed < 60.0,
          f"order {result.measured:.3f}, {elapsed:.1f} s; {result.detail}")


def test_criterion_06_newton_iteration_behavior():
    linear = demo_model(materials=default_materials(beta=0.0),
                        with_joule=False)
    linear.library.set_value("Alpha", 1.0)
    lin_result = newton_solve(linear)

    coupled = demo_model()
    coup_result = newton_solve(coupled)
    order = convergence_order_estimate(coup_result.history)
    check(6, "one iteration on the linear decoupled problem; terminal order "
             ">= 1.7 on the coupled problem",
          lin_result.iterations == 1 and order >= 1.7,
          f"linear iterations {lin_result.iterations}, coupled order {order:.2f}")


def test_criterion_07_sg_vs_nisp():
    start = time.perf_counter()
    model = demo_model(sg_basis=BASIS)
    sg_coeffs, nisp_coeffs, rel, _ = sg_vs_nisp(model, PAD_EXPANSION,
                                                nisp_order=6)
    spectral_ok = bool(np.all(rel <= 1e-3))

    from embedfem.analysis import sg_newton_solve
    degenerate = sg_newton_solve(model, {"PadSigma0": [35.0, 0.0, 0.0, 0.0]})
    det = newton_solve(model).x
    degen_err = max(float(np.max(np.abs(degenerate.coefficients[0] - det))),
                    float(np.max(np.abs(degenerate.coefficients[1:]))))
    elapsed = time.perf_counter() - start

    print("\nmax-temperature expansion, intrusive spectral solve:",
          np.round(sg_coeffs, 4).tolist())
    print("max-temperature expansion, projection oracle:      ",
          np.round(nisp_coeffs, 4).tolist())
    print("qualitative reference from the original 3D configuration "
          "(different geometry, not asserted): [25.87, 0.61, -0.17, 0.04]")
    check(7, "degree-3 intrusive solve matches order-6 projection oracle "
             "(<= 1e-3 of the largest coefficient); zero-uncertainty case "
             "reduces to the deterministic solve (<= 1e-12)",
          spectral_ok and degen_err <= 1e-12 and elapsed < 120.0,
          f"max rel {float(np.max(rel)):.2e}, degenerate {degen_err:.2e}, "
          f"{elapsed:.1f} s")


def test_criterion_08_optimizer_continuation_consistency():
    model = demo_model()
    base = model.mesh
    values = np.linspace(-0.3, 0.3, 21)

    def setter(m, value):
        m.set_coords(morph(base, [value]).coords)

    table, _ = continuation(model, setter, values)
    objectives = np.array([s.objective for s in table])
    sweep_argmin = values[int(np.argmin(objectives))]
    spacing = values[1] - values[0]

    def func(p):
        g, dg, _ = shape_objective_gradient(model, p)
        return g, dg

    result = optimize(func, [0.15], ([-0.3], [0.3]), tol=1e-6, max_iters=40)
    model.reset_coords()
    bracket_ok = abs(result.p[0] - sweep_argmin) <= spacing + 1e-12

    sign = "zero" if abs(result.p[0]) < 1e-6 else \
        ("positive" if result.p[0] > 0 else "negative")
    print(f"\noptimal deflection p* = {result.p[0]:.3e} ({sign}); the original "
          "3D study reported a small positive optimum (slightly arched "
          "upward); this 2D half-strip is mirror-symmetric, so its optimum "
          "sits at zero deflection (not asserted)")
    check(8, "21-point continuation sweep brackets the optimizer minimum "
             "within one grid spacing",
          bracket_ok,
          f"sweep argmin {sweep_argmin:+.3f}, optimizer {result.p[0]:+.2e}, "
          f"spacing {spacing:.3f}")


def test_criterion_09_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    failures = 0

    # dual chain rule vs central differences, 1000 randomized cases
    cases = 0
    for _ in range(1000):
        f = _ZOO[rng.integers(len(_ZOO))]
        x0 = float(rng.uniform(-2.0, 2.0))
        a = float(rng.uniform(-2.0, 2.0))
        ad = float(f(sc.Dual(x0, [1.0]), a).dx[0])
        h = 1e-6 * (1.0 + abs(x0))
        fd = float(sc.strip_derivatives(f(sc.Dual(x0 + h, [1.0]), a))
                   - sc.strip_derivatives(f(sc.Dual(x0 - h, [1.0]), a))) / (2.0 * h)
        cases += 1
        if abs(ad - fd) > 1e-6 * max(abs(ad), abs(fd), 1.0):
            failures += 1

    # spectral product consistency at quadrature nodes (exact when degrees fit)
    for _ in range(200):
        a = sc.PCE(np.append(rng.normal(size=2), [0.0, 0.0]), BASIS)
        b = sc.PCE(np.append(rng.normal(size=2), [0.0, 0.0]), BASIS)
        xi = float(rng.choice(BASIS.quad_nodes))
        if abs(float((a * b).evaluate(xi))
               - float(a.evaluate(xi)) * float(b.evaluate(xi))) > 1e-11:
            failures += 1

    # layout linearization is a bijection
    for _ in range(100):
        extents = tuple(int(e) for e in rng.integers(1, 5, size=rng.integers(1, 4)))
        layout = Layout(extents)
        seen = {layout.linear_index(idx) for idx in np.ndindex(*extents)}
        if seen != set(range(layout.size)):
            failures += 1

    # graph structure identical across evaluation types
    model = demo_model(sg_basis=BASIS)
    names = {t: g.evaluator_names() for t, g in model.graphs.items()}
    edges = {t: g.edges() for t, g in model.graphs.items()}
    if len({tuple(v) for v in names.values()}) != 1:
        failures += 1
    if len({tuple(map(tuple, v)) for v in edges.values()}) != 1:
        failures += 1

    # basis table invariants
    t = BASIS.triple
    for perm in ((1, 0, 2), (2, 1, 0), (0, 2, 1)):
        if not np.array_equal(t, np.transpose(t, perm)):
            failures += 1
    elapsed = time.perf_counter() - start
    check(9, "randomized property suites for scalars, fields, graph, and "
             "assembly (>= 1000 dual-arithmetic cases)",
          failures == 0 and elapsed < 30.0,
          f"{cases} dual cases, {failures} failures, {elapsed:.1f} s")


def test_criterion_10_determinism(tmp_path):
    x = None
    results = []
    for size in (0, 1, 7):
        model = demo_model(workset_size=size)
        if x is None:
            x = random_state(model, seed=10)
        f, jac = model.jacobian(x)
        results.append((f, jac.data))
    partition_ok = all(np.array_equal(f, results[0][0])
                       and np.array_equal(d, results[0][1])
                       for f, d in results[1:])

    config = Path(__file__).resolve().parent.parent / "configs" / "demo.ini"
    artifacts = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = main(["run", str(config), f"run.output_dir={out}"])
        assert code == 0
        artifacts.append((out / "summary.json").read_bytes()
                         + (out / "solution.csv").read_bytes())
    repeat_ok = artifacts[0] == artifacts[1]
    check(10, "workset partitioning {1, 7, all} and repeated runs are "
              "bitwise deterministic",
          partition_ok and repeat_ok,
          f"partition bitwise {partition_ok}, artifacts bitwise {repeat_ok}")
