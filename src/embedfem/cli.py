"""Batch driver: binds config files to analysis modes and writes result files.

Exit codes distinguish configuration problems (2), among them a geometry or
shape that gives no valid mesh, from numerical failures (1); identical configs
and overrides produce byte-identical summary files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (SolveFailure, continuation, convergence_order_estimate,
                       newton_solve, optimize, shape_objective_gradient)
from .config import (ConfigError, build_model, config_documentation,
                     parse_config, uncertain_expansion)
from .io import (write_solution_csv, write_summary, write_table_csv,
                 write_vtk)
from .mesh import MeshError
from .morphing import MorphError, morph
from .physics import NonPhysicalStateError
from .verification import run_verification, sg_vs_nisp


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="embedfem",
        description="Generic-scalar FE assembly with embedded analysis.",
        epilog="Config keys and defaults:\n\n" + config_documentation(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="run a config file")
    run_p.add_argument("config", help="path to the config file")
    run_p.add_argument("overrides", nargs="*", metavar="section.key=value",
                       help="config overrides")
    run_p.add_argument("--dump-graph", action="store_true",
                       help="write the evaluator DAG as text and dot files")

    args = parser.parse_args(argv)
    if args.command != "run":
        parser.print_usage()
        return 2
    try:
        cfg = parse_config(args.config, args.overrides)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    try:
        return _dispatch(cfg, dump_graph=args.dump_graph)
    except (ConfigError, MeshError, MorphError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (SolveFailure, NonPhysicalStateError) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 1


def _dispatch(cfg, dump_graph=False):
    model = build_model(cfg)
    out_dir = Path(cfg.run.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if dump_graph:
        for ev_type, graph in model.graphs.items():
            (out_dir / f"graph_{ev_type.tag}.txt").write_text(graph.dump_text())
            (out_dir / f"graph_{ev_type.tag}.dot").write_text(graph.dump_dot())
    handler = {
        "solve": _run_solve,
        "continuation": _run_continuation,
        "optimize": _run_optimize,
        "uq": _run_uq,
        "verify": _run_verify,
    }[cfg.run.mode]
    return handler(cfg, model, out_dir)


def _write_state(out_dir, model, x):
    mesh = model.mesh.replace_coords(model.state.coords)
    write_solution_csv(out_dir / "solution.csv", mesh, x)
    write_vtk(out_dir / "solution.vtk", mesh,
              {"psi": x[0::2], "T": x[1::2]})


def _base_summary(cfg, model):
    return {
        "mode": cfg.run.mode,
        "num_nodes": model.mesh.num_nodes,
        "num_dofs": model.num_dofs,
        "parameters": {name: model.library.value(name)
                       for name in model.library.names()},
    }


def _run_solve(cfg, model, out_dir):
    result = newton_solve(model, cfg.solver)
    _write_state(out_dir, model, result.x)
    write_table_csv(out_dir / "newton_history.csv",
                    ["iteration", "residual_norm"],
                    list(enumerate(result.history)))
    summary = _base_summary(cfg, model)
    summary.update({
        "iterations": result.iterations,
        "residual_norms": result.history,
        "final_residual_norm": result.history[-1],
        "convergence_order_estimate": convergence_order_estimate(result.history),
        "objective_max_temperature": model.objective(result.x).value,
    })
    write_summary(out_dir / "summary.json", summary)
    return 0


def _set_sweep_parameter(cfg):
    name = cfg.continuation.parameter
    if name != "deflection":
        return lambda m, value: m.library.set_value(name, value)
    return lambda m, value: m.set_coords(morph(m.mesh, [value]).coords)


def _run_continuation(cfg, model, out_dir):
    c = cfg.continuation
    values = np.linspace(c.start, c.stop, c.steps)
    table, x_last = continuation(model, _set_sweep_parameter(cfg),
                                 values, cfg.solver)
    rows = [(s.parameter, s.objective, s.iterations, s.residual_norm)
            for s in table]
    write_table_csv(out_dir / "continuation.csv",
                    ["parameter", "objective", "iterations", "residual_norm"],
                    rows)
    _write_state(out_dir, model, x_last)
    summary = _base_summary(cfg, model)
    best = min(table, key=lambda s: s.objective)
    summary.update({
        "sweep_parameter": c.parameter,
        "sweep_values": [s.parameter for s in table],
        "objective_values": [s.objective for s in table],
        "argmin_parameter": best.parameter,
        "argmin_objective": best.objective,
    })
    write_summary(out_dir / "summary.json", summary)
    return 0


def _run_optimize(cfg, model, out_dir):
    o = cfg.optimize
    bounds = (np.full(o.p0.size, o.lower), np.full(o.p0.size, o.upper))
    result = optimize(
        lambda p: shape_objective_gradient(model, p, cfg.solver)[:2], o.p0,
        bounds, tol=o.tol, max_iters=o.max_iters)
    rows = [(i, *p, g) for i, (p, g) in enumerate(result.history)]
    write_table_csv(out_dir / "optimize.csv",
                    ["iteration", *o.shape_parameters, "objective"], rows)
    g_final, _, state = shape_objective_gradient(model, result.p, cfg.solver)
    _write_state(out_dir, model, state.x)
    summary = _base_summary(cfg, model)
    summary.update({
        "shape_parameters": o.shape_parameters,
        "p_star": result.p,
        "objective_star": result.value,
        "optimizer_iterations": result.iterations,
        "optimizer_converged": bool(result.converged),
        "optimizer_termination": result.reason,
    })
    write_summary(out_dir / "summary.json", summary)
    return 0


def _run_uq(cfg, model, out_dir):
    expansion = uncertain_expansion(cfg, model.sg_basis)
    sg_coeffs, nisp_coeffs, rel, sg = sg_vs_nisp(
        model, expansion, cfg.uq.nisp_order, cfg.solver)
    rows = [(k, sg_coeffs[k], nisp_coeffs[k], rel[k])
            for k in range(model.sg_basis.size)]
    write_table_csv(out_dir / "uq_coefficients.csv",
                    ["degree", "sg", "nisp", "relative_difference"], rows)
    _write_state(out_dir, model, sg.coefficients[0])
    summary = _base_summary(cfg, model)
    summary.update({
        "uncertain_parameter": cfg.uq.parameter,
        "input_expansion": expansion[cfg.uq.parameter],
        "tmax_expansion_sg": sg_coeffs,
        "tmax_expansion_nisp": nisp_coeffs,
        "max_relative_difference": float(np.max(rel)),
        "sg_iterations": sg.iterations,
        "sg_residual_norms": sg.history,
    })
    write_summary(out_dir / "summary.json", summary)
    return 0


def _run_verify(cfg, model, out_dir):
    expansion = nisp_order = None
    if cfg.uq is not None:
        expansion = uncertain_expansion(cfg, model.sg_basis)
        nisp_order = cfg.uq.nisp_order
    checks = run_verification(model, cfg.solver, expansion, nisp_order)
    write_table_csv(out_dir / "verify.csv",
                    ["check", "status", "measured", "tolerance", "detail"],
                    [c.row() for c in checks])
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status} {c.name}: measured {c.measured:.3e} "
              f"(tolerance {c.tolerance:.3e})")
    summary = _base_summary(cfg, model)
    summary["checks"] = [
        {"name": c.name, "passed": bool(c.passed), "measured": c.measured,
         "tolerance": c.tolerance} for c in checks]
    write_summary(out_dir / "summary.json", summary)
    return 0 if all(c.passed for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
