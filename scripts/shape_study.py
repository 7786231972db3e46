#!/usr/bin/env python3
"""Shape study: sweep the slider deflection, then optimize from a cold start.

Writes the response curve, optimizer iterates, and the solved fields at the
optimum under out/shape_study/. Run from the repository root:

    python3 scripts/shape_study.py [--two-parameter]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from embedfem.analysis import continuation, optimize, shape_objective_gradient
from embedfem.config import RunConfig, build_model
from embedfem.io import write_summary, write_table_csv
from embedfem.morphing import morph, slider_area


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--two-parameter", action="store_true",
                        help="independent top/bottom deflections with the "
                             "area-conserving thickness correction")
    parser.add_argument("--out", default="out/shape_study")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model = build_model(RunConfig())

    values = np.linspace(-0.3, 0.3, 21)

    def setter(m, value):
        m.set_coords(morph(m.mesh, [value]).coords)

    table, _ = continuation(model, setter, values)
    write_table_csv(out / "response_curve.csv",
                    ["deflection", "max_temperature", "newton_iterations"],
                    [(s.parameter, s.objective, s.iterations) for s in table])
    best = min(table, key=lambda s: s.objective)
    print(f"sweep: argmin deflection {best.parameter:+.3f}, "
          f"max temperature {best.objective:.6f}")

    n_params = 2 if args.two_parameter else 1
    p0 = [0.15, -0.1][:n_params]

    def func(p):
        g, dg, _ = shape_objective_gradient(model, p)
        return g, dg

    result = optimize(func, p0, (np.full(n_params, -0.3), np.full(n_params, 0.3)),
                      tol=1e-6, max_iters=40)
    write_table_csv(out / "optimizer_iterates.csv",
                    ["iteration"] + [f"p{k}" for k in range(n_params)] + ["objective"],
                    [(i, *p, g) for i, (p, g) in enumerate(result.history)])
    print(f"optimizer: p* = {np.round(result.p, 6).tolist()}, "
          f"g* = {result.value:.6f} after {result.iterations} iterations "
          f"({result.reason})")
    if n_params == 2:
        area = slider_area(morph(model.mesh, result.p))
        print(f"slider area at the optimum: {area:.12f} "
              f"(base {slider_area(model.mesh):.12f})")
    model.reset_coords()
    write_summary(out / "summary.json", {
        "sweep_argmin": best.parameter,
        "sweep_objective": best.objective,
        "p_star": result.p,
        "objective_star": result.value,
        "optimizer_iterations": result.iterations,
        "optimizer_termination": result.reason,
    })


if __name__ == "__main__":
    main()
