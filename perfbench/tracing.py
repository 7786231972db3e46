"""Span tracing of embedfem's public calls, installed from outside the library.

``install`` wraps the calls the benchmark measures, module by module, so that
each call records a span: name, start, end, parent span and the id of the
operation it belongs to. Spans stay in memory (a few flat arrays) and are
written out once the run ends. ``layer_metrics`` turns them into per-layer
self times and counts, where a span's self time is its duration minus the part
of that interval its child spans cover.

Nothing here changes what the library computes; ``uninstall`` puts every
original function back.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

SETUP_OP = -1     # op id of spans recorded while the models are set up

EVALUATION_TAGS = ("Residual", "Jacobian", "Tangent", "ShapeTangent",
                   "SGResidual", "SGJacobian")
EVALUATORS = (
    "assembly.gather_coordinates", "assembly.gather_solution",
    "assembly.scatter_residual", "discretization.element_geometry",
    "discretization.solution_at_qp", "physics.conductivity",
    "physics.joule_heating", "physics.source_term",
    "physics.potential_residual", "physics.heat_residual",
)
FAILURE_CLASSES = ("SolveFailure", "NonPhysicalStateError", "ConfigError",
                   "RuntimeError", "other")

# Spans whose nearest enclosing one decides what an assembly or a linear
# solve is counted as (a Newton iteration, an FD column, ...).
_OWNERS = frozenset({"op", "analysis.newton_solve", "analysis.sg_newton_solve",
                      "model.warm_start", "analysis.reduced_gradient",
                      "verification.fd_jacobian"})


_ASSEMBLY_MOVES = {
    "Residual": "dofs_per_s, small_op_p50_s on fd-verify and design",
    "Jacobian": "dofs_per_s, small_op_p50_s on fd-verify and design",
    "Tangent": "nothing: no workload assembles parameter tangents",
    "ShapeTangent": "dofs_per_s, small_op_p50_s on design",
    "SGResidual": "dofs_per_s, small_op_p50_s on spectral only",
    "SGJacobian": "dofs_per_s, small_op_p50_s on spectral only",
}
_DISPATCH = "dofs_per_s on fd-verify most, spectral least"
_SOLVE = ("dofs_per_s, op_tail_s, crash_ratio on design and the "
          "32x32 half of spectral; not fd-verify")
_NEWTON = "small_op_p50_s on design and spectral"
_SETUP = "setup_s on all workloads"

# (name, unit, better, what it should move and where). Counts are exact;
# times are self times, except model.assemble.<T>.s, which is the whole
# assembly of type T. Per-op values are averages over the measured ops;
# set-up values are those of the run's own set-up of all its meshes.
LAYER_METRICS = (
    [(f"model.assemble.{t}.calls", "count/op", "lower", m)
     for t, m in _ASSEMBLY_MOVES.items()]
    + [(f"model.assemble.{t}.s", "s/op", "lower", m)
       for t, m in _ASSEMBLY_MOVES.items()]
    + [("model.assemble.self_s", "s/op", "lower", _DISPATCH),
       ("graph.execute.calls", "count/op", "lower", _DISPATCH),
       ("graph.execute.self_s", "s/op", "lower", _DISPATCH)]
    + [(f"{name}.s", "s/op", "lower",
        "dofs_per_s, small_op_p50_s on fd-verify and design; the geometry "
        "cache shows on fd-verify, not spectral")
       for name in EVALUATORS]
    + [("scalars.pce_mul.calls", "count/op", "lower", "spectral only"),
       ("scalars.pce_mul.s", "s/op", "lower", "spectral only"),
       ("analysis.linear_solve.calls", "count/op", "lower", _SOLVE),
       ("analysis.linear_solve.s", "s/op", "lower", _SOLVE)]
    + [(f"failures.{c}", "count/op", "lower", _SOLVE) for c in FAILURE_CLASSES]
    + [("analysis.newton_iters", "count/op", "lower", _NEWTON),
       ("analysis.residual_evals", "count/op", "lower", _NEWTON),
       ("analysis.line_search_backtracks", "count/op", "lower", _NEWTON),
       ("analysis.sg_newton_iters", "count/op", "lower", "spectral only"),
       ("analysis.sg_gmres_iters", "count/op", "lower", "spectral only"),
       ("analysis.sg_operator.s", "s/op", "lower", "spectral only"),
       ("analysis.sg_precond.s", "s/op", "lower", "spectral only"),
       ("analysis.reduced_gradient.s", "s/op", "lower", "design only"),
       ("morphing.morph.s", "s/op", "lower", "design only"),
       ("morphing.mesh_sensitivity.s", "s/op", "lower", "design only"),
       ("verification.fd_residual_evals", "count/op", "lower",
        "dofs_per_s, peak_rss_mb on fd-verify only"),
       ("verification.fd_jacobian.s", "s/op", "lower",
        "dofs_per_s, peak_rss_mb on fd-verify only"),
       ("fields.arena_builds", "count", "lower", _SETUP),
       ("fields.arena_build_s", "s", "lower", _SETUP),
       ("mesh.build_s", "s", "lower", _SETUP),
       ("assembly.global_system_s", "s", "lower", _SETUP),
       ("graph.instantiate_s", "s", "lower", _SETUP),
       ("scalars.basis_tables_s", "s", "lower", _SETUP),
       ("op.untraced_s", "s/op", "lower",
        "op time that no traced layer covers"),
       ("trace.dofs_per_s", "1/s", "higher",
        "nothing; against the untraced dofs_per_s it gives the tracing "
        "overhead")]
)

_SETUP_METRICS = {"mesh.build": "mesh.build_s",
                  "assembly.global_system": "assembly.global_system_s",
                  "graph.instantiate": "graph.instantiate_s",
                  "scalars.basis_tables": "scalars.basis_tables_s"}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.ok = array("b")
        self.op_id = SETUP_OP
        self._open = []

    def add(self, name, start, end):
        """Record a finished span that has no children."""
        self.names.append(name)
        self.parent.append(self._open[-1] if self._open else -1)
        self.op.append(self.op_id)
        self.ok.append(1)
        self.start.append(start)
        self.end.append(end)

    def wrap(self, name, fn):
        """``fn`` recording one span per call. Kept to local lookups: the
        evaluator spans run tens of thousands of times per op."""
        names, start, end, parent, op, ok = (self.names, self.start, self.end,
                                             self.parent, self.op, self.ok)
        stack, clock = self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            ok.append(1)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[index] = clock()
                ok[index] = 0
                stack.pop()
                raise
            end[index] = clock()
            stack.pop()
            return result
        return traced

    # -- analysis ------------------------------------------------------------

    def self_times(self):
        """Duration minus the union of child intervals, for every span.

        Children of one parent are recorded in start order (one thread), so a
        running "covered up to" mark per parent gives the union.
        """
        n = len(self.names)
        if self._open:
            raise RuntimeError("self times asked for while spans are open")
        start, end, parent = self.start, self.end, self.parent
        covered = [0.0] * n
        mark = list(start)
        for i in range(n):
            p = parent[i]
            if p < 0:
                continue
            lo = max(start[i], mark[p])
            hi = min(end[i], end[p])
            if hi > lo:
                covered[p] += hi - lo
                mark[p] = hi
        return [end[i] - start[i] - covered[i] for i in range(n)]

    def owner(self, index):
        """Name of the nearest enclosing span in _OWNERS, or None."""
        p = self.parent[index]
        while p >= 0 and self.names[p] not in _OWNERS:
            p = self.parent[p]
        return self.names[p] if p >= 0 else None

    def write(self, path):
        """Write every span as gzip-compressed JSON."""
        ids = {}
        rows = []
        for i, name in enumerate(self.names):
            rows.append([ids.setdefault(name, len(ids)), self.start[i],
                         self.end[i], self.parent[i], self.op[i], self.ok[i]])
        doc = {"names": list(ids), "columns": ["name", "start", "end",
                                               "parent", "op", "ok"],
               "spans": rows}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)


def reconcile(tracer, op_walls, self_times=None):
    """Ops whose summed span self times exceed their measured wall time.

    ``op_walls`` maps op id to the wall time the runner measured around the
    op's root span; the self times of all spans of one op partition that root
    span, so their sum can exceed the wall time only if the spans overlap.
    """
    self_times = self_times if self_times is not None else tracer.self_times()
    sums = {}
    for i, op in enumerate(tracer.op):
        if op >= 0:
            sums[op] = sums.get(op, 0.0) + self_times[i]
    return sorted(op for op, total in sums.items()
                  if total > op_walls[op] * (1.0 + 1e-12) + 1e-9)


def layer_metrics(tracer, n_ops, failures, traced_dofs_per_s,
                  self_times=None):
    """Every LAYER_METRICS value from the recorded spans.

    Per-op values are totals over the measured ops divided by ``n_ops``;
    set-up values are those of the one traced set-up. ``failures`` maps
    FAILURE_CLASSES entries to failed-op counts.
    """
    self_times = self_times if self_times is not None else tracer.self_times()
    calls, self_s, incl = {}, {}, {}
    setup_calls, setup_s = {}, {}
    ok_solves = newton_res = newton_jac = sg_jac = fd_res = 0
    names, op = tracer.names, tracer.op
    for i, name in enumerate(names):
        if op[i] == SETUP_OP:
            setup_calls[name] = setup_calls.get(name, 0) + 1
            setup_s[name] = setup_s.get(name, 0.0) + self_times[i]
            continue
        if op[i] < 0:
            continue
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + self_times[i]
        if name.startswith("model.assemble."):
            incl[name] = incl.get(name, 0.0) + tracer.end[i] - tracer.start[i]
            owner = tracer.owner(i)
            if name == "model.assemble.Residual":
                if owner == "analysis.newton_solve":
                    newton_res += 1
                elif owner == "verification.fd_jacobian":
                    fd_res += 1
            elif name == "model.assemble.Jacobian":
                newton_jac += owner == "analysis.newton_solve"
            elif name == "model.assemble.SGJacobian":
                sg_jac += owner == "analysis.sg_newton_solve"
        elif name == "analysis.linear_solve" and tracer.ok[i]:
            ok_solves += tracer.owner(i) == "analysis.newton_solve"

    per_op = 1.0 / max(n_ops, 1)
    out = {}
    for tag in EVALUATION_TAGS:
        key = f"model.assemble.{tag}"
        out[f"{key}.calls"] = calls.get(key, 0) * per_op
        out[f"{key}.s"] = incl.get(key, 0.0) * per_op
    out["model.assemble.self_s"] = sum(
        v for k, v in self_s.items() if k.startswith("model.assemble.")) * per_op
    out["graph.execute.calls"] = calls.get("graph.execute", 0) * per_op
    out["graph.execute.self_s"] = self_s.get("graph.execute", 0.0) * per_op
    for name in EVALUATORS:
        out[f"{name}.s"] = self_s.get(name, 0.0) * per_op
    for name in ("scalars.pce_mul", "analysis.linear_solve"):
        out[f"{name}.calls"] = calls.get(name, 0) * per_op
        out[f"{name}.s"] = self_s.get(name, 0.0) * per_op
    for cls in FAILURE_CLASSES:
        out[f"failures.{cls}"] = failures.get(cls, 0) * per_op
    newtons = calls.get("analysis.newton_solve", 0)
    out["analysis.newton_iters"] = newton_jac * per_op
    out["analysis.residual_evals"] = newton_res * per_op
    out["analysis.line_search_backtracks"] = (
        newton_res - newtons - ok_solves) * per_op
    out["analysis.sg_newton_iters"] = sg_jac * per_op
    out["analysis.sg_gmres_iters"] = calls.get("analysis.sg_operator", 0) * per_op
    for name in ("analysis.sg_operator", "analysis.sg_precond",
                 "analysis.reduced_gradient", "morphing.morph",
                 "morphing.mesh_sensitivity", "verification.fd_jacobian"):
        out[f"{name}.s"] = self_s.get(name, 0.0) * per_op
    out["verification.fd_residual_evals"] = fd_res * per_op
    out["fields.arena_builds"] = setup_calls.get("fields.arena_build", 0)
    out["fields.arena_build_s"] = setup_s.get("fields.arena_build", 0.0)
    for span, metric in _SETUP_METRICS.items():
        out[metric] = setup_s.get(span, 0.0)
    out["op.untraced_s"] = self_s.get("op", 0.0) * per_op
    out["trace.dofs_per_s"] = traced_dofs_per_s
    return out


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

def _evaluator_span(module_short, cls):
    if cls.__name__ == "SolutionAtQPEvaluator":   # instance names psi_/temp_at_qp
        return f"{module_short}.solution_at_qp"
    return f"{module_short}.{cls.name}"


class Installation:
    """The patches ``install`` made, so that ``uninstall`` can undo them."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def replace_function(self, original, wrapper):
        """Swap a module function everywhere embedfem imported it by name."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "embedfem" or mod is None:
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, name, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def install(tracer):
    """Wrap embedfem's measured calls; returns the Installation to undo."""
    import scipy.sparse.linalg as spla

    import embedfem.config  # noqa: F401  (its by-name imports are patched too)
    from embedfem import (analysis, assembly, discretization, graph, mesh,
                          model, morphing, physics, scalars, verification)

    inst = Installation()
    wrap = tracer.wrap

    def replace(name, fn):
        inst.replace_function(fn, wrap(name, fn))

    # set-up layers
    replace("mesh.build", mesh.build_slider_mesh)
    replace("graph.instantiate", graph.instantiate_for_all_types)
    replace("scalars.basis_tables", scalars.build_basis_data)
    inst.set(assembly.GlobalSystem, "__init__",
             wrap("assembly.global_system", assembly.GlobalSystem.__init__))

    arena_for = graph.EvaluatorGraph.arena_for

    def traced_arena_for(self, *args, **kwargs):
        before = len(self._arenas)
        t0 = tracer.clock()
        arena = arena_for(self, *args, **kwargs)
        t1 = tracer.clock()
        if len(self._arenas) != before:
            tracer.add("fields.arena_build", t0, t1)
        return arena

    inst.set(graph.EvaluatorGraph, "arena_for", traced_arena_for)

    # assembly, graph execution and the evaluators
    assemble = model.ThermoElectricModel.assemble
    assemble_by_tag = {tag: wrap(f"model.assemble.{tag}", assemble)
                       for tag in EVALUATION_TAGS}

    def traced_assemble(self, ev_type, *args, **kwargs):
        return assemble_by_tag[ev_type.tag](self, ev_type, *args, **kwargs)

    inst.set(model.ThermoElectricModel, "assemble", traced_assemble)
    inst.set(model.ThermoElectricModel, "warm_start",
             wrap("model.warm_start", model.ThermoElectricModel.warm_start))
    inst.set(graph.EvaluatorGraph, "execute",
             wrap("graph.execute", graph.EvaluatorGraph.execute))
    for module in (assembly, discretization, physics):
        short = module.__name__.rsplit(".", 1)[1]
        for cls in list(vars(module).values()):
            if (isinstance(cls, type) and issubclass(cls, graph.Evaluator)
                    and cls.__module__ == module.__name__
                    and "evaluate" in cls.__dict__):
                inst.set(cls, "evaluate",
                         wrap(_evaluator_span(short, cls), cls.evaluate))
    pce_mul = wrap("scalars.pce_mul", scalars.PCE.__mul__)
    inst.set(scalars.PCE, "__mul__", pce_mul)
    inst.set(scalars.PCE, "__rmul__", pce_mul)

    # solvers and the calls that run them
    replace("analysis.linear_solve", analysis._linear_solve)
    replace("analysis.newton_solve", analysis.newton_solve)
    replace("analysis.sg_newton_solve", analysis.sg_newton_solve)
    replace("analysis.reduced_gradient", analysis.reduced_gradient)

    # GMRES applies the operator once per inner iteration; the preconditioner's
    # span also covers its construction, which factors the mean block
    def traced_matvec(name, factory):
        def build(self):
            op = factory(self)
            return spla.LinearOperator(op.shape, dtype=op.dtype,
                                       matvec=wrap(name, op.matvec))
        return build

    sg = analysis.SGSystem
    inst.set(sg, "operator",
             traced_matvec("analysis.sg_operator", sg.operator))
    inst.set(sg, "mean_preconditioner", wrap(
        "analysis.sg_precond",
        traced_matvec("analysis.sg_precond", sg.mean_preconditioner)))
    replace("morphing.morph", morphing.morph)
    replace("morphing.mesh_sensitivity", morphing.mesh_sensitivity)
    replace("verification.fd_jacobian", verification.fd_jacobian)
    return inst
