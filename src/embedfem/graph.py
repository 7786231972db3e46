"""Evaluator DAG engine: kernels declare fields, the engine schedules them.

Each evaluator names the fields it depends on and the fields it evaluates;
``build_graph`` topologically orders the evaluators transitively required for
the requested outputs. One graph is built per evaluation type, and the
type-blind kernels are the same objects in every graph: they run over plain,
dual, spectral or ensemble storage depending only on the arena the type's
graph allocates, and only the gathers and the scatter differ per type.

``EVALUATION_TYPES`` are the six analysis outputs. ``ENSEMBLE_RESIDUAL``
evaluates S plain residuals at once (the finite-difference oracle's perturbed
states). It needs only a scalar kind, one storage kind and its own gather and
scatter specializations, and it sits outside the six: it adds no new output.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import FieldArena

__all__ = [
    "EvaluationType",
    "EVALUATION_TYPES",
    "RESIDUAL", "JACOBIAN", "TANGENT", "SHAPE_TANGENT", "SG_RESIDUAL", "SG_JACOBIAN",
    "ENSEMBLE_RESIDUAL",
    "Evaluator",
    "EvaluatorGraph",
    "FieldSpec",
    "GraphCycleError",
    "UnsatisfiedDependencyError",
    "DuplicateProducerError",
    "WorksetContext",
    "build_graph",
    "instantiate_for_all_types",
]


class GraphCycleError(ValueError):
    """The declared dependencies contain a cycle."""


class UnsatisfiedDependencyError(KeyError):
    """A dependent field has no producer."""


class DuplicateProducerError(ValueError):
    """Two evaluators claim to evaluate the same field."""


@dataclass(frozen=True)
class EvaluationType:
    """A named binding of the two generic scalar kinds.

    ``solution_kind`` is the concrete kind of solution-dependent fields,
    ``mesh_kind`` that of coordinate-dependent fields. The set of types is a
    closed enumeration. A new type needs a storage kind in
    ``fields.make_storage``, a constant here and one row of
    ``assembly._SPECIALIZATIONS``, whose gather gives the arena keys and
    whose scatter names the global objects it adds into; the assembly loop
    does not test which type it runs.
    """

    tag: str
    solution_kind: str
    mesh_kind: str

    def concrete_kind(self, relative_kind):
        if relative_kind == "solution":
            return self.solution_kind
        if relative_kind == "mesh":
            return self.mesh_kind
        if relative_kind == "real":
            return "real"
        raise ValueError(f"unknown field kind {relative_kind!r}")

    def __repr__(self):
        return f"EvaluationType({self.tag})"


RESIDUAL = EvaluationType("Residual", "real", "real")
JACOBIAN = EvaluationType("Jacobian", "dual", "real")
TANGENT = EvaluationType("Tangent", "dual", "real")
SHAPE_TANGENT = EvaluationType("ShapeTangent", "dual", "dual")
SG_RESIDUAL = EvaluationType("SGResidual", "pce", "real")
SG_JACOBIAN = EvaluationType("SGJacobian", "nested", "real")

EVALUATION_TYPES = (RESIDUAL, JACOBIAN, TANGENT, SHAPE_TANGENT,
                    SG_RESIDUAL, SG_JACOBIAN)

#: S plain residuals in one assembly
ENSEMBLE_RESIDUAL = EvaluationType("EnsembleResidual", "ensemble", "real")


@dataclass(frozen=True)
class FieldSpec:
    """Declared field: name, symbolic layout, and relative scalar kind."""

    name: str
    dims: tuple
    kind: str = "solution"


class Evaluator:
    """One evaluation kernel with declared dependent and evaluated fields.

    Subclasses set ``name``, ``depends`` and ``evaluates`` (FieldSpec lists)
    and implement ``evaluate(ctx)``. No field may appear in both lists. Each
    call writes every entry of its evaluated fields, which the engine never
    zeroes or copies (a scatter's tag field only orders the graph).
    """

    name = "evaluator"
    depends = ()
    evaluates = ()

    def evaluate(self, ctx):
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r}>"


class WorksetContext:
    """Per-workset execution state handed to kernels.

    ``workset`` carries the element range, which may span material regions
    (kernels look up per-element material data by it); ``arena`` owns the field
    storage, which ``field(name)`` returns. The scatter adds the workset's rows
    straight into the global objects of the assembly; worksets run in element
    order, which keeps the sums independent of the partition.
    """

    def __init__(self, workset, arena):
        self.workset = workset
        self.arena = arena

    def field(self, name):
        return self.arena.get(name)


class EvaluatorGraph:
    """Scheduled evaluators for one evaluation type plus arena bookkeeping."""

    def __init__(self, ev_type, schedule, dim_sizes):
        self.ev_type = ev_type
        self.schedule = schedule
        self.dim_sizes = dict(dim_sizes)
        self._arenas = {}

    # -- structure -----------------------------------------------------------

    def evaluator_names(self):
        return [ev.name for ev in self.schedule]

    def edges(self):
        """(producer evaluator, consumer evaluator, field) triples."""
        by_field = {}
        for ev in self.schedule:
            for spec in ev.evaluates:
                by_field[spec.name] = ev.name
        out = []
        for ev in self.schedule:
            for spec in ev.depends:
                src = by_field.get(spec.name)
                if src is not None and src != ev.name:
                    out.append((src, ev.name, spec.name))
        return sorted(out)

    def dump_text(self):
        lines = []
        for ev in self.schedule:
            deps = ", ".join(s.name for s in ev.depends) or "-"
            outs = ", ".join(s.name for s in ev.evaluates)
            lines.append(f"{ev.name}: [{deps}] -> [{outs}]")
        return "\n".join(lines) + "\n"

    def dump_dot(self):
        lines = [f'digraph "{self.ev_type.tag}" {{', "  rankdir=BT;"]
        for ev in self.schedule:
            lines.append(f'  "{ev.name}" [shape=box];')
        for src, dst, fname in self.edges():
            lines.append(f'  "{src}" -> "{dst}" [label="{fname}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    # -- execution -----------------------------------------------------------

    def arena_for(self, n_elem, deriv_width=None, basis=None, samples=None):
        key = (n_elem, deriv_width, None if basis is None else id(basis), samples)
        arena = self._arenas.get(key)
        if arena is None:
            dim_sizes = dict(self.dim_sizes)
            dim_sizes["elem"] = n_elem
            arena = FieldArena(dim_sizes, deriv_width=deriv_width, basis=basis,
                               samples=samples)
            for ev in self.schedule:
                for spec in list(ev.depends) + list(ev.evaluates):
                    arena.ensure(spec.name, spec.dims,
                                 self.ev_type.concrete_kind(spec.kind))
            self._arenas[key] = arena
        return arena

    def execute(self, ctx):
        """Run every scheduled kernel once, in dependency order."""
        for ev in self.schedule:
            try:
                ev.evaluate(ctx)
            except Exception as err:
                raise type(err)(f"[evaluator {ev.name!r}] {err}") from err


def build_graph(ev_type, evaluators, required_outputs, dim_sizes=None):
    """Schedule exactly the evaluators needed for the requested outputs.

    Every needed field must have a producer among ``evaluators``. The order
    is a deterministic topological sort with ties broken by registration
    order. Errors report cycles (with the evaluators involved), unsatisfied
    dependencies (field and consumer), duplicate producers, and an evaluator
    that both depends on and evaluates one field.
    """
    producers = {}
    for ev in evaluators:
        if not ev.evaluates:
            raise ValueError(f"evaluator {ev.name!r} evaluates no fields")
        for spec in ev.depends:
            if spec.name in {s.name for s in ev.evaluates}:
                raise ValueError(
                    f"evaluator {ev.name!r} both depends on and evaluates "
                    f"{spec.name!r}")
        for spec in ev.evaluates:
            if spec.name in producers:
                raise DuplicateProducerError(
                    f"field {spec.name!r} produced by both "
                    f"{producers[spec.name].name!r} and {ev.name!r}")
            producers[spec.name] = ev

    # layout/kind consistency between producer and consumers
    declared = {}
    for ev in evaluators:
        for spec in list(ev.evaluates) + list(ev.depends):
            seen = declared.get(spec.name)
            if seen is None:
                declared[spec.name] = (spec, ev.name)
            elif seen[0].dims != spec.dims or seen[0].kind != spec.kind:
                raise ValueError(
                    f"field {spec.name!r} declared as {seen[0]} by "
                    f"{seen[1]!r} but as {spec} by {ev.name!r}")

    # prune to the transitive producer closure of the requested outputs
    stack = []
    for name in required_outputs:
        ev = producers.get(name)
        if ev is None:
            raise UnsatisfiedDependencyError(
                f"requested output {name!r} has no producer")
        stack.append(ev)
    needed = set()
    while stack:
        ev = stack.pop()
        if id(ev) in needed:
            continue
        needed.add(id(ev))
        for spec in ev.depends:
            dep = producers.get(spec.name)
            if dep is None:
                raise UnsatisfiedDependencyError(
                    f"field {spec.name!r} needed by {ev.name!r} has no "
                    f"producer")
            stack.append(dep)
    pending = [ev for ev in evaluators if id(ev) in needed]

    # each step schedules the first pending evaluator, in registration order,
    # whose producers are all scheduled
    schedule, produced = [], set()
    while pending:
        ev = next((ev for ev in pending
                   if all(spec.name in produced for spec in ev.depends)), None)
        if ev is None:
            stuck = sorted(e.name for e in pending)
            raise GraphCycleError(f"dependency cycle among evaluators: {stuck}")
        pending.remove(ev)
        schedule.append(ev)
        produced.update(spec.name for spec in ev.evaluates)

    return EvaluatorGraph(ev_type, schedule, dim_sizes or {})


def instantiate_for_all_types(evaluators_for, types, required_outputs,
                              dim_sizes=None):
    """One graph per evaluation type; ``evaluators_for(ev_type)`` lists that
    type's evaluators in registration order, and evaluators that do not
    depend on the type may appear in every list."""
    return {ev_type: build_graph(ev_type, evaluators_for(ev_type),
                                 required_outputs, dim_sizes)
            for ev_type in types}
