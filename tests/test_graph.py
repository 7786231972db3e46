"""Graph scheduling, pruning, per-type instantiation, and execution."""

import numpy as np
import pytest

from embedfem import graph as gr
from embedfem import scalars as sc
from embedfem.graph import Evaluator, FieldSpec


class Named(Evaluator):
    """Kernel that writes a constant into each evaluated field and logs calls."""

    def __init__(self, name, depends, evaluates, log=None, value=1.0):
        self.name = name
        self.depends = tuple(FieldSpec(d, ("elem",), "real") for d in depends)
        self.evaluates = tuple(FieldSpec(e, ("elem",), "real") for e in evaluates)
        self.log = log if log is not None else []
        self.value = value

    def evaluate(self, ctx):
        self.log.append(self.name)
        for spec in self.evaluates:
            total = self.value
            for dep in self.depends:
                total = total + ctx.field(dep.name)
            sc.copy_into(ctx.field(spec.name), total)


def build(evaluators, outputs, **kw):
    return gr.build_graph(gr.RESIDUAL, evaluators, outputs,
                          dim_sizes={"elem": 1}, **kw)


def test_chain_schedule():
    a = Named("A", [], ["fa"])
    b = Named("B", ["fa"], ["fb"])
    c = Named("C", ["fb"], ["fc"])
    g = build([a, b, c], ["fc"])
    assert g.evaluator_names() == ["A", "B", "C"]


def test_diamond_ties_broken_by_registration_order():
    a = Named("A", [], ["fa"])
    b = Named("B", ["fa"], ["fb"])
    c = Named("C", ["fa"], ["fc"])
    d = Named("D", ["fb", "fc"], ["fd"])
    g = build([a, b, c, d], ["fd"])
    assert g.evaluator_names() == ["A", "B", "C", "D"]
    g2 = build([a, c, b, d], ["fd"])
    assert g2.evaluator_names() == ["A", "C", "B", "D"]


def test_pruning_unrequested_tail():
    a = Named("A", [], ["fa"])
    b = Named("B", ["fa"], ["fb"])
    c = Named("C", ["fb"], ["fc"])
    g = build([a, b, c], ["fb"])
    assert g.evaluator_names() == ["A", "B"]


def test_empty_outputs_schedule_nothing():
    a = Named("A", [], ["fa"])
    g = build([a], [])
    assert g.evaluator_names() == []
    ctx = gr.WorksetContext(None, g.arena_for(1))
    g.execute(ctx)
    assert a.log == []


def test_cycle_reported_with_members():
    a = Named("A", ["fc"], ["fa"])
    b = Named("B", ["fa"], ["fb"])
    c = Named("C", ["fb"], ["fc"])
    with pytest.raises(gr.GraphCycleError, match="A"):
        build([a, b, c], ["fc"])


def test_unsatisfied_dependency_names_field_and_consumer():
    b = Named("B", ["missing"], ["fb"])
    with pytest.raises(gr.UnsatisfiedDependencyError, match="missing.*'B'"):
        build([b], ["fb"])


def test_evaluator_that_depends_on_and_evaluates_a_field_is_rejected():
    a = Named("A", [], ["fa"])
    b = Named("B", ["fa", "fb"], ["fb"])
    with pytest.raises(ValueError, match="'B' both depends on and evaluates 'fb'"):
        build([a, b], ["fb"])


def test_duplicate_producer_rejected():
    a1 = Named("A1", [], ["fa"])
    a2 = Named("A2", [], ["fa"])
    with pytest.raises(gr.DuplicateProducerError, match="fa"):
        build([a1, a2], ["fa"])


def test_inconsistent_declarations_rejected():
    a = Named("A", [], ["fa"])
    b = Named("B", ["fa"], ["fb"])
    b.depends = (FieldSpec("fa", ("elem", "node"), "real"),)
    with pytest.raises(ValueError, match="fa"):
        build([a, b], ["fb"])


def test_execution_runs_each_kernel_once_in_order():
    log = []
    a = Named("A", [], ["fa"], log)
    b = Named("B", ["fa"], ["fb"], log)
    g = build([a, b], ["fb"])
    ctx = gr.WorksetContext(None, g.arena_for(3))
    g.execute(ctx)
    assert log == ["A", "B"]
    assert np.all(ctx.field("fb") == 2.0)


def test_reexecution_reuses_arena_without_reallocation():
    a = Named("A", [], ["fa"])
    b = Named("B", ["fa"], ["fb"])
    g = build([a, b], ["fb"])
    arena = g.arena_for(4)
    allocs = arena.allocations
    g.execute(gr.WorksetContext(None, arena))
    g.execute(gr.WorksetContext(None, g.arena_for(4)))
    assert g.arena_for(4) is arena
    assert arena.allocations == allocs
    # each kernel writes its whole fields; the engine adds nothing across
    # executions
    assert np.all(arena.get("fb") == 2.0)


def test_kernel_errors_carry_evaluator_name():
    class Failing(Named):
        def evaluate(self, ctx):
            raise ValueError("negative determinant")

    g = build([Failing("Geom", [], ["fa"])], ["fa"])
    with pytest.raises(ValueError, match="'Geom'.*negative determinant"):
        g.execute(gr.WorksetContext(None, g.arena_for(1)))


def test_instantiate_for_all_types_structural_equality():
    a = Named("A", [], ["fa"])
    b = Named("B", ["fa"], ["fb"])
    seen = []

    def evaluators(ev_type):
        seen.append(ev_type)
        return [a, b]

    graphs = gr.instantiate_for_all_types(
        evaluators, [gr.RESIDUAL, gr.JACOBIAN], ["fb"], dim_sizes={"elem": 1})
    assert seen == [gr.RESIDUAL, gr.JACOBIAN]
    assert list(graphs) == seen
    assert [g.ev_type for g in graphs.values()] == seen
    names = {t: g.evaluator_names() for t, g in graphs.items()}
    assert names[gr.RESIDUAL] == names[gr.JACOBIAN] == ["A", "B"]
    assert graphs[gr.RESIDUAL].edges() == graphs[gr.JACOBIAN].edges()
    # shared evaluators, each graph with arenas of its own
    assert graphs[gr.RESIDUAL].schedule == graphs[gr.JACOBIAN].schedule == [a, b]
    assert graphs[gr.RESIDUAL].arena_for(1) is not graphs[gr.JACOBIAN].arena_for(1)


def test_evaluation_type_scalar_kind_table():
    table = {t.tag: (t.solution_kind, t.mesh_kind) for t in gr.EVALUATION_TYPES}
    assert table == {
        "Residual": ("real", "real"),
        "Jacobian": ("dual", "real"),
        "Tangent": ("dual", "real"),
        "ShapeTangent": ("dual", "dual"),
        "SGResidual": ("pce", "real"),
        "SGJacobian": ("nested", "real"),
    }


def test_dump_formats():
    a = Named("A", [], ["fa"])
    b = Named("B", ["fa"], ["fb"])
    g = build([a, b], ["fb"])
    text = g.dump_text()
    assert "A: [-] -> [fa]" in text
    dot = g.dump_dot()
    assert dot.startswith("digraph")
    assert '"A" -> "B" [label="fa"]' in dot
