"""Assembly-level invariants: single-source values, partitioning, ensembles."""

import copy
import itertools

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from embedfem import assembly, discretization, physics
from embedfem import graph as gr
from embedfem import scalars as sc
from embedfem.analysis import SGSystem, SolveFailure
from embedfem.assembly import GlobalSystem
from embedfem.mesh import Mesh, MeshError, StripGeometry, build_slider_mesh
from embedfem.model import ThermoElectricModel
from embedfem.morphing import morph
from embedfem.physics import Materials, NonPhysicalStateError
from embedfem.verification import jacobian_fd_error

DEMO_BC = [("left_conductor_end", "psi", 0.0),
           ("symmetry_plane", "psi", 0.5),
           ("left_conductor_end", "temp", 0.0)]

BASIS = sc.build_basis_data(3)


def demo_model(**kw):
    kw.setdefault("dirichlet", DEMO_BC)
    return ThermoElectricModel(build_slider_mesh(StripGeometry()), Materials(),
                               **kw)


def random_state(model, seed=0, scale=0.3):
    rng = np.random.default_rng(seed)
    return model.initial_guess() + scale * rng.normal(size=model.num_dofs)


def test_value_component_bitwise_across_all_types():
    model = demo_model(sg_basis=BASIS)
    x = random_state(model)
    x_block = np.zeros((BASIS.size, model.num_dofs))
    x_block[0] = x
    deterministic_pad = {"PadSigma0": [35.0, 0.0, 0.0, 0.0]}
    rng = np.random.default_rng(1)
    v = rng.normal(size=model.num_dofs)
    x_p = 0.01 * rng.normal(size=(model.mesh.num_nodes, 2, 2))

    reference = model.residual(x)
    outputs = {
        "Jacobian": model.assemble(gr.JACOBIAN, x).residual,
        "Tangent": model.assemble(gr.TANGENT, x,
                                  tangent_params=("Alpha", "PadSigma0")).residual,
        "Directional": model.assemble(gr.TANGENT, x, v=v).residual,
        "ShapeTangent": model.assemble(gr.SHAPE_TANGENT, x, Xp=x_p).residual,
        "SGResidual": model.assemble(gr.SG_RESIDUAL, x_block=x_block,
                                     uncertain=deterministic_pad).residual,
        "SGJacobian": model.assemble(gr.SG_JACOBIAN, x_block=x_block,
                                     uncertain=deterministic_pad).residual,
    }
    for tag, values in outputs.items():
        assert np.array_equal(values, reference), tag


#: sizes whose worksets straddle the conductor|pad (element 128) and
#: pad|slider (element 160) boundaries of the demo mesh, next to 1 and 7
PARTITION_SIZES = (1, 5, 7, 33, 100)


def _all_plain_outputs(model, x):
    rng = np.random.default_rng(3)
    v = rng.normal(size=model.num_dofs)
    x_p = 0.01 * rng.normal(size=(model.mesh.num_nodes, 2, 2))
    states = x + 0.01 * rng.normal(size=(4, model.num_dofs))
    f, jac = model.jacobian(x)
    return {
        "Residual": [model.residual(x)],
        "Jacobian": [f, jac.data, jac.indices],
        "Tangent": list(model.tangent(x, ("Alpha", "PadSigma0"))),
        "Directional": [model.directional(x, v)],
        "ShapeTangent": list(model.shape_tangent(x, x_p)),
        "EnsembleResidual": [model.residuals(states)],
    }


def _full_source_expression(self, ctx):
    u = ctx.field("temp_qp")
    alpha, beta = self.library.scalar("Alpha"), self.library.scalar("Beta")
    ctx.field("source_qp")[:] = alpha + beta * u * u


def _bits(arrays):
    return [np.ascontiguousarray(a).view(np.int64) for a in arrays]


@pytest.mark.parametrize("alpha", [0.0, 0.7])
def test_zero_beta_source_gives_the_full_expressions_outputs_bitwise(
        monkeypatch, alpha):
    # temperatures of both signs, so the full expression's zero partials
    # carry both signs
    model = demo_model(sg_basis=BASIS)
    model.library.set_value("Alpha", alpha)
    x = random_state(model)
    assert np.any(x[1::2] < 0.0)
    x_block = np.zeros((BASIS.size, model.num_dofs))
    x_block[0] = x
    x_block[1:] = 0.05 * np.random.default_rng(4).normal(
        size=(BASIS.size - 1, model.num_dofs))
    uncertain = {"PadSigma0": [35.0, 15.0, 0.0, 0.0]}

    def outputs():
        out = _all_plain_outputs(model, x)
        f, blocks = model.sg_jacobian(x_block, uncertain)
        out["SGResidual"] = [model.sg_residual(x_block, uncertain)]
        out["SGJacobian"] = [f] + [block.data for block in blocks]
        return out

    short_circuit = outputs()
    monkeypatch.setattr(physics.QuadraticSourceEvaluator, "evaluate",
                        _full_source_expression)
    full = outputs()
    for tag, arrays in full.items():
        for a, b in zip(_bits(short_circuit[tag]), _bits(arrays), strict=True):
            assert np.array_equal(a, b), tag


def test_workset_partition_invariance_is_bitwise():
    reference = demo_model()
    x = random_state(reference)
    want = _all_plain_outputs(reference, x)
    for size in PARTITION_SIZES:
        got = _all_plain_outputs(demo_model(workset_size=size), x)
        for tag, arrays in want.items():
            for a, b in zip(got[tag], arrays, strict=True):
                assert np.array_equal(a, b), (size, tag)


def test_sg_workset_partition_invariance_is_bitwise():
    uncertain = {"PadSigma0": [35.0, 15.0, 0.0, 0.0]}
    x_block = None
    results = []
    for size in (0,) + PARTITION_SIZES:
        model = demo_model(workset_size=size, sg_basis=BASIS)
        if x_block is None:
            rng = np.random.default_rng(12)
            x_block = np.zeros((BASIS.size, model.num_dofs))
            x_block[0] = random_state(model, seed=11)
            x_block[1:] = 0.05 * rng.normal(size=(BASIS.size - 1, model.num_dofs))
        f, blocks = model.sg_jacobian(x_block, uncertain)
        results.append((model.sg_residual(x_block, uncertain), f, blocks))
    r0, f0, blocks0 = results[0]
    for r, f, blocks in results[1:]:
        assert np.array_equal(r, r0)
        assert np.array_equal(f, f0)
        for block, block0 in zip(blocks, blocks0, strict=True):
            assert np.array_equal(block.data, block0.data)


def test_model_on_permuted_elements_matches_ordered_mesh():
    # elements not grouped by region: every element keeps its own material
    ordered = build_slider_mesh(StripGeometry())
    perm = np.random.default_rng(0).permutation(ordered.num_elems)
    permuted = Mesh(ordered.coords, ordered.connectivity[perm],
                    ordered.region_of[perm], ordered.node_sets)
    reference = demo_model()
    x = random_state(reference, seed=13)
    f0, jac0 = reference.jacobian(x)
    _, fp0 = reference.tangent(x, ("PadSigma0",))
    for size in (0, 33):
        model = ThermoElectricModel(permuted, Materials(),
                                    dirichlet=DEMO_BC, workset_size=size)
        f, jac = model.jacobian(x)
        _, fp = model.tangent(x, ("PadSigma0",))
        assert np.array_equal(jac.indices, jac0.indices)
        for got, want in ((model.residual(x), f0), (f, f0),
                          (jac.data, jac0.data), (fp, fp0)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_nonphysical_state_in_a_mixed_workset_names_global_elements():
    # element 130 is a pad element; with 33 elements per workset it sits in
    # the workset [99, 132), which also holds conductor elements
    model = demo_model(workset_size=33)
    x = model.initial_guess()
    x[model.conn.dof[130, :, 1]] = -5.5    # 1 + 0.2 T < 0 there only
    for assemble in (model.residual, model.jacobian,
                     lambda x: model.tangent(x, ("PadSigma0",)),
                     lambda x: model.residuals(np.stack([0.0 * x, x]))):
        with pytest.raises(NonPhysicalStateError,
                           match=r"non-positive in elements \[130\]$"):
            assemble(x)


def _bitwise(got, want):
    if hasattr(want, "indptr"):   # CSR: same pattern and the same data bits
        return (np.array_equal(got.indptr, want.indptr)
                and np.array_equal(got.indices, want.indices)
                and _bitwise(got.data, want.data))
    if isinstance(want, (tuple, list)):
        return all(_bitwise(g, w) for g, w in zip(got, want, strict=True))
    return np.array_equal(np.asarray(got).view(np.int64),
                          np.asarray(want).view(np.int64))


def test_no_state_survives_from_one_assembly_to_the_next():
    # the scatter writes global objects held by the shared assembly state:
    # neither a failed assembly nor another type may leak into the next one
    model = demo_model(workset_size=33)
    bad = model.initial_guess()
    bad[model.conn.dof[130, :, 1]] = -5.5
    for assemble in (model.residual, model.jacobian,
                     lambda x: model.tangent(x, ("PadSigma0",)),
                     lambda x: model.residuals(np.stack([0.0 * x, x]))):
        with pytest.raises(NonPhysicalStateError):
            assemble(bad)
    x = random_state(model, seed=16)
    fresh = demo_model(workset_size=33)
    assert _bitwise(model.residual(x), fresh.residual(x))
    assert _bitwise(model.jacobian(x), fresh.jacobian(x))

    rng = np.random.default_rng(17)
    v = rng.normal(size=model.num_dofs)
    x_p = 0.01 * rng.normal(size=(model.mesh.num_nodes, 2, 2))
    states = x + 0.1 * rng.normal(size=(3, model.num_dofs))
    calls = (lambda m: m.directional(x, v),
             lambda m: m.tangent(x, ("Alpha", "PadSigma0")),
             lambda m: m.shape_tangent(x, x_p),
             lambda m: m.residuals(states))
    model = demo_model(workset_size=33)
    for call in calls:
        assert _bitwise(call(model), call(demo_model(workset_size=33)))


def test_merge_adds_rows_bitwise_like_a_2d_add_at(monkeypatch):
    rng = np.random.default_rng(14)
    rows = rng.integers(0, 6, size=40)
    vals = rng.normal(size=(40, 4)) * 10.0 ** rng.integers(-8, 8, size=(40, 4))
    got, want = np.zeros((6, 4)), np.zeros((6, 4))
    assembly._add_rows(got, rows, vals)
    np.add.at(want, rows, vals)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))

    # the SG residual and Jacobian merges against the 2-D reference
    model = demo_model(sg_basis=BASIS)
    uncertain = {"PadSigma0": [35.0, 15.0, 0.0, 0.0]}
    x_block = np.zeros((BASIS.size, model.num_dofs))
    x_block[0] = random_state(model, seed=15)
    x_block[1:] = 0.05 * rng.normal(size=(BASIS.size - 1, model.num_dofs))
    f, blocks = model.sg_jacobian(x_block, uncertain)

    def add_2d(target, rows, vals):
        np.add.at(target, rows, vals.reshape(rows.size, target.shape[1]))

    monkeypatch.setattr(assembly, "_add_rows", add_2d)
    f_ref, blocks_ref = model.sg_jacobian(x_block, uncertain)
    assert np.array_equal(f, f_ref)
    for block, ref in zip(blocks, blocks_ref, strict=True):
        assert np.array_equal(block.data.view(np.int64), ref.data.view(np.int64))


@pytest.mark.parametrize("quad_order", [1, 2, 3])
@pytest.mark.parametrize("workset_size", [0, 1, 7])
def test_ensemble_residuals_are_bitwise_the_plain_residuals(quad_order,
                                                           workset_size):
    model = demo_model(quad_order=quad_order, workset_size=workset_size)
    rng = np.random.default_rng(quad_order * 10 + workset_size)
    states = model.initial_guess() + 0.3 * rng.normal(size=(5, model.num_dofs))
    got = model.residuals(states)
    assert got.shape == states.shape
    for state, row in zip(states, got, strict=True):
        assert np.array_equal(row.view(np.int64),
                              model.residual(state).view(np.int64))


def test_ensemble_type_has_its_own_entry_point():
    model = demo_model()
    with pytest.raises(ValueError, match="residuals"):
        model.assemble(gr.ENSEMBLE_RESIDUAL, x_block=np.zeros((2, model.num_dofs)))


def test_dirichlet_row_entries_are_found_once_per_model(monkeypatch):
    model = demo_model(sg_basis=BASIS)
    x = random_state(model)
    x_block = np.zeros((BASIS.size, model.num_dofs))
    x_block[0] = x
    uncertain = {"PadSigma0": [35.0, 5.0, 0.0, 0.0]}
    before = (model.jacobian(x)[1].data, model.sg_jacobian(x_block, uncertain)[1])

    def forbidden(self, dofs):
        raise AssertionError("row entries looked up during assembly")

    monkeypatch.setattr(GlobalSystem, "row_entry_indices", forbidden)
    assert np.array_equal(model.jacobian(x)[1].data, before[0])
    for block, block0 in zip(model.sg_jacobian(x_block, uncertain)[1], before[1],
                             strict=True):
        assert np.array_equal(block.data, block0.data)


def _outputs(model, x):
    f, jac = model.jacobian(x)
    return model.residual(x), f, jac.data


def _assert_matches_fresh_model(model, x):
    fresh = demo_model(workset_size=7)
    fresh.set_coords(model.state.coords.copy())
    for got, want in zip(_outputs(model, x), _outputs(fresh, x)):
        assert np.array_equal(got, want)


def test_geometry_cache_follows_every_coordinate_change():
    # the geometry evaluator, shared by every graph, memoizes per arena: with
    # the coordinates changed between any two assemblies, every type (the
    # directional and the ensemble residual included) still gives, on each
    # coordinate set, the outputs of a model that only saw that set
    model = demo_model(sg_basis=BASIS, workset_size=7)
    x = random_state(model, seed=8)
    base = model.mesh
    morphed = morph(base, np.array([0.05])).coords

    def base_coords(m):
        m.reset_coords()

    def morphed_coords(m):
        m.set_coords(morphed.copy())

    def perturbed_coords(m):   # in place: the memo compares the bits
        m.reset_coords()
        m.state.coords[40] += (1e-3, -2e-3)

    setters = (base_coords, morphed_coords, perturbed_coords)
    want = []
    for setter in setters:
        fresh = demo_model(sg_basis=BASIS, workset_size=7)
        setter(fresh)
        want.append({tag: call() for tag, call in _assemblies(fresh, x).items()})
    for other in want[1:]:
        assert not np.array_equal(other["Residual"], want[0]["Residual"])
    calls = _assemblies(model, x)
    for shift in range(len(setters)):
        for i, (tag, call) in enumerate(calls.items()):
            k = (i + shift) % len(setters)
            setters[k](model)
            assert _bitwise(call(), want[k][tag]), (setters[k].__name__, tag)


def test_solution_memo_follows_every_coordinate_change_in_one_workset(
        monkeypatch):
    # with one workset per arena the Jacobian types interpolate only values
    # while their arena's geometry is unchanged: between Jacobians at one
    # coordinate set, directional, Tangent and shape-tangent assemblies (on
    # arenas of their own) change nothing, and every output is still that
    # of a model that only saw the coordinates
    model = demo_model(sg_basis=BASIS)
    x = random_state(model, seed=19)
    base = model.mesh
    morphed = morph(base, np.array([-0.04])).coords

    def base_coords(m):
        m.reset_coords()

    def morphed_coords(m):
        m.set_coords(morphed.copy())

    def perturbed_coords(m):   # in place: the geometry memo compares bits
        m.reset_coords()
        m.state.coords[40] += (1e-3, -2e-3)

    setters = (base_coords, morphed_coords, perturbed_coords)
    tags = ("Jacobian", "Directional", "Tangent", "SGJacobian", "Jacobian",
            "ShapeTangent", "Tangent", "SGJacobian", "Directional")
    want = []
    for setter in setters:
        fresh = demo_model(sg_basis=BASIS)
        setter(fresh)
        calls = _assemblies(fresh, x)
        want.append({tag: calls[tag]() for tag in set(tags)})
    dual_interpolations = []
    interpolate = discretization.interpolate_to_qp

    def counted(nodal, table):
        dual_interpolations.append(isinstance(nodal, sc.Dual))
        return interpolate(nodal, table)

    monkeypatch.setattr(discretization, "interpolate_to_qp", counted)
    calls = _assemblies(model, x)
    last = {}
    for k in (0, 0, 1, 1, 2, 0, 2, 2):
        for tag in tags:
            setters[k](model)
            dual_interpolations.clear()
            assert _bitwise(calls[tag](), want[k][tag]), (setters[k].__name__,
                                                          tag)
            if tag in ("Jacobian", "SGJacobian"):
                # two unknowns, each with its value and two gradient parts
                hit = last.get(tag) == k
                assert sum(dual_interpolations) == (0 if hit else 6), (k, tag)
                last[tag] = k


def test_every_graph_shares_the_type_blind_evaluators():
    # each type's graph is its gathers and scatter around one set of kernels
    model = demo_model(sg_basis=BASIS)
    graphs = list(model.graphs.values())
    assert len(graphs) == 7
    for a, b in itertools.combinations(graphs, 2):
        assert a.evaluator_names() == b.evaluator_names()
        different = [n for n, (p, q) in enumerate(zip(a.schedule, b.schedule,
                                                      strict=True)) if p is not q]
        assert different == [0, 2, len(a.schedule) - 1]
    for graph in graphs:
        specialized = [isinstance(ev, assembly._Specialized) for ev in graph.schedule]
        assert specialized == [n in (0, 2, len(specialized) - 1)
                               for n in range(len(specialized))]


def test_type_without_a_specialization_row_raises_its_tag(monkeypatch):
    hessian = gr.EvaluationType("Hessian", "dual", "real")
    monkeypatch.setattr("embedfem.model.EVALUATION_TYPES",
                        gr.EVALUATION_TYPES + (hessian,))
    with pytest.raises(KeyError, match="Hessian"):
        demo_model()


class _ScatterDoubled(assembly.ScatterResidual):
    """A test scatter that owns one more global object: twice the residual
    rows, with Dirichlet rows of its own (zero)."""

    def start(self, **keys):
        super().start(**keys)
        self.doubled = np.zeros(self.conn.num_global_dofs)

    def evaluate(self, ctx):
        super().evaluate(ctx)
        self._add_at_dofs(ctx, self.doubled, lambda data: 2.0 * data)

    def finish(self, dirichlet):
        doubled, self.doubled = self.doubled, None
        doubled[dirichlet.dofs] = 0.0
        out = super().finish(dirichlet)
        out.doubled = doubled
        return out


@pytest.mark.parametrize("workset_size", [0, 7])
def test_a_new_type_needs_only_its_row(monkeypatch, workset_size):
    # a constant and one row of gathers and a scatter: the scatter allocates,
    # fills and finishes its own global object with no other edit
    doubled = gr.EvaluationType("Doubled", "real", "real")
    monkeypatch.setattr("embedfem.model.EVALUATION_TYPES",
                        gr.EVALUATION_TYPES + (doubled,))
    monkeypatch.setitem(assembly._SPECIALIZATIONS, doubled.tag,
                        (assembly.GatherCoordinates, assembly.GatherSolution,
                         _ScatterDoubled))
    model = demo_model(workset_size=workset_size)
    x = random_state(model, seed=20)
    out = model.assemble(doubled, x)
    assert _bitwise(out.residual, model.residual(x))
    off = np.ones(model.num_dofs, dtype=bool)
    off[model.dirichlet.dofs] = False
    assert _bitwise(out.doubled[off], 2.0 * out.residual[off])
    assert np.all(out.doubled[~off] == 0.0)


def test_outputs_belong_to_the_caller():
    # each scatter allocates fresh global objects and lets go of them when
    # it finishes: what one call returned stays bitwise unchanged through
    # every later assembly of every type, failing ones included, and no
    # scatter keeps an array alive once its assembly is done
    model = demo_model(sg_basis=BASIS, workset_size=33)
    x = random_state(model, seed=19)
    bad = model.initial_guess()
    bad[model.conn.dof[130, :, 1]] = -5.5
    scatters = [graph.schedule[-1] for graph in model.graphs.values()]
    kept = []

    def assert_kept():
        for tag, output, snapshot in kept:
            assert _bitwise(output, snapshot), tag

    def assert_no_scatter_holds_an_array():
        held = [(type(s).__name__, name) for s in scatters
                for name, value in vars(s).items()
                if isinstance(value, np.ndarray)]
        assert held == []

    for tag, call in _assemblies(model, x).items():
        output = call()
        assert_no_scatter_holds_an_array()
        assert_kept()
        kept.append((tag, output, copy.deepcopy(output)))
    for tag, call in _assemblies(model, bad).items():
        with pytest.raises(NonPhysicalStateError):
            call()
        assert_no_scatter_holds_an_array()
        assert_kept()
    for call in _assemblies(model, x).values():
        call()
        assert_kept()
    assert_no_scatter_holds_an_array()


def _assemblies(model, x):
    """One call per evaluation type, the directional and the ensemble
    residual included, each on an arena of its own."""
    rng = np.random.default_rng(12)
    v = rng.normal(size=model.num_dofs)
    x_p = 0.01 * rng.normal(size=(model.mesh.num_nodes, 2, 2))
    states = x + 0.01 * rng.normal(size=(3, model.num_dofs))
    x_block = x + 0.01 * rng.normal(size=(BASIS.size, model.num_dofs))
    uncertain = {"PadSigma0": [35.0, 8.0, 0.5, 0.0]}
    return {
        "Residual": lambda: model.residual(x),
        "Jacobian": lambda: model.jacobian(x),
        "Tangent": lambda: model.tangent(x, ("Alpha", "PadSigma0")),
        "Directional": lambda: model.directional(x, v),
        "ShapeTangent": lambda: model.shape_tangent(x, x_p),
        "SGResidual": lambda: model.sg_residual(x_block, uncertain),
        "SGJacobian": lambda: model.sg_jacobian(x_block, uncertain),
        "EnsembleResidual": lambda: model.residuals(states),
    }


def test_geometry_cache_skips_recomputation_at_fixed_coordinates(monkeypatch):
    # each type memoizes its own geometry per arena: its first assembly maps
    # every workset; a second one at fixed coordinates maps none, or all but
    # the short last workset when the full ones share an arena; shape
    # tangents (dual coordinates) map every workset every time
    calls = []
    original = discretization.element_geometry

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(discretization, "element_geometry", counted)
    for workset_size in (0, 7):
        model = demo_model(sg_basis=BASIS, workset_size=workset_size)
        n = len(model.worksets)
        x = random_state(model, seed=9)
        for tag, assemble in _assemblies(model, x).items():
            counts = []
            for _ in range(2):
                calls.clear()
                assemble()
                counts.append(len(calls))
            if tag == "ShapeTangent":
                again = n
            else:
                again = 0 if workset_size == 0 else n - 1
            assert counts == [n, again], (workset_size, tag)


def _poison(storage):
    if isinstance(storage, sc.Dual):
        _poison(storage.val)
        _poison(storage.dx)
    elif isinstance(storage, sc.PCE):
        storage.coeffs[...] = np.nan
    elif isinstance(storage, sc.Ensemble):
        storage.vals[...] = np.nan
    else:
        storage[...] = np.nan


@pytest.mark.parametrize("workset_size", [0, 7])
def test_every_kernel_writes_its_whole_outputs(workset_size):
    # the engine zeroes nothing: with every arena field but the geometry
    # memo's outputs set to NaN, the next assembly of each type still gives
    # a fresh model's outputs bit for bit. The seeds of a seeded arena and
    # their quadrature-point partials are arena constants too: only their
    # values are set to NaN
    model = demo_model(sg_basis=BASIS, workset_size=workset_size)
    x = random_state(model, seed=11)
    for assemble in _assemblies(model, x).values():
        assemble()
    for graph in model.graphs.values():
        geometry = {spec.name for ev in graph.schedule
                    if ev.name == "element_geometry" for spec in ev.evaluates}
        solution = {spec.name for ev in graph.schedule
                    if ev.name == "gather_solution" or ev.name.endswith("_at_qp")
                    for spec in ev.evaluates}
        for arena in graph._arenas.values():
            for name, storage in arena.fields.items():
                if arena.seeded and name in solution:
                    _poison(storage.val)
                elif name not in geometry:
                    _poison(storage)
    fresh = demo_model(sg_basis=BASIS, workset_size=workset_size)
    want = {tag: assemble() for tag, assemble in _assemblies(fresh, x).items()}
    for tag, assemble in _assemblies(model, x).items():
        assert _bitwise(assemble(), want[tag]), tag


def test_tangent_after_a_directional_is_a_fresh_models_tangent():
    # a direction and a one-parameter tangent share one width-1 arena, so
    # the tangent gather must clear the direction's partials
    model = demo_model()
    x = random_state(model, seed=13)
    model.directional(x, np.random.default_rng(13).normal(size=model.num_dofs))
    assert _bitwise(model.tangent(x, ("PadSigma0",)),
                    demo_model().tangent(x, ("PadSigma0",)))


def test_promoted_parameters_do_not_outlive_their_assembly():
    # each assembly promotes the parameters once from its own seeds: a
    # tangent's duals and a spectral assembly's chaos expansion must not
    # reach the assemblies after it
    model = demo_model(sg_basis=BASIS)
    x = random_state(model, seed=18)
    calls = _assemblies(model, x)
    for tag in ("Tangent", "SGJacobian", "Jacobian", "Residual"):
        fresh = _assemblies(demo_model(sg_basis=BASIS), x)[tag]
        assert _bitwise(calls[tag](), fresh()), tag


def test_geometry_cache_still_rejects_inverted_elements():
    model = demo_model(workset_size=7)
    x = random_state(model, seed=10)
    model.residual(x)
    flipped = model.state.coords.copy()
    flipped[:, 0] *= -1.0
    model.set_coords(flipped)
    with pytest.raises(MeshError):
        model.residual(x)
    model.reset_coords()
    _assert_matches_fresh_model(model, x)


def test_jacobian_matches_finite_differences():
    model = demo_model()
    err = jacobian_fd_error(model, random_state(model, seed=2))
    assert err <= 1e-6


def test_directional_matches_matvec():
    model = demo_model()
    x = random_state(model, seed=3)
    rng = np.random.default_rng(4)
    v = rng.normal(size=model.num_dofs)
    _, jac = model.jacobian(x)
    jv = model.directional(x, v)
    ref = jac @ v
    assert np.max(np.abs(jv - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_sg_residual_mean_equals_deterministic():
    model = demo_model(sg_basis=BASIS)
    x = random_state(model, seed=5)
    x_block = np.zeros((BASIS.size, model.num_dofs))
    x_block[0] = x
    spectral = model.sg_residual(x_block, {"PadSigma0": [35.0, 0.0, 0.0, 0.0]})
    assert np.array_equal(spectral[0], model.residual(x))
    assert np.all(spectral[1:] == 0.0)


def test_sg_jacobian_blocks_exact_along_mean_direction():
    # the nested-dual extraction measures d(F_i)/d(mean coefficient), so a
    # mean-block perturbation must match divided differences tightly
    model = demo_model(sg_basis=BASIS)
    uncertain = {"PadSigma0": [35.0, 15.0, 0.0, 0.0]}
    rng = np.random.default_rng(6)
    x_block = np.zeros((BASIS.size, model.num_dofs))
    x_block[0] = random_state(model, seed=7)
    x_block[1:] = 0.05 * rng.normal(size=(BASIS.size - 1, model.num_dofs))
    delta = np.zeros_like(x_block)
    delta[0] = rng.normal(size=model.num_dofs)
    h = 1e-7

    f_p = model.sg_residual(x_block + h * delta, uncertain)
    f_m = model.sg_residual(x_block - h * delta, uncertain)
    fd = (f_p - f_m) / (2.0 * h)
    _, blocks = model.sg_jacobian(x_block, uncertain)
    applied = np.stack([block @ delta[0] for block in blocks])
    scale = np.max(np.abs(fd))
    assert np.max(np.abs(applied - fd)) <= 1e-6 * scale


def test_sg_block_operator_consistent_to_truncation_order():
    # reconstructing general directions through the triple products is an
    # inexact (truncation-consistent) Newton operator: tight only up to the
    # spectral truncation of the quotient/product arithmetic itself
    model = demo_model(sg_basis=BASIS)
    uncertain = {"PadSigma0": [35.0, 15.0, 0.0, 0.0]}
    rng = np.random.default_rng(8)
    x_block = np.zeros((BASIS.size, model.num_dofs))
    x_block[0] = random_state(model, seed=9)
    x_block[1:] = 0.05 * rng.normal(size=(BASIS.size - 1, model.num_dofs))
    delta = rng.normal(size=x_block.shape)
    h = 1e-7

    f_p = model.sg_residual(x_block + h * delta, uncertain)
    f_m = model.sg_residual(x_block - h * delta, uncertain)
    fd = (f_p - f_m) / (2.0 * h)
    _, blocks = model.sg_jacobian(x_block, uncertain)
    scaled = BASIS.triple_scaled
    applied = np.zeros_like(fd)
    for i, block in enumerate(blocks):
        bx = np.stack([block @ delta[j] for j in range(BASIS.size)])
        applied += scaled[i].T @ bx
    scale = np.max(np.abs(fd))
    rel = np.max(np.abs(applied - fd)) / scale
    assert rel <= 5e-3
    # the mean block itself is far tighter than the reconstruction
    assert np.max(np.abs(applied[0] - fd[0])) <= 1e-5 * scale


def test_sg_system_batched_applies_equal_per_coefficient_loops():
    model = demo_model(sg_basis=BASIS)
    uncertain = {"PadSigma0": [35.0, 15.0, 0.0, 0.0]}
    rng = np.random.default_rng(10)
    x_block = np.zeros((BASIS.size, model.num_dofs))
    x_block[0] = random_state(model, seed=10)
    x_block[1:] = 0.05 * rng.normal(size=(BASIS.size - 1, model.num_dofs))
    _, blocks = model.sg_jacobian(x_block, uncertain)
    system = SGSystem(blocks, BASIS)
    operator, precond = system.operator(), system.mean_preconditioner()
    assert isinstance(operator, spla.LinearOperator)
    assert isinstance(precond, spla.LinearOperator)
    lu = spla.splu(blocks[0].tocsc())
    scaled = BASIS.triple_scaled
    for _ in range(3):
        x = rng.normal(size=(BASIS.size, model.num_dofs))
        applied = np.zeros_like(x)
        for i, block in enumerate(blocks):
            bx = np.stack([block @ x[j] for j in range(BASIS.size)])
            applied += scaled[i].T @ bx
        solved = np.stack([lu.solve(x[k]) for k in range(BASIS.size)])
        assert np.array_equal(operator.matvec(x.ravel()), applied.ravel())
        assert np.array_equal(precond.matvec(x.ravel()), solved.ravel())


def test_spectral_assembly_requires_basis():
    model = demo_model()
    with pytest.raises(ValueError, match="sg_basis"):
        model.assemble(gr.SG_RESIDUAL,
                       x_block=np.zeros((4, model.num_dofs)))


def test_warm_start_factorization_failure_is_a_solve_failure(monkeypatch):
    def singular(matrix, *args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "splu", singular)
    with pytest.raises(SolveFailure, match="potential block failed: Factor "
                                           "is exactly singular"):
        demo_model().warm_start()
