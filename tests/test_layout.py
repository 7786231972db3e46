"""Element-fastest field storage: every output is bitwise what C-ordered
storage gives, the layout reaches the kernels' temporaries, and reductions
do not depend on it; the node and quadrature contractions, on element-fastest
basis tables and summed in place, are bitwise their out-of-place form on
(q,) basis rows."""

import numpy as np
import pytest

from embedfem import fields
from embedfem import scalars as sc
from embedfem.analysis import (NewtonConfig, shape_objective_gradient,
                               sg_newton_solve)
from embedfem.assembly import build_worksets
from embedfem.discretization import (bilinear_basis, element_tables,
                                     integrate, interpolate_to_qp,
                                     mapping_jacobian)
from embedfem.fields import make_storage
from embedfem.mesh import GeometryParams, Resolution, build_slider_mesh
from test_model import BASIS, _bitwise, demo_model, random_state

EXTENTS = (64, 4, 3)   # (elem, node, qp)
WIDTH = 5
SAMPLES = 6


def _c_zeros(extents, trailing=(), leading=()):
    return np.zeros(leading + extents + trailing)


def _every_output(model):
    x = random_state(model, seed=4)
    rng = np.random.default_rng(5)
    x_p = 0.01 * rng.normal(size=(model.mesh.num_nodes, 2, 2))
    x_block = x + 0.01 * rng.normal(size=(BASIS.size, model.num_dofs))
    uncertain = {"PadSigma0": [35.0, 8.0, 0.5, 0.0]}
    newton = NewtonConfig()
    g, grad, solved = shape_objective_gradient(model, [0.1], newton)
    sg_f, sg_blocks = model.sg_jacobian(x_block, uncertain)
    return {
        "Residual": model.residual(x),
        "Jacobian": model.jacobian(x),
        "Tangent": model.tangent(x, ("Alpha", "PadSigma0")),
        "ShapeTangent": model.shape_tangent(x, x_p),
        "SGResidual": model.sg_residual(x_block, uncertain),
        "SGJacobian": (sg_f, *sg_blocks),
        "residuals": model.residuals(x + 0.01 * rng.normal(size=(3, x.size))),
        "shape_objective_gradient": (np.array([g]), grad, solved.x),
        "sg_newton_solve": sg_newton_solve(model, uncertain,
                                           newton).coefficients,
    }


def test_outputs_are_bitwise_those_of_c_ordered_storage(monkeypatch):
    shipped_model = demo_model(sg_basis=BASIS)
    shipped = _every_output(shipped_model)
    with monkeypatch.context() as patch:
        patch.setattr(fields, "_zeros", _c_zeros)
        c_model = demo_model(sg_basis=BASIS)
        c_ordered = _every_output(c_model)
    for model, c_contiguous in ((c_model, True), (shipped_model, False)):
        for graph in model.graphs.values():
            for arena in graph._arenas.values():
                for data, elem_axis in _components(arena.get("temp_qp")):
                    assert data.flags.c_contiguous == c_contiguous
                    assert (data.strides[elem_axis] == data.itemsize) \
                        != c_contiguous
    for tag, want in c_ordered.items():
        assert _bitwise(shipped[tag], want), tag


def _components(storage):
    """(array, index of its element axis) for every buffer of a storage."""
    if isinstance(storage, sc.Dual):
        return _components(storage.val) + _components(storage.dx)
    if isinstance(storage, sc.PCE):
        return [(storage.coeffs, 0)]
    if isinstance(storage, sc.Ensemble):
        return [(storage.vals, 1)]
    return [(storage, 0)]


STORAGE_KINDS = {
    "real": {},
    "dual": {"deriv_width": WIDTH},
    "pce": {"basis": BASIS},
    "nested": {"deriv_width": WIDTH, "basis": BASIS},
    "ensemble": {"samples": SAMPLES},
}


@pytest.mark.parametrize("kind", sorted(STORAGE_KINDS))
def test_storage_is_element_fastest_with_the_component_axis_slowest(kind):
    storage = make_storage(kind, EXTENTS, **STORAGE_KINDS[kind])
    for data, elem_axis in _components(storage):
        strides = data.strides
        assert data.shape[elem_axis] == EXTENTS[0]
        assert strides[elem_axis] == data.itemsize == min(strides)
        # the derivative, chaos or sample axis, else the last value axis
        component_axis = 0 if kind == "ensemble" else data.ndim - 1
        assert strides[component_axis] == max(strides)


@pytest.mark.parametrize("shape_a, shape_b", [
    ((64, 4), (64, 4)),
    ((64, 4, 1), (64, 4, WIDTH)),   # value times partials
    ((64, 4, WIDTH), (64, 4, 1)),
])
def test_galerkin_product_keeps_element_fastest_operands_layout(shape_a,
                                                                  shape_b):
    rng = np.random.default_rng(2)
    a = make_storage("pce", shape_a, basis=BASIS)
    b = make_storage("pce", shape_b, basis=BASIS)
    a.coeffs[...] = rng.normal(size=a.coeffs.shape)
    b.coeffs[...] = rng.normal(size=b.coeffs.shape)
    got = (a * b).coeffs
    assert got.strides[0] == got.itemsize
    assert got.strides[-1] == max(got.strides)
    want = (sc.PCE(np.ascontiguousarray(a.coeffs), BASIS)
            * sc.PCE(np.ascontiguousarray(b.coeffs), BASIS)).coeffs
    assert want.flags.c_contiguous
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("shape_num, shape_den", [
    ((64, 4), (64, 4)),
    ((64, 4, WIDTH), (64, 4, 1)),   # partials over the value
    ((64, 4, 1), (64, 4, WIDTH)),
])
def test_spectral_divide_keeps_element_fastest_layout(shape_num, shape_den):
    rng = np.random.default_rng(3)
    num = make_storage("pce", shape_num, basis=BASIS)
    den = make_storage("pce", shape_den, basis=BASIS)
    num.coeffs[...] = rng.normal(size=num.coeffs.shape)
    den.coeffs[...] = rng.uniform(-0.2, 0.2, size=den.coeffs.shape)
    den.coeffs[..., 0] += 1.0
    # a dominant P_1 coefficient in every other element exchanges rows
    den.coeffs[::2, ..., 0] -= 0.7
    den.coeffs[::2, ..., 1] += 1.8
    got = (num / den).coeffs
    # the quotient takes the full-shape operand's layout: the numerator's
    # when it has the quotient's shape
    assert got.strides[0] == got.itemsize
    assert got.strides[-1] == max(got.strides)
    want = (sc.PCE(np.ascontiguousarray(num.coeffs), BASIS)
            / sc.PCE(np.ascontiguousarray(den.coeffs), BASIS)).coeffs
    assert want.flags.c_contiguous
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _fill(storage, rng):
    for data, _ in _components(storage):
        data[...] = rng.normal(size=data.shape)


def _c_ordered(storage):
    if isinstance(storage, sc.Dual):
        return sc.Dual(_c_ordered(storage.val), _c_ordered(storage.dx))
    if isinstance(storage, sc.PCE):
        return sc.PCE(np.ascontiguousarray(storage.coeffs), storage.basis)
    if isinstance(storage, sc.Ensemble):
        return sc.Ensemble(np.ascontiguousarray(storage.vals))
    return np.ascontiguousarray(storage)


@pytest.mark.parametrize("kind", ["dual", "pce", "nested", "ensemble"])
@pytest.mark.parametrize("axis", [0, (0, 2), None])
def test_sums_do_not_depend_on_the_storage_layout(kind, axis):
    storage = make_storage(kind, EXTENTS, **STORAGE_KINDS[kind])
    _fill(storage, np.random.default_rng(7))
    got = storage.sum(axis=axis)
    want = _c_ordered(storage).sum(axis=axis)
    for (g, _), (w, _) in zip(_components(got), _components(want),
                              strict=True):
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


# ---------------------------------------------------------------------------
# node and quadrature contractions against (q,) basis rows
# ---------------------------------------------------------------------------

QUAD = bilinear_basis(2)


def _workset_sizes():
    """Element counts of the demo mesh's worksets of 7: full ones and the
    short last one (256 = 36 * 7 + 4)."""
    mesh = build_slider_mesh(GeometryParams(), Resolution())
    sizes = sorted({ws.stop - ws.start for ws in build_worksets(mesh, 7)})
    assert sizes == [4, 7]
    return sizes


def _row_contraction(nodal, rows):
    """sum_n nodal[:, n] rows[n] with one new sum per node: the form on
    (q,) basis rows that the element-fastest tables replace."""
    acc = None
    for n, row in enumerate(rows):
        term = nodal[:, n][:, None] * row
        acc = term if acc is None else acc + term
    return acc


def _row_integrate(integrand, weighted):
    """integrate's contraction with one new sum per quadrature point."""
    acc = None
    for q in range(np.shape(weighted)[2]):
        term = weighted[:, :, q] * integrand[:, q][:, None]
        acc = term if acc is None else acc + term
    return acc


def _same_bits(got, want):
    return all(np.array_equal(g.view(np.int64), w.view(np.int64))
               for (g, _), (w, _) in zip(_components(got), _components(want),
                                         strict=True))


def _storage(kind, extents, rng):
    storage = make_storage(kind, extents, **STORAGE_KINDS[kind])
    _fill(storage, rng)
    for data, _ in _components(storage):
        data[::3] = -0.0
    return storage


@pytest.mark.parametrize("kind", sorted(STORAGE_KINDS))
def test_contractions_are_bitwise_the_row_form_and_element_fastest(kind):
    rng = np.random.default_rng(11)
    for size in _workset_sizes():
        nodal = _storage(kind, (size, QUAD.num_nodes), rng)
        coords = _storage(kind, (size, QUAD.num_nodes, 2), rng)
        integrand = _storage(kind, (size, QUAD.num_qp), rng)
        grad = _storage("real", (size, QUAD.num_nodes, QUAD.num_qp, 2), rng)
        weighted = _storage("real", (size, QUAD.num_nodes, QUAD.num_qp), rng)
        bf = element_tables(QUAD.values, size)
        ref_grad = element_tables(QUAD.ref_gradients, size)
        inputs = (nodal, coords, integrand, grad, weighted, bf, ref_grad)
        before = [data.copy() for storage in inputs
                  for data, _ in _components(storage)]

        got = {"interpolate": interpolate_to_qp(nodal, bf),
               "gradient": interpolate_to_qp(nodal, grad[:, :, :, 1])}
        # the physical gradients vary by element: their own (e, q) slices
        want = {"interpolate": _row_contraction(nodal, QUAD.values),
                "gradient": _row_contraction(nodal, [grad[:, n, :, 1] for n
                                                     in range(QUAD.num_nodes)])}
        jac = mapping_jacobian(coords, ref_grad)
        for a in range(2):
            for b in range(2):
                got[f"jacobian{a}{b}"] = jac[a][b]
                want[f"jacobian{a}{b}"] = _row_contraction(
                    coords[:, :, a], QUAD.ref_gradients[:, :, b])
        for name, value in got.items():
            assert _same_bits(value, want[name]), (name, size)
            for data, elem_axis in _components(value):
                assert data.strides[elem_axis] == data.itemsize, (name, size)

        got = make_storage(kind, (size, QUAD.num_nodes), **STORAGE_KINDS[kind])
        reference = make_storage(kind, (size, QUAD.num_nodes),
                                 **STORAGE_KINDS[kind])
        for _ in range(2):   # into zeroed storage, then on top of the first
            sc.add_into(got, integrate(integrand, weighted))
            sc.add_into(reference, _row_integrate(integrand, weighted))
        assert _same_bits(got, reference), ("integrate", size)

        after = [data for storage in inputs for data, _ in _components(storage)]
        for old, new in zip(before, after, strict=True):
            assert np.array_equal(old.view(np.int64), new.view(np.int64))


def test_assembly_reads_basis_values_from_an_element_fastest_field():
    # worksets of 7 leave a short last one of 4 elements with its own arena
    model = demo_model(sg_basis=BASIS, workset_size=7)
    _every_output(model)
    arenas = [arena for graph in model.graphs.values()
              for arena in graph._arenas.values()]
    assert {arena.dim_sizes["elem"] for arena in arenas} == set(_workset_sizes())
    for arena in arenas:
        bf = arena.get("bf")
        assert bf.strides[0] == bf.itemsize
        assert np.array_equal(bf, np.broadcast_to(model.basis.values, bf.shape))
        temp = arena.get("temp_node")
        assert _same_bits(arena.get("temp_qp"),
                          _row_contraction(temp, model.basis.values))
