"""Layout linearization, field storage semantics, and arena reuse."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedfem import scalars as sc
from embedfem.fields import Field, FieldArena, Layout, make_storage

BASIS = sc.build_basis_data(2)


def test_linear_index_examples():
    assert Layout((2, 3)).linear_index((1, 2)) == 5
    assert Layout((4,)).linear_index((0,)) == 0
    assert Layout((2, 2, 2)).linear_index((1, 0, 1)) == 5


def test_layout_rejects_degenerate_extents():
    with pytest.raises(ValueError):
        Layout((2, 0))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4))
def test_linearization_is_a_bijection(extents):
    layout = Layout(tuple(extents))
    seen = {layout.linear_index(idx) for idx in np.ndindex(*extents)}
    assert seen == set(range(layout.size))


def test_linear_index_matches_numpy_ravel():
    layout = Layout((3, 4, 2))
    for idx in np.ndindex(*layout.extents):
        assert layout.linear_index(idx) == np.ravel_multi_index(idx, layout.extents)


def test_out_of_bounds_index_reported():
    layout = Layout((2, 3))
    with pytest.raises(IndexError):
        layout.linear_index((2, 0))
    with pytest.raises(IndexError):
        layout.linear_index((0, 0, 0))


def test_assign_constant_real():
    f = Field("u", Layout((4,)), make_storage("real", (4,)))
    f.assign(0.0)
    assert f.data.sum() == 0.0
    f.assign(1.0)
    assert f.data.sum() == 4.0


def test_assign_constant_dual_zeroes_partials():
    f = Field("u", Layout((3,)), make_storage("dual", (3,), deriv_width=2))
    f.data.dx[...] = 7.0
    f.assign(2.5)
    assert np.all(f.data.val == 2.5)
    assert np.all(f.data.dx == 0.0)


def test_assign_constant_nested_zeroes_chaos_partials():
    f = Field("u", Layout((3,)),
              make_storage("nested", (3,), deriv_width=2, basis=BASIS))
    f.data.val.coeffs[...] = 7.0
    f.data.dx.coeffs[...] = 7.0
    f.assign(2.5)
    assert np.all(f.data.val.mean == 2.5)
    assert np.all(f.data.val.coeffs[..., 1:] == 0.0)
    assert np.all(f.data.dx.coeffs == 0.0)


def test_assign_constant_pce_mean_only():
    f = Field("u", Layout((3,)), make_storage("pce", (3,), basis=BASIS))
    f.data.coeffs[...] = 7.0
    f.assign(2.5)
    assert np.all(f.data.mean == 2.5)
    assert np.all(f.data.coeffs[..., 1:] == 0.0)


def test_setitem_guards_plain_storage():
    f = Field("u", Layout((3,)), make_storage("real", (3,)))
    with pytest.raises(TypeError):
        f[0] = sc.Dual(1.0, [1.0])
    f[0] = sc.strip_derivatives(sc.Dual(1.0, [1.0]))
    assert f.data[0] == 1.0


def test_getitem_bounds_checked():
    f = Field("u", Layout((3,)), make_storage("real", (3,)))
    with pytest.raises(IndexError):
        f[5]


def test_nested_storage_shapes():
    d = make_storage("nested", (2, 3), deriv_width=4, basis=BASIS)
    assert d.val.coeffs.shape == (2, 3, BASIS.size)
    assert d.dx.coeffs.shape == (2, 3, 4, BASIS.size)
    assert d.n == 4


def test_arena_reuses_buffers():
    arena = FieldArena({"elem": 5, "node": 4}, deriv_width=8)
    a = arena.ensure("x", ("elem", "node"), "dual")
    assert arena.allocations == 1
    b = arena.ensure("x", ("elem", "node"), "dual")
    assert b is a
    assert arena.allocations == 1
    assert arena.get("x") is a
    with pytest.raises(KeyError):
        arena.get("missing")


def test_same_name_coexists_across_arenas_without_aliasing():
    dims = {"elem": 2, "node": 4}
    real = FieldArena(dims).ensure("coords", ("elem", "node"), "real")
    dual = FieldArena(dims, deriv_width=2).ensure("coords", ("elem", "node"), "dual")
    real.assign(1.0)
    dual.assign(2.0)
    assert np.all(real.data == 1.0)
    assert np.all(dual.data.val == 2.0)


def test_ensemble_storage_holds_one_copy_per_sample():
    with pytest.raises(ValueError, match="sample count"):
        make_storage("ensemble", (3,))
    f = Field("u", Layout((3,)), make_storage("ensemble", (3,), samples=2))
    f.assign(1.5)
    f[1] = 2.0
    assert np.array_equal(f.data.vals, [[1.5, 2.0, 1.5], [1.5, 2.0, 1.5]])
    with pytest.raises(TypeError):
        Field("p", Layout((3,)), make_storage("real", (3,))).assign(f.data)
