"""Layout linearization, field storage semantics, and arena reuse."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedfem import scalars as sc
from embedfem.fields import FieldArena, Layout, make_storage

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


def _arena_field(kind, **keys):
    """Zeroed storage of one field in an arena of three elements."""
    return FieldArena({"elem": 3}, **keys).ensure("u", ("elem",), kind)


def test_assign_constant_real():
    u = make_storage("real", (4,))
    sc.copy_into(u, 0.0)
    assert u.sum() == 0.0
    sc.copy_into(u, 1.0)
    assert u.sum() == 4.0


def test_assign_constant_dual_zeroes_partials():
    u = _arena_field("dual", deriv_width=2)
    u.dx[...] = 7.0
    sc.copy_into(u, 2.5)
    assert np.all(u.val == 2.5)
    assert np.all(u.dx == 0.0)


def test_assign_constant_nested_zeroes_chaos_partials():
    u = _arena_field("nested", deriv_width=2, basis=BASIS)
    u.val.coeffs[...] = 7.0
    u.dx.coeffs[...] = 7.0
    sc.copy_into(u, 2.5)
    assert np.all(u.val.mean == 2.5)
    assert np.all(u.val.coeffs[..., 1:] == 0.0)
    assert np.all(u.dx.coeffs == 0.0)


def test_assign_constant_pce_mean_only():
    u = _arena_field("pce", basis=BASIS)
    u.coeffs[...] = 7.0
    sc.copy_into(u, 2.5)
    assert np.all(u.mean == 2.5)
    assert np.all(u.coeffs[..., 1:] == 0.0)


def test_plain_storage_refuses_embedded_scalars():
    u = make_storage("real", (3,))
    with pytest.raises(TypeError, match="strip_derivatives"):
        sc.copy_into(u[0:1], sc.Dual(1.0, [1.0]))
    sc.copy_into(u[0:1], sc.strip_derivatives(sc.Dual(1.0, [1.0])))
    assert u[0] == 1.0


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
    assert real.shape == dual.shape == (2, 4)
    sc.copy_into(real, 1.0)
    sc.copy_into(dual, 2.0)
    assert np.all(real == 1.0)
    assert np.all(dual.val == 2.0)


def test_ensemble_storage_holds_one_copy_per_sample():
    with pytest.raises(ValueError, match="sample count"):
        make_storage("ensemble", (3,))
    u = _arena_field("ensemble", samples=2)
    sc.copy_into(u, 1.5)
    sc.copy_into(u[1], 2.0)
    assert np.array_equal(u.vals, [[1.5, 2.0, 1.5], [1.5, 2.0, 1.5]])
    with pytest.raises(TypeError):
        sc.copy_into(make_storage("real", (3,)), u)
