"""Basis tables, mapping geometry, interpolation, and the integrate kernel."""

import numpy as np
import pytest

from embedfem import scalars as sc
from embedfem.discretization import (REF_NODES, bilinear_basis,
                                     element_geometry, element_tables,
                                     integrate, interpolate_to_qp,
                                     shape_values)
from embedfem.fields import make_storage
from embedfem.mesh import MeshError


def square_coords(h=1.0, n_elems=1):
    """Axis-aligned h x h elements at the origin, shaped (e, 4, 2)."""
    quad = np.array([[0.0, 0.0], [h, 0.0], [h, h], [0.0, h]])
    return np.broadcast_to(quad, (n_elems, 4, 2)).copy()


def grad_table(phys_grad):
    """element_geometry's [n][d] list of (e, q) gradients as (e, n, q, 2)."""
    return np.stack([np.stack(g, axis=-1) for g in phys_grad], axis=1)


def test_basis_is_kronecker_delta_at_nodes():
    vals = shape_values(REF_NODES)
    assert np.allclose(vals, np.eye(4), atol=1e-15)


def test_quad_order_two_points_and_weights():
    b = bilinear_basis(2)
    assert b.num_qp == 4
    assert np.allclose(np.abs(b.points), 1.0 / np.sqrt(3.0))
    assert np.allclose(b.weights, 1.0)


def test_quadrature_integrates_xi_squared_exactly():
    b = bilinear_basis(2)
    assert np.sum(b.weights * b.points[:, 0] ** 2) == pytest.approx(4.0 / 3.0, rel=1e-15)


def test_partition_of_unity_and_gradient_sum():
    for order in (1, 2, 3):
        b = bilinear_basis(order)
        assert np.allclose(b.values.sum(axis=0), 1.0, atol=1e-14)
        assert np.allclose(b.ref_gradients.sum(axis=0), 0.0, atol=1e-14)


def test_unsupported_quadrature_order():
    with pytest.raises(ValueError):
        bilinear_basis(4)


def test_square_element_determinant():
    b = bilinear_basis(2)
    for h in (0.5, 1.0, 2.0):
        det, _, _ = element_geometry(square_coords(h), b)
        assert np.allclose(det, h * h / 4.0, atol=1e-15)


def test_identity_mapped_reference_element_gradients():
    b = bilinear_basis(2)
    coords = np.broadcast_to(2.0 * REF_NODES / 2.0, (1, 4, 2)).copy()
    coords = REF_NODES[None].copy()
    _, phys_grad, _ = element_geometry(coords, b)
    for n in range(4):
        for d in range(2):
            assert np.allclose(phys_grad[n][d], b.ref_gradients[n, :, d], atol=1e-14)


def test_uniform_scaling_law():
    b = bilinear_basis(2)
    det1, grad1, _ = element_geometry(square_coords(1.0), b)
    det2, grad2, _ = element_geometry(square_coords(2.0), b)
    assert np.allclose(det2, 4.0 * det1, atol=1e-14)
    for n in range(4):
        for d in range(2):
            assert np.allclose(grad2[n][d], 0.5 * np.asarray(grad1[n][d]), atol=1e-14)


def test_non_positive_determinant_reports_element():
    b = bilinear_basis(2)
    coords = square_coords(1.0, n_elems=2)
    coords[1, 2] = [-2.0, -2.0]  # fold the second element
    with pytest.raises(MeshError, match="\\[1\\]"):
        element_geometry(coords, b)


def test_interpolation_partition_of_unity():
    b = bilinear_basis(2)
    nodal = np.full((3, 4), 7.25)
    bf = element_tables(b.values, 3)
    assert np.allclose(interpolate_to_qp(nodal, bf), 7.25, atol=1e-14)


def test_interpolation_reproduces_linear_fields():
    b = bilinear_basis(2)
    coords = square_coords(2.0)
    nodal = coords[:, :, 0]  # u = x
    _, phys_grad, _ = element_geometry(coords, b)
    gx = interpolate_to_qp(nodal, grad_table(phys_grad)[..., 0])
    gy = interpolate_to_qp(nodal, grad_table(phys_grad)[..., 1])
    assert np.allclose(gx, 1.0, atol=1e-14)
    assert np.allclose(gy, 0.0, atol=1e-14)


def test_interpolation_is_linear_in_dual_seeds():
    b = bilinear_basis(2)
    nodal = sc.Dual(np.zeros((1, 4)), np.eye(4)[None])
    u = interpolate_to_qp(nodal, element_tables(b.values, 1))
    # du(q)/du_i = phi_i(q)
    assert np.allclose(u.dx[0], b.values.T, atol=1e-15)


def test_shape_dual_determinant_matches_finite_differences():
    b = bilinear_basis(2)
    base = square_coords(1.0, n_elems=2)
    base[1] += 0.3
    direction = np.zeros_like(base)
    direction[:, 2, 1] = 1.0  # move one corner upward per element
    h = 1e-6
    coords = sc.Dual(base, direction[..., None])
    det, _, _ = element_geometry(coords, b)
    det_p, _, _ = element_geometry(base + h * direction, b)
    det_m, _, _ = element_geometry(base - h * direction, b)
    fd = (det_p - det_m) / (2.0 * h)
    assert np.allclose(det.dx[..., 0], fd, rtol=1e-6, atol=1e-12)


def test_integrate_constant_scalar_on_square():
    b = bilinear_basis(2)
    h = 0.5
    det, _, det_w = element_geometry(square_coords(h), b)
    wbf = np.stack([b.values[n] * det_w[0] for n in range(4)])[None]  # (1,4,q)
    acc = integrate(np.ones((1, b.num_qp)), wbf)
    assert np.allclose(acc, h * h / 4.0, atol=1e-15)
    assert np.array_equal(acc + integrate(np.zeros((1, b.num_qp)), wbf), acc)


def test_integrate_accumulates():
    # a residual adds up the contractions of its terms
    b = bilinear_basis(2)
    det, _, det_w = element_geometry(square_coords(1.0), b)
    wbf = np.stack([b.values[n] * det_w[0] for n in range(4)])[None]
    acc = integrate(np.ones((1, b.num_qp)), wbf)
    sc.add_into(acc, integrate(np.ones((1, b.num_qp)), wbf))
    assert np.allclose(acc, 2.0 * 0.25, atol=1e-15)


def test_integrate_constant_vector_with_gradients_sums_to_zero():
    b = bilinear_basis(2)
    coords = REF_NODES[None].copy()
    det, phys_grad, det_w = element_geometry(coords, b)
    wgbf = np.empty((1, 4, b.num_qp, 2))
    for n in range(4):
        for d in range(2):
            wgbf[0, n, :, d] = phys_grad[n][d][0] * det_w[0]
    integrand = np.zeros((1, b.num_qp, 2))
    integrand[:, :, 0] = 1.0
    acc = integrate(integrand, wgbf)
    assert abs(acc.sum()) < 1e-14


def test_integrate_layout_mismatch():
    with pytest.raises(ValueError):
        integrate(np.ones((1, 4, 2)), np.ones((1, 4, 4)))


def _bits(x):
    """Every float of a scalar of any kind, as raw bit patterns."""
    if isinstance(x, sc.Dual):
        return _bits(x.val) + _bits(x.dx)
    if isinstance(x, sc.PCE):
        return [x.coeffs.view(np.int64)]
    if isinstance(x, sc.Ensemble):
        return [x.vals.view(np.int64)]
    return [np.ascontiguousarray(x).view(np.int64)]


def _values(rng, shape):
    """Random values of mixed magnitude with +-0 and +-inf mixed in."""
    out = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 7, size=shape)
    special = rng.random(shape) < 0.2
    out[special] = rng.choice([0.0, -0.0, np.inf, -np.inf], size=special.sum())
    return out


SG_BASIS = sc.build_basis_data(3)
WIDTH, SAMPLES = 3, 5


def _scalar(rng, kind, shape):
    if kind == "real":
        return _values(rng, shape)
    if kind == "dual":
        return sc.Dual(_values(rng, shape), _values(rng, shape + (WIDTH,)))
    if kind == "pce":
        return sc.PCE(_values(rng, shape + (SG_BASIS.size,)), SG_BASIS)
    if kind == "nested":
        return sc.Dual(_scalar(rng, "pce", shape),
                       _scalar(rng, "pce", shape + (WIDTH,)))
    return sc.Ensemble(_values(rng, (SAMPLES,) + shape))


def _zeroed_storage(kind):
    return make_storage(kind, (6, 4), deriv_width=WIDTH, basis=SG_BASIS,
                        samples=SAMPLES)


@pytest.mark.parametrize("weights, integrand", [
    ("real", "real"), ("real", "dual"), ("real", "pce"), ("real", "nested"),
    ("real", "ensemble"), ("dual", "real"), ("dual", "dual")])
def test_integrate_is_bitwise_the_broadcast_and_sum(weights, integrand):
    # numpy's sum starts from +0.0, so it turns a sum of only -0.0 terms into
    # +0.0 where the in-order contraction keeps -0.0; adding into zeroed
    # storage, as the scatter does, erases that, so the fields agree bit for
    # bit
    rng = np.random.default_rng(7)
    kind = weights if integrand == "real" else integrand
    got, want = _zeroed_storage(kind), _zeroed_storage(kind)
    with np.errstate(invalid="ignore"):
        for _ in range(2):   # into zeroed storage, then on top of the first
            weighted = _scalar(rng, weights, (6, 4, 4))
            values = _scalar(rng, integrand, (6, 4))
            sc.add_into(got, integrate(values, weighted))
            sc.add_into(want, (weighted * values[:, None]).sum(axis=2))
    for a, b in zip(_bits(got), _bits(want), strict=True):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", ["real", "dual"])
def test_integrate_vector_integrand_adds_in_row_major_qp_dim_order(kind):
    rng = np.random.default_rng(8)
    weighted = _scalar(rng, "real", (6, 4, 4, 2))
    values = _scalar(rng, kind, (6, 4, 2))
    got, want = _zeroed_storage(kind), _zeroed_storage(kind)
    reference = None
    with np.errstate(invalid="ignore"):
        sc.add_into(got, integrate(values, weighted))
        for q in range(4):
            for d in range(2):
                term = weighted[:, :, q, d] * values[:, q, d][:, None]
                reference = term if reference is None else reference + term
    sc.add_into(want, reference)
    for a, b in zip(_bits(got), _bits(want), strict=True):
        assert np.array_equal(a, b)


def test_patch_test_linear_reproduction_on_distorted_mesh():
    # a distorted but valid quad still reproduces globally linear fields
    b = bilinear_basis(2)
    coords = np.array([[[0.0, 0.0], [1.1, 0.1], [1.3, 0.9], [-0.2, 1.0]]])
    a0, ax, ay = 0.7, -1.3, 2.1
    nodal = a0 + ax * coords[:, :, 0] + ay * coords[:, :, 1]
    det, phys_grad, _ = element_geometry(coords, b)
    bf = element_tables(b.values, 1)
    u = interpolate_to_qp(nodal, bf)
    x_qp = interpolate_to_qp(coords[:, :, 0], bf)
    y_qp = interpolate_to_qp(coords[:, :, 1], bf)
    assert np.allclose(u, a0 + ax * x_qp + ay * y_qp, atol=1e-13)
    grad_bf = grad_table(phys_grad)
    assert np.allclose(interpolate_to_qp(nodal, grad_bf[..., 0]), ax, atol=1e-13)
    assert np.allclose(interpolate_to_qp(nodal, grad_bf[..., 1]), ay, atol=1e-13)
