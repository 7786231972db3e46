"""Dual and spectral scalar arithmetic against analytic and quadrature oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedfem import scalars as sc

BASIS3 = sc.build_basis_data(3)


def pce(coeffs, basis=BASIS3):
    return sc.PCE(np.asarray(coeffs, dtype=float), basis)


# ---------------------------------------------------------------------------
# dual arithmetic
# ---------------------------------------------------------------------------

def test_dual_polynomial():
    x = sc.Dual(3.0, [1.0])
    y = 1.0 + 2.0 * x * x
    assert y.val == 19.0
    assert y.dx[0] == 12.0


def test_dual_self_cancellation():
    x = sc.Dual(5.0, [1.0])
    y = x - x
    assert y.val == 0.0
    assert y.dx[0] == 0.0


def test_dual_quotient_rule():
    x = sc.Dual(2.0, [1.0])
    y = x / (1.0 + x)
    assert y.val == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert y.dx[0] == pytest.approx(1.0 / 9.0, rel=1e-15)


def test_dual_transcendentals():
    e = sc.exp(sc.Dual(0.0, [1.0]))
    assert (e.val, e.dx[0]) == (1.0, 1.0)
    l = sc.log(sc.Dual(1.0, [2.0]))
    assert (l.val, l.dx[0]) == (0.0, 2.0)
    s = sc.sqrt(sc.Dual(4.0, [1.0]))
    assert (s.val, s.dx[0]) == (2.0, 0.25)


def test_dual_pow():
    x = sc.Dual(2.0, [1.0])
    y = x ** 3
    assert y.val == 8.0
    assert y.dx[0] == pytest.approx(12.0)


def test_dual_dimension_mismatch():
    with pytest.raises(sc.DerivativeDimensionError):
        sc.Dual(1.0, [1.0, 0.0]) + sc.Dual(1.0, [1.0, 0.0, 0.0])


def test_dual_division_by_zero_value():
    with pytest.raises(ZeroDivisionError):
        sc.Dual(1.0, [1.0]) / sc.Dual(0.0, [1.0])


def test_dual_domain_errors():
    with pytest.raises(ValueError):
        sc.log(sc.Dual(-1.0, [1.0]))
    with pytest.raises(ValueError):
        sc.sqrt(sc.Dual(-4.0, [1.0]))


def test_dual_comparisons_use_value():
    a = sc.Dual(1.0, [100.0])
    b = sc.Dual(2.0, [-100.0])
    assert a < b
    assert b > a
    assert a <= sc.Dual(1.0, [0.0])
    assert bool(a == sc.Dual(1.0, [5.0]))


def test_strip_derivatives_is_explicit():
    x = sc.Dual(3.0, [1.0])
    assert sc.strip_derivatives(x) == 3.0
    p = pce([2.0, 1.0, 0.0, 0.0])
    assert sc.strip_derivatives(p) == 2.0


# randomized chain-rule check against central finite differences;
# the function zoo keeps derivative scales O(1) so the relative bound is fair
_ZOO = [
    lambda x, a: a + 2.0 * x * x - x,
    lambda x, a: x / (2.0 + x * x) + a * x,
    lambda x, a: sc.exp(x * 0.3) * (a + x),
    lambda x, a: sc.log(1.5 + x * x) - a,
    lambda x, a: sc.sqrt(4.0 + x * x) * (1.0 + 0.1 * a),
    lambda x, a: (x + a) * (x - 1.0) / (3.0 + x * x),
    lambda x, a: (1.0 + x * 0.5) ** 3 + a * x * x,
    lambda x, a: 2.0 / (2.5 + x) + x * a,
    lambda x, a: sc.exp(-0.2 * x * x) + a,
    lambda x, a: x * x * x - a * x + 0.5,
]


@settings(max_examples=120, deadline=None)
@given(
    fidx=st.integers(min_value=0, max_value=len(_ZOO) - 1),
    x0=st.floats(min_value=-2.0, max_value=2.0),
    a=st.floats(min_value=-2.0, max_value=2.0),
)
def test_dual_matches_finite_differences(fidx, x0, a):
    f = _ZOO[fidx]
    ad = f(sc.Dual(x0, [1.0]), a).dx[0]
    h = 1e-6 * (1.0 + abs(x0))
    fd = (sc.strip_derivatives(f(sc.Dual(x0 + h, [1.0]), a))
          - sc.strip_derivatives(f(sc.Dual(x0 - h, [1.0]), a))) / (2.0 * h)
    assert abs(ad - fd) <= 1e-6 * max(abs(ad), abs(fd), 1.0)


@settings(max_examples=100, deadline=None)
@given(
    x0=st.floats(min_value=-2.0, max_value=2.0),
    a=st.floats(min_value=-2.0, max_value=2.0),
)
def test_dual_value_matches_plain_reals_bitwise(x0, a):
    # baseline uses 1-d ndarray storage like field data; 0-d arrays decay to
    # numpy scalars under arithmetic, whose integer-power path differs by one
    # ulp from the array ufunc
    for f in _ZOO:
        plain = f(np.array([x0]), a)
        dual = f(sc.Dual(np.array([x0]), np.ones((1, 1))), a)
        assert float(sc.strip_derivatives(dual)[0]) == float(plain[0])


# ---------------------------------------------------------------------------
# basis tables
# ---------------------------------------------------------------------------

def test_basis_degree_zero():
    b = sc.build_basis_data(0)
    assert b.norms.tolist() == [1.0]
    assert b.triple[0, 0, 0] == 1.0


def test_basis_norms_and_c011():
    assert np.array_equal(BASIS3.norms, 1.0 / np.array([1.0, 3.0, 5.0, 7.0]))
    assert BASIS3.triple[0, 1, 1] == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_basis_c123_frozen_from_quadrature_oracle():
    # oracle: 20-node Gauss-Legendre quadrature of P1*P2*P3 with weight 1/2
    x, w = sc.gauss_legendre(20)
    v = sc.legendre_values(3, x)
    oracle = np.sum(0.5 * w * v[1] * v[2] * v[3])
    assert oracle == pytest.approx(3.0 / 35.0, abs=1e-14)
    assert BASIS3.triple[1, 2, 3] == pytest.approx(3.0 / 35.0, abs=1e-14)


def test_basis_matches_raw_quadrature():
    b = sc.build_basis_data(4)
    x, w = sc.gauss_legendre(25)
    v = sc.legendre_values(4, x)
    raw = np.einsum("iq,jq,kq,q->ijk", v, v, v, 0.5 * w)
    assert np.max(np.abs(b.triple - raw)) < 1e-14


def test_basis_symmetry_and_structural_zeros():
    t = BASIS3.triple
    for perm in ((1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)):
        assert np.array_equal(t, np.transpose(t, perm))
    n = BASIS3.size
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if (i + j + k) % 2 == 1 or k > i + j or j > i + k or i > j + k:
                    assert t[i, j, k] == 0.0
            assert t[i, j, 0] == (BASIS3.norms[i] if i == j else 0.0)


def test_basis_negative_degree_rejected():
    with pytest.raises(ValueError):
        sc.build_basis_data(-1)


# ---------------------------------------------------------------------------
# spectral arithmetic
# ---------------------------------------------------------------------------

def test_pce_square_of_p1():
    p1 = pce([0.0, 1.0, 0.0, 0.0])
    out = p1 * p1
    assert np.allclose(out.coeffs, [1.0 / 3.0, 0.0, 2.0 / 3.0, 0.0], atol=1e-15)


def test_pce_multiply_by_deterministic_is_componentwise():
    a = pce([0.3, -1.2, 0.7, 2.0])
    out = a * pce([2.5, 0.0, 0.0, 0.0])
    assert np.array_equal(out.coeffs, a.coeffs * 2.5)


def test_pce_p1_times_p2_against_projection_oracle():
    # oracle: Gauss-Legendre projection of xi * P2(xi) onto the basis
    x, w = sc.gauss_legendre(20)
    v = sc.legendre_values(3, x)
    oracle = sc.project_samples(x * v[2], x, w, BASIS3)
    out = pce([0.0, 1.0, 0.0, 0.0]) * pce([0.0, 0.0, 1.0, 0.0])
    assert np.allclose(out.coeffs, oracle, atol=1e-13)
    assert np.allclose(out.coeffs, [0.0, 0.4, 0.0, 0.6], atol=1e-13)


def test_pce_divide_by_deterministic():
    a = pce([0.3, -1.2, 0.7, 2.0])
    out = a / pce([2.0, 0.0, 0.0, 0.0])
    assert np.array_equal(out.coeffs, a.coeffs / 2.0)


def test_pce_divide_roundtrip():
    b = pce([1.0, 0.2, 0.0, 0.0])
    x = pce([0.3, -1.2, 0.7, 2.0])
    out = (b * x) / b
    assert np.allclose(out.coeffs, x.coeffs, atol=1e-12)


def test_pce_reciprocal_truncation_against_nisp_oracle():
    # oracle: 20-node quadrature projection of 1/(1 + 0.5 xi)
    x, w = sc.gauss_legendre(20)
    for degree, tol_all in ((3, 6e-3), (5, 1e-3)):
        b = sc.build_basis_data(degree)
        den = sc.pce_constant(1.0, b) + sc.PCE(np.eye(degree + 1)[1] * 0.5, b)
        quot = 1.0 / den
        oracle = sc.project_samples(1.0 / (1.0 + 0.5 * x), x, w, b)
        diff = np.abs(quot.coeffs - oracle)
        # low coefficients agree tightly; the tail carries the degree-truncation
        # error, which shrinks as the degree grows
        assert np.all(diff[:2] <= 1e-3)
        assert np.all(diff <= tol_all)


def test_pce_singular_divisor_reported():
    with pytest.raises((sc.SpectralDivisionError, ZeroDivisionError)):
        pce([1.0, 0.0, 0.0, 0.0]) / pce([0.0, 0.0, 0.0, 0.0])


BASIS2 = sc.build_basis_data(2)
# P_1 alone: its Galerkin multiplication matrix at degree 2 is singular
SINGULAR_P1 = [0.0, 1.0, 0.0]
SINGULAR_MESSAGE = r"^singular spectral divisor \(condition estimate "


def test_pce_singular_spectral_divisor_raises():
    num = pce([1.0, 0.5, 0.25], BASIS2)
    with pytest.raises(sc.SpectralDivisionError, match=SINGULAR_MESSAGE):
        num / pce(SINGULAR_P1, BASIS2)


def test_pce_one_singular_entry_fails_the_whole_batch():
    den = np.tile([1.0, 0.2, 0.1], (5, 1))
    den[3] = SINGULAR_P1
    with pytest.raises(sc.SpectralDivisionError, match=SINGULAR_MESSAGE):
        pce(np.ones((5, 3)), BASIS2) / pce(den, BASIS2)
    # the regular entries alone divide
    den = np.delete(den, 3, axis=0)
    assert np.all(np.isfinite((pce(np.ones((4, 3)), BASIS2)
                               / pce(den, BASIS2)).coeffs))


def test_nested_dual_singular_spectral_divisor_raises():
    # value P_1 and partials of the nested dual-over-chaos scalar
    x = sc.Dual(pce(SINGULAR_P1, BASIS2), pce(np.ones((2, 3)), BASIS2))
    y = sc.Dual(pce([2.0, 0.1, 0.0], BASIS2), pce(np.ones((2, 3)), BASIS2))
    for quotient in (lambda: 1.0 / x, lambda: y / x):
        with pytest.raises(sc.SpectralDivisionError, match=SINGULAR_MESSAGE):
            quotient()


def _divide_cases(degree, seed=0, entries=40):
    """Divisors with a dominant mean and, in every other entry, a dominant
    P_1 coefficient over a small mean: the second kind needs row exchanges.
    All keep the Galerkin matrix well conditioned."""
    rng = np.random.default_rng([seed, degree])
    size = degree + 1
    den = rng.uniform(-0.2, 0.2, size=(entries, size))
    den[:, 0] = rng.uniform(0.5, 1.0, size=entries)
    den[::2, 0] = rng.uniform(0.2, 0.4, size=entries // 2)
    den[::2, 1] = rng.uniform(1.5, 2.0, size=entries // 2)
    return den, rng.normal(size=(entries, 5, size))


def _galerkin_matrix(den, basis):
    return np.einsum("...i,ijk->...kj", den, basis.triple_scaled)


@pytest.mark.parametrize("degree", range(1, 6))
def test_spectral_divide_matches_lapack_solve(degree):
    basis = sc.build_basis_data(degree)
    den, num = _divide_cases(degree)
    m = _galerkin_matrix(den, basis)
    # LAPACK's getrf would exchange rows for half of the divisors
    assert np.sum(np.argmax(np.abs(m[:, :, 0]), axis=-1) != 0) == len(den) // 2
    assert np.max(np.linalg.cond(m)) < 1e3
    # a divisor broadcast over the numerator's partials, and the reverse
    for n, d in ((num, den[:, None]),
                 (num[:, :1], np.repeat(den[:, None], num.shape[1], axis=1))):
        got = (sc.PCE(n, basis) / sc.PCE(d, basis)).coeffs
        want = np.linalg.solve(_galerkin_matrix(d, basis),
                               np.broadcast_to(n, got.shape)[..., None])[..., 0]
        assert got.shape == want.shape
        scale = np.max(np.abs(want), axis=-1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)


@pytest.mark.parametrize("degree", (1, 3, 5))
def test_spectral_divide_exchanges_rows_for_a_zero_mean_divisor(degree):
    # M_00 = 0 for P_1 alone, which is invertible at odd degrees: only a row
    # exchange avoids the zero pivot
    basis = sc.build_basis_data(degree)
    den = np.eye(basis.size)[1]
    num = np.random.default_rng(degree).normal(size=(3, basis.size))
    got = (sc.PCE(num, basis) / sc.PCE(den, basis)).coeffs
    want = np.linalg.solve(_galerkin_matrix(den, basis), num.T).T
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


def test_spectral_divide_is_batch_invariant_bitwise():
    for degree in (2, 3, 5):
        basis = sc.build_basis_data(degree)
        den, num = _divide_cases(degree, seed=1)
        batch = (sc.PCE(num, basis) / sc.PCE(den[:, None], basis)).coeffs
        for e in range(len(den)):
            alone = (sc.PCE(num[e], basis) / sc.PCE(den[e], basis)).coeffs
            assert np.array_equal(alone.view(np.int64), batch[e].view(np.int64))
            one = (sc.PCE(num[e, 2], basis) / sc.PCE(den[e], basis)).coeffs
            assert np.array_equal(one.view(np.int64), batch[e, 2].view(np.int64))



def _two_factor_quotients(a, b):
    """Dual division as two PCE divisions, each factoring the divisor."""
    if isinstance(b, sc.Dual):
        val = a.val / b.val if isinstance(a, sc.Dual) else a / b.val
        dx_num = (a.dx - sc._dxpand(val) * b.dx if isinstance(a, sc.Dual)
                  else -(sc._dxpand(val) * b.dx))
        return val, dx_num / sc._dxpand(b.val)
    return a.val / b, a.dx / sc._dxpand(b)


@pytest.mark.parametrize("degree", (1, 3, 5))
def test_dual_division_factors_a_chaos_divisor_once_bitwise(degree,
                                                            monkeypatch):
    basis = sc.build_basis_data(degree)
    den, num = _divide_cases(degree, seed=2)
    rng = np.random.default_rng(degree)
    nested = lambda v, d: sc.Dual(sc.PCE(v, basis), sc.PCE(d, basis))
    top = nested(num[:, 0], num)
    bottom = nested(den, rng.normal(size=(len(den), 5, basis.size)))
    flat = np.zeros_like(den)
    flat[:, 0] = den[:, 0]
    cases = [(top, bottom), (top, nested(flat, num)),
             (sc.Dual(num[:, 0, 0], num[:, :, 0]), bottom),
             (top, sc.PCE(den, basis)), (2.5, bottom),
             (sc.PCE(num[:, 1], basis), bottom)]
    want = [_two_factor_quotients(a, b) for a, b in cases]
    factors = []
    factor = sc._spectral_factor
    monkeypatch.setattr(sc, "_spectral_factor",
                        lambda *args: factors.append(1) or factor(*args))
    for (a, b), (val, dx) in zip(cases, want):
        del factors[:]
        got = a / b
        assert len(factors) == 1
        for x, y in ((got.val, val), (got.dx, dx)):
            assert x.coeffs.shape == y.coeffs.shape
            assert np.array_equal(x.coeffs.view(np.int64),
                                  y.coeffs.view(np.int64))

def test_pce_basis_mismatch():
    other = sc.build_basis_data(3)
    with pytest.raises(sc.BasisMismatchError):
        pce([1.0, 0.0, 0.0, 0.0]) * sc.PCE([1.0, 0.0, 0.0, 0.0], other)


def test_pce_evaluate():
    assert pce([35.0, 15.0, 0.0, 0.0]).evaluate(1.0) == 50.0
    assert pce([4.2, 0.0, 0.0, 0.0]).evaluate(-0.37) == 4.2
    assert pce([0.0, 0.0, 1.0, 0.0]).evaluate(0.0) == -0.5


def test_pce_constant_mean():
    c = sc.pce_constant(7.5, BASIS3)
    assert c.mean == 7.5
    assert np.all(c.coeffs[..., 1:] == 0.0)


def test_pce_comparisons_use_mean():
    assert pce([1.0, 9.0, 0.0, 0.0]) < pce([2.0, -9.0, 0.0, 0.0])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-2, max_value=2), min_size=8, max_size=8),
       st.integers(min_value=0, max_value=4))
def test_pce_product_consistent_at_quadrature_nodes(vals, qi):
    # Galerkin product evaluated at a quadrature node equals the product of
    # evaluations, exactly when deg(a) + deg(b) <= degree of the basis
    a = pce([vals[0], vals[1], 0.0, 0.0])
    b = pce([vals[4], vals[5], vals[6], 0.0])
    xi = BASIS3.quad_nodes[qi]
    lhs = (a * b).evaluate(xi)
    rhs = a.evaluate(xi) * b.evaluate(xi)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_pce_product_truncation_residual_is_high_mode_only():
    # deg(a) + deg(b) > P: difference at nodes is exactly the truncated modes
    a = pce([0.0, 0.0, 1.0, 0.0])
    b = pce([0.0, 0.0, 0.0, 1.0])
    x20, w20 = sc.gauss_legendre(20)
    exact = sc.project_samples(a.evaluate(x20) * b.evaluate(x20), x20, w20, BASIS3)
    assert np.allclose((a * b).coeffs, exact, atol=1e-13)


@pytest.mark.parametrize("degree", range(6))
def test_product_table_is_the_nonzero_support_in_order(degree):
    b = sc.build_basis_data(degree)
    support = np.zeros_like(b.triple_scaled, dtype=bool)
    pairs = [(i, j) for i, j, _ in b.pairs]
    assert pairs == sorted(pairs)
    for i, j, uses in b.pairs:
        ks = [k for k, _ in uses]
        assert ks and ks == sorted(ks)
        for k, t in uses:
            assert t == b.triple_scaled[i, j, k]
            support[i, j, k] = True
    assert np.array_equal(support, b.triple_scaled != 0.0)
    if degree == 3:
        assert support.sum() == 23


def _einsum_product(a, b, basis):
    """Dense reference: the Galerkin product over every triple-product entry."""
    return np.einsum("...i,...j,ijk->...k", a, b, basis.triple_scaled)


@pytest.mark.parametrize("shape_a, shape_b", [
    ((), ()),
    ((6,), (6,)),
    ((5, 3), (5, 3)),
    ((5, 3, 1), (5, 3, 8)),   # nested dual: value times partials
    ((5, 3, 8), (5, 3, 1)),
    ((3,), ()),
])
def test_pce_product_bitwise_equals_dense_einsum(shape_a, shape_b):
    rng = np.random.default_rng(11)
    for basis in (BASIS3, sc.build_basis_data(5)):
        size = basis.size
        a = rng.normal(size=shape_a + (size,))
        b = rng.normal(size=shape_b + (size,))
        # exact zeros and negative zeros, whole rows of them included
        a[..., 1::2] = 0.0
        b.reshape(-1, size)[0] = -0.0
        b[b > 1.0] = 0.0
        got = (sc.PCE(a, basis) * sc.PCE(b, basis)).coeffs
        want = _einsum_product(a, b, basis)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("shape_mean, shape_other", [
    ((), ()),
    ((5, 3), (5, 3)),
    ((5, 3, 1), (5, 3, 8)),   # deterministic value times chaos partials
    ((5, 3, 8), (5, 3, 1)),   # deterministic seeds times a chaos value
])
def test_mean_only_operand_scales_bitwise_like_dense_einsum(shape_mean,
                                                           shape_other):
    # an operand with exactly zero higher coefficients (+0.0 or -0.0) scales
    # the other; signed zeros in the products must come out as the dense
    # sum's, from either side
    rng = np.random.default_rng(12)
    for basis in (BASIS3, sc.build_basis_data(0), sc.build_basis_data(5)):
        size = basis.size
        mean = np.zeros(shape_mean + (size,))
        mean[..., 0] = rng.normal(size=shape_mean)
        mean.reshape(-1, size)[0, 0] = -0.0
        mean[..., 1:] = rng.choice([0.0, -0.0], size=shape_mean + (size - 1,))
        other = rng.normal(size=shape_other + (size,))
        other[other > 1.0] = -0.0
        other[other < -1.0] = 0.0
        for a, b in ((mean, other), (other, mean)):
            got = (sc.PCE(a, basis) * sc.PCE(b, basis)).coeffs
            want = _einsum_product(a, b, basis)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# value/mean consistency across all scalar kinds (single-source invariant)
# ---------------------------------------------------------------------------

def _rational_kernel(u, c):
    # the arithmetic shape of the demo kernels: products, quotient, affine terms
    return (c * u * u + 1.5) / (1.0 + 0.25 * (u - 0.5)) - u * 0.75


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-1.0, max_value=1.5),
       st.floats(min_value=-2.0, max_value=2.0))
def test_value_component_bitwise_across_scalar_kinds(u, c):
    ua = np.array([u])
    plain = _rational_kernel(ua, c)
    as_dual = _rational_kernel(sc.Dual(ua, np.ones((1, 2))), c)
    as_pce = _rational_kernel(sc.pce_constant(ua, BASIS3), c)
    nested = _rational_kernel(
        sc.Dual(sc.pce_constant(ua, BASIS3),
                sc.PCE(np.zeros((1, 1, 4)), BASIS3)), c)
    assert float(sc.strip_derivatives(as_dual)[0]) == float(plain[0])
    assert float(sc.strip_derivatives(as_pce)[0]) == float(plain[0])
    assert float(sc.strip_derivatives(nested)[0]) == float(plain[0])
    # deterministic spectral input stays deterministic
    assert np.all(as_pce.coeffs[..., 1:] == 0.0)


def test_nested_dual_chain_rule():
    basis = BASIS3
    xval = sc.PCE([1.0, 0.5, 0.0, 0.0], basis)
    seed = sc.PCE(np.ones((1, 1)) * np.eye(4)[0], basis)
    x = sc.NestedDual(xval, seed)
    f = x * x + 2.0
    # df/dx = 2x in the spectral algebra
    assert np.allclose(f.dx.coeffs[0], (xval * 2.0).coeffs, atol=1e-14)
    # value is the Galerkin square
    assert np.allclose(f.val.coeffs, (xval * xval + 2.0).coeffs, atol=1e-14)


def test_nested_dual_is_dual_over_pce():
    assert sc.NestedDual is sc.Dual


# ---------------------------------------------------------------------------
# batched (array-valued) semantics
# ---------------------------------------------------------------------------

def test_dual_batched_matches_scalar_loop():
    rng = np.random.default_rng(42)
    v = rng.normal(size=(5,))
    d = rng.normal(size=(5, 3))
    batched = _rational_kernel(sc.Dual(v, d), 1.2)
    for i in range(5):
        single = _rational_kernel(sc.Dual(v[i], d[i]), 1.2)
        assert batched.val[i] == single.val
        assert np.array_equal(batched.dx[i], single.dx)


def test_pce_batched_matches_scalar_loop():
    rng = np.random.default_rng(7)
    c = rng.normal(size=(6, 4))
    batched = _rational_kernel(sc.PCE(c, BASIS3), 0.8)
    for i in range(6):
        single = _rational_kernel(sc.PCE(c[i], BASIS3), 0.8)
        assert np.array_equal(batched.coeffs[i], single.coeffs)


def test_indexing_preserves_trailing_axes():
    rng = np.random.default_rng(3)
    a = sc.Dual(rng.normal(size=(2, 3)), rng.normal(size=(2, 3, 4)))
    sub = a[1, :2]
    assert sub.shape == (2,)
    assert sub.dx.shape == (2, 4)
    with_axis = a[:, None]
    assert with_axis.shape == (2, 1, 3)
    assert with_axis.dx.shape == (2, 1, 3, 4)
    with pytest.raises(IndexError):
        a[..., 0]


@pytest.mark.parametrize("kind", ["dual", "pce"])
def test_index_errors_of_dual_and_pce(kind):
    rng = np.random.default_rng(5)
    if kind == "dual":
        a = sc.Dual(rng.normal(size=(2, 3)), rng.normal(size=(2, 3, 4)))
    else:
        a = pce(rng.normal(size=(2, 3, BASIS3.size)))
    ellipsis = "Ellipsis is not supported; index value axes explicitly"
    too_many = "too many indices for value shape with 2 axes"
    for idx, message in (((..., 0), ellipsis), ((0, ...), ellipsis),
                         ((None, 0, ..., 0, 1), ellipsis),
                         ((0, 1, 0), too_many), ((0, None, 1, 0), too_many)):
        with pytest.raises(IndexError) as err:
            a[idx]
        assert str(err.value) == message
    # None adds an axis without consuming one, and an array index is
    # never compared elementwise
    assert a[None, 1, None, 2].shape == (1, 1)
    assert a[np.array([1, 0]), None].shape == (2, 1, 3)


def test_sum_over_value_axes():
    rng = np.random.default_rng(4)
    a = sc.Dual(rng.normal(size=(2, 3)), rng.normal(size=(2, 3, 4)))
    s = a.sum(axis=1)
    assert np.allclose(s.val, a.val.sum(axis=1))
    assert np.allclose(s.dx, a.dx.sum(axis=1))


# ---------------------------------------------------------------------------
# storage: each scalar type's item assignment and in-place add
# ---------------------------------------------------------------------------

def test_assignment_promotes_and_guards():
    dst = sc.Dual(np.zeros(3), np.ones((3, 2)))
    dst[:] = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(dst.val, [1.0, 2.0, 3.0])
    assert np.all(dst.dx == 0.0)
    dst[1:] = sc.Dual(np.array([5.0, 6.0]), np.full((2, 2), 4.0))
    assert np.array_equal(dst.val, [1.0, 5.0, 6.0])
    assert np.array_equal(dst.dx, [[0.0, 0.0], [4.0, 4.0], [4.0, 4.0]])
    with pytest.raises(sc.DerivativeDimensionError):
        dst[:] = sc.Dual(np.ones(3), np.ones((3, 3)))
    with pytest.raises(IndexError):
        dst[...] = 1.0

    plain = np.zeros(3)
    for embedded in (sc.Dual(np.ones(3), np.ones((3, 2))), pce(np.ones((3, 4))),
                     sc.Ensemble(np.ones((2, 3)))):
        with pytest.raises(TypeError, match="strip_derivatives"):
            plain[:] = embedded
        with pytest.raises(TypeError):
            plain += embedded
    assert not np.any(plain)
    plain[:] = sc.strip_derivatives(sc.Dual(np.ones(3), np.ones((3, 2))))
    assert np.all(plain == 1.0)


def test_spectral_assignment_is_mean_only_and_checks_the_basis():
    dst = pce(np.full((2, 4), 7.0))
    dst[1] = 2.5
    assert np.array_equal(dst.coeffs, [[7.0] * 4, [2.5, 0.0, 0.0, 0.0]])
    dst[:] = pce(np.ones((2, 4)))
    assert np.all(dst.coeffs == 1.0)
    with pytest.raises(sc.BasisMismatchError):
        dst[:] = sc.PCE(np.ones((2, 4)), sc.build_basis_data(3))
    with pytest.raises(sc.BasisMismatchError):
        dst += sc.PCE(np.ones((2, 4)), sc.build_basis_data(3))
    for other in (sc.Dual(np.ones(2), np.ones((2, 3))), sc.Ensemble(np.ones((3, 2)))):
        with pytest.raises(TypeError):
            dst[:] = other
        with pytest.raises(TypeError):
            dst += other
    assert np.all(dst.coeffs == 1.0)


def test_inplace_add_accumulates():
    dst = sc.PCE(np.zeros((2, 4)), BASIS3)
    acc = dst
    acc += sc.PCE(np.ones((2, 4)), BASIS3)
    acc += 1.0
    assert acc is dst
    assert np.array_equal(dst.coeffs[:, 0], [2.0, 2.0])
    assert np.all(dst.coeffs[:, 1:] == 1.0)

    dual = sc.Dual(np.zeros(3), np.zeros((3, 2)))
    acc = dual
    acc += sc.Dual(np.ones(3), np.ones((3, 2)))
    acc += 2.0   # plain data adds to the value only
    assert acc is dual
    assert np.all(dual.val == 3.0) and np.all(dual.dx == 1.0)
    with pytest.raises(sc.DerivativeDimensionError):
        acc += sc.Dual(np.ones(3), np.ones((3, 3)))
    with pytest.raises(TypeError):
        acc += sc.Ensemble(np.ones((2, 3)))

    nested = sc.Dual(pce(np.zeros((3, 4))), pce(np.zeros((3, 2, 4))))
    acc = nested
    acc += sc.Dual(pce(np.ones((3, 4))), pce(np.ones((3, 2, 4))))
    acc += 1.0
    assert acc is nested
    assert np.array_equal(nested.val.coeffs[:, 0], [2.0] * 3)
    assert np.all(nested.val.coeffs[:, 1:] == 1.0)
    assert np.all(nested.dx.coeffs == 1.0)


# ---------------------------------------------------------------------------
# ensembles: every sample bitwise the plain computation
# ---------------------------------------------------------------------------

def bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


def _broadcastable(draw, shape, full=False):
    """A shape that broadcasts against ``shape``: a suffix with some 1s."""
    keep = len(shape) if full else draw(st.integers(0, len(shape)))
    return tuple(1 if draw(st.booleans()) else e
                 for e in shape[len(shape) - keep:])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_ensemble_ops_are_bitwise_the_per_sample_plain_ops(data):
    draw = data.draw
    samples = draw(st.integers(1, 4))
    shape = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=3)))
    other = _broadcastable(draw, shape)
    extra = tuple(draw(st.lists(st.integers(1, 3), max_size=1)))
    plain_shape = extra + _broadcastable(draw, shape, full=bool(extra))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.normal(size=(samples,) + shape)
    b = rng.normal(size=(samples,) + other)
    p = rng.normal(size=plain_shape)
    # the integrate kernel's weighted basis against integrand[:, None]
    w = rng.normal(size=shape[:1] + (3,) + shape[1:])
    c = float(rng.normal())
    A, B = sc.Ensemble(a), sc.Ensemble(b)

    ops = [
        (lambda x, y: x + y, A, B, a, b),
        (lambda x, y: x - y, A, B, a, b),
        (lambda x, y: x * y, A, B, a, b),
        (lambda x, y: x / y, A, B, a, b),
        (lambda x, y: y - x, A, B, a, b),
        (lambda x, y: y / x, A, B, a, b),
    ]
    for op, X, Y, x, y in ops:
        got = op(X, Y).vals
        for s in range(samples):
            assert np.array_equal(bits(got[s]), bits(op(x[s], y[s])))
    for op in (lambda x: x + p, lambda x: p - x, lambda x: x * p,
               lambda x: p / x, lambda x: x / p, lambda x: c * x - c,
               lambda x: c / x, lambda x: -x, lambda x: w * x[:, None],
               lambda x: x[0], lambda x: x[None, -1]):
        got = op(A).vals
        for s in range(samples):
            assert np.array_equal(bits(got[s]), bits(op(a[s])))
    # sums over every axis choice, of stored values and of fresh products
    for axis in [None, 0, -1] + [tuple(range(1, len(shape)))] * (len(shape) > 1):
        for op in (lambda x: x.sum(axis=axis),
                   lambda x: (p * x).sum(axis=axis if extra == () else None),
                   lambda x: (w * x[:, None]).sum(axis=2 if len(shape) > 1 else 0)):
            got = op(A).vals
            for s in range(samples):
                assert np.array_equal(bits(got[s]), bits(op(a[s])))


def test_ensemble_sums_long_axes_pairwise_like_plain_arrays():
    # numpy sums a contiguous axis of 8 or more entries pairwise; with the
    # sample axis in front, each sample's sum keeps that order. Terms of
    # mixed magnitude make any other order show in the last bits.
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 4, 9)) * 10.0 ** rng.integers(-8, 8, size=(3, 4, 9))
    got = sc.Ensemble(a).sum(axis=-1).vals
    for s in range(3):
        assert np.array_equal(bits(got[s]), bits(a[s].sum(axis=-1)))


def test_ensemble_refuses_dual_and_spectral_operands():
    ens = sc.Ensemble(np.ones((2, 3)))
    for other in (sc.Dual(np.ones(3), np.ones((3, 2))),
                  pce(np.ones((3, 4)))):
        for op in (lambda x, y: x + y, lambda x, y: x - y,
                   lambda x, y: x * y, lambda x, y: x / y):
            with pytest.raises(TypeError):
                op(ens, other)
            with pytest.raises(TypeError):
                op(other, ens)
        target = sc.Ensemble(np.zeros((2, 3)))
        with pytest.raises(TypeError):
            target[:] = other
        with pytest.raises(TypeError):
            target += other
        with pytest.raises(TypeError):
            other[:] = ens
    with pytest.raises(TypeError, match="strip_derivatives"):
        np.zeros(3)[:] = ens


def test_ensemble_storage_promotes_plain_values_to_every_sample():
    ens = sc.Ensemble(np.zeros((2, 3)))
    acc = ens
    acc[:] = np.array([1.0, 2.0, 3.0])
    acc += sc.Ensemble(np.array([[1.0], [2.0]]))
    assert acc is ens
    assert np.array_equal(ens.vals, [[2.0, 3.0, 4.0], [3.0, 4.0, 5.0]])
    assert np.array_equal(sc.strip_derivatives(ens), ens.vals)
    assert ens.shape == (3,)
    ens[:] = 0.0
    assert not np.any(ens.vals)
