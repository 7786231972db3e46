"""Scalar types that carry derivative or spectral payloads through arithmetic.

Plain floats and numpy arrays are the baseline scalars. ``Dual`` attaches a
fixed-length partial-derivative array propagated by the chain rule (forward
mode AD). ``PCE`` attaches Legendre polynomial-chaos coefficients combined by
Galerkin projection. A ``Dual`` whose components are ``PCE`` objects is the
nested scalar used for spectral Jacobians; the chain-rule code is written once
and works for either component algebra, so nesting costs no extra code.
``Ensemble`` holds S independent samples of a value along a leading sample
axis and combines them elementwise, so one assembly evaluates S states.

Value storage may be a single number or a numpy array: one object then
represents a whole batch of scalars, with arithmetic broadcasting over the
leading (value) axes. Logically the derivative axis of ``Dual.dx`` and the
coefficient axis of ``PCE.coeffs`` always stay trailing; the sample axis of
``Ensemble.vals`` always leads. Memory order is separate: each result is
allocated in its operands' memory order (element-fastest for field storage,
see ``fields.make_storage``), and no result depends on it, since ``sum``
reduces a C-ordered copy.

Each type owns its storage rules, so kernels write fields with ``x[idx] = v``
and ``acc += v``: plain data stored into a dual gets zero partials, into a
chaos expansion the mean only; plain storage refuses embedded data unless
``strip_derivatives`` casts it explicitly.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = [
    "BasisData",
    "BasisMismatchError",
    "DerivativeDimensionError",
    "Dual",
    "Ensemble",
    "NestedDual",
    "PCE",
    "SpectralDivisionError",
    "build_basis_data",
    "exp",
    "gauss_legendre",
    "legendre_values",
    "log",
    "pce_constant",
    "project_samples",
    "sqrt",
    "strip_derivatives",
]

_NUMBER = (int, float, np.integer, np.floating)


class DerivativeDimensionError(ValueError):
    """Two duals with different (nonzero) derivative lengths were mixed."""


class BasisMismatchError(ValueError):
    """Two spectral operands do not share the same basis tables."""


class SpectralDivisionError(ArithmeticError):
    """The spectral divisor induces a (numerically) singular system."""


# ---------------------------------------------------------------------------
# Legendre basis tables
# ---------------------------------------------------------------------------

def legendre_values(degree, xi):
    """Values of P_0..P_degree at ``xi`` via the three-term recurrence.

    Returns an array of shape ``(degree + 1,) + xi.shape``; the polynomials
    are unnormalized, P_k(1) = 1.
    """
    xi = np.asarray(xi, dtype=float)
    out = np.empty((degree + 1,) + xi.shape)
    out[0] = 1.0
    if degree >= 1:
        out[1] = xi
    for k in range(2, degree + 1):
        out[k] = ((2 * k - 1) * xi * out[k - 1] - (k - 1) * out[k - 2]) / k
    return out


def gauss_legendre(n):
    """n-point Gauss-Legendre rule on [-1, 1] (nodes, weights)."""
    return np.polynomial.legendre.leggauss(n)


class BasisData:
    """Shared Legendre basis tables for spectral (polynomial chaos) scalars.

    Convention: unnormalized Legendre polynomials, P_k(1) = 1, with the
    uniform probability measure (weight 1/2) on [-1, 1], so the squared norms
    are E[P_k^2] = 1/(2k+1) and E[P_0^2] = 1.

    ``triple[i, j, k]`` holds E[P_i P_j P_k]. The structurally known entries
    (parity and triangle zeros, entries with a zero index) are stored exactly
    so that deterministic inputs propagate through spectral arithmetic without
    roundoff; the remaining entries come from Gauss-Legendre quadrature that
    is exact for polynomials of degree 3 * degree.
    """

    __slots__ = ("degree", "norms", "triple", "triple_scaled", "pairs",
                 "quad_nodes")

    def __init__(self, degree, norms, triple, quad_nodes):
        self.degree = degree
        self.norms = norms
        self.triple = triple
        # triple_scaled[i, j, k] = E[P_i P_j P_k] / E[P_k^2], the projection
        # tensor used by Galerkin products.
        self.triple_scaled = triple / norms[None, None, :]
        # pairs lists (i, j, ((k, triple_scaled[i, j, k]), ...)) over the
        # nonzero entries, in i-major, j-minor, k-minor order: the terms a
        # Galerkin product actually has (23 of 64 at degree 3), grouped by
        # the product a_i b_j they share.
        self.pairs = tuple(
            (i, j, tuple((k, float(t))
                         for k, t in enumerate(self.triple_scaled[i, j])
                         if t != 0.0))
            for i in range(degree + 1) for j in range(degree + 1)
            if np.any(self.triple_scaled[i, j]))
        self.quad_nodes = quad_nodes

    @property
    def size(self):
        return self.degree + 1

    def __repr__(self):
        return f"BasisData(degree={self.degree})"


def build_basis_data(degree):
    """Build the shared tables for a Legendre basis of the given degree."""
    if degree < 0:
        raise ValueError("basis degree must be >= 0")
    norms = 1.0 / (2.0 * np.arange(degree + 1) + 1.0)
    n_quad = max(1, (3 * degree + 2) // 2)
    nodes, weights = gauss_legendre(n_quad)
    vals = legendre_values(degree, nodes)
    raw = np.einsum("iq,jq,kq,q->ijk", vals, vals, vals, 0.5 * weights)

    triple = np.zeros_like(raw)
    for i in range(degree + 1):
        for j in range(i, degree + 1):
            for k in range(j, degree + 1):
                if (i + j + k) % 2 == 1 or k > i + j:
                    v = 0.0
                elif i == 0:
                    v = norms[j] if j == k else 0.0
                else:
                    v = raw[i, j, k]
                for p, q, r in itertools.permutations((i, j, k)):
                    triple[p, q, r] = v
    return BasisData(degree, norms, triple, nodes)


def project_samples(samples, nodes, weights, basis):
    """Project sampled values at quadrature nodes onto the Legendre basis.

    ``samples`` has shape ``(len(nodes),) + value_shape``. Returns the
    coefficient array c with c_k = sum_q (w_q / 2) f(x_q) P_k(x_q) / E[P_k^2],
    the discrete spectral projection under the uniform measure.
    """
    samples = np.asarray(samples, dtype=float)
    vals = legendre_values(basis.degree, np.asarray(nodes, dtype=float))
    coeffs = np.tensordot(vals * (0.5 * np.asarray(weights)), samples, axes=(1, 0))
    coeffs /= basis.norms.reshape((basis.size,) + (1,) * (samples.ndim - 1))
    return np.moveaxis(coeffs, 0, -1)


# ---------------------------------------------------------------------------
# index/axis helpers shared by Dual and PCE
#
# Indexing and reductions address the *value* axes only; the trailing
# derivative/coefficient axis is preserved automatically because numpy basic
# indexing leaves unindexed trailing axes alone. Ellipsis is rejected since it
# would reach the trailing axis.
# ---------------------------------------------------------------------------

def _check_index(idx, value_ndim):
    if not isinstance(idx, tuple):
        idx = (idx,)
    consuming = len(idx)   # by identity: == compares arrays elementwise
    for i in idx:
        if i is Ellipsis:
            raise IndexError("Ellipsis is not supported; index value axes explicitly")
        consuming -= i is None
    if consuming > value_ndim:
        raise IndexError(f"too many indices for value shape with {value_ndim} axes")
    return idx


def _norm_axes(axis, value_ndim):
    if axis is None:
        axis = tuple(range(value_ndim))
    elif isinstance(axis, int):
        axis = (axis,)
    return tuple(a % value_ndim for a in axis)


def _sum(x, axes):
    """Sum over ``axes`` of a C-ordered copy: numpy's pairwise summation
    follows memory order, so this makes the sum independent of the layout."""
    if isinstance(x, PCE):
        return x.sum(axes)
    return np.ascontiguousarray(x).sum(axis=axes)


def strip_derivatives(x):
    """Explicitly cast away embedded data: dual value and/or spectral mean.

    An ensemble becomes the plain array of its samples, sample axis first.
    """
    if isinstance(x, Dual):
        return strip_derivatives(x.val)
    if isinstance(x, PCE):
        return x.mean
    if isinstance(x, Ensemble):
        return x.vals
    return x


def _require_nonzero(v):
    if np.any(np.asarray(v) == 0.0):
        raise ZeroDivisionError("division by zero value")


class _Embedded:
    """What numpy sees of every embedded scalar: mixed arithmetic defers to
    the reflected dunders, ``plain += embedded`` is refused, and so is the
    conversion numpy makes to store a value into plain storage."""

    __slots__ = ()
    __array_ufunc__ = None

    def __array__(self, dtype=None, copy=None):
        raise TypeError("storing embedded scalars into plain storage "
                        "requires strip_derivatives(...)")


class _ComparedByValue(_Embedded):
    """Comparisons act on the plain value: a dual's value, a chaos mean."""

    __slots__ = ()

    def __lt__(self, other):
        return strip_derivatives(self) < strip_derivatives(other)

    def __le__(self, other):
        return strip_derivatives(self) <= strip_derivatives(other)

    def __gt__(self, other):
        return strip_derivatives(self) > strip_derivatives(other)

    def __ge__(self, other):
        return strip_derivatives(self) >= strip_derivatives(other)

    def __eq__(self, other):
        return strip_derivatives(self) == strip_derivatives(other)

    def __ne__(self, other):
        return strip_derivatives(self) != strip_derivatives(other)


# ---------------------------------------------------------------------------
# Polynomial chaos scalars
# ---------------------------------------------------------------------------

class PCE(_ComparedByValue):
    """Legendre chaos expansion: coefficient array plus shared basis tables.

    ``coeffs[..., k]`` multiplies P_k(xi); leading axes are value axes.
    Products are Galerkin-projected back onto the basis (degree truncation),
    quotients solve the dense spectral system induced by the divisor.
    """

    __slots__ = ("coeffs", "basis")

    def __init__(self, coeffs, basis):
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.shape[-1] != basis.size:
            raise BasisMismatchError(
                f"coefficient axis {self.coeffs.shape[-1]} does not match "
                f"basis size {basis.size}")
        self.basis = basis

    # -- structure ---------------------------------------------------------

    @property
    def mean(self):
        return self.coeffs[..., 0]

    @property
    def shape(self):
        return self.coeffs.shape[:-1]

    def __getitem__(self, idx):
        return PCE(self.coeffs[_check_index(idx, self.coeffs.ndim - 1)], self.basis)

    def __setitem__(self, idx, src):
        idx = _check_index(idx, self.coeffs.ndim - 1)
        if isinstance(src, PCE):
            self._check(src)
            self.coeffs[idx] = src.coeffs
        else:   # deterministic data is mean-only
            self.coeffs[idx + (Ellipsis, 0)] = src
            self.coeffs[idx + (Ellipsis, slice(1, None))] = 0.0

    def __iadd__(self, src):
        if isinstance(src, PCE):
            self._check(src)
            self.coeffs += src.coeffs
        else:
            self.coeffs[..., 0] += src
        return self

    def sum(self, axis=None):
        return PCE(_sum(self.coeffs, _norm_axes(axis, self.coeffs.ndim - 1)),
                   self.basis)

    def evaluate(self, xi):
        """Pointwise value sum_k c_k P_k(xi) via the three-term recurrence."""
        vals = legendre_values(self.basis.degree, xi)
        return np.tensordot(self.coeffs, vals, axes=(-1, 0))

    def _check(self, other):
        if other.basis is not self.basis:
            raise BasisMismatchError("operands use different basis tables")

    def _lift(self, other):
        """Coefficients of a deterministic operand, broadcast to match."""
        other = np.asarray(other, dtype=float)
        shape = np.broadcast_shapes(self.shape, other.shape)
        c = np.zeros_like(self.coeffs, shape=shape + (self.basis.size,))
        c[..., 0] = other
        return c

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (Dual, Ensemble)):
            return NotImplemented
        if isinstance(other, PCE):
            self._check(other)
            return PCE(self.coeffs + other.coeffs, self.basis)
        return PCE(self.coeffs + self._lift(other), self.basis)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (Dual, Ensemble)):
            return NotImplemented
        if isinstance(other, PCE):
            self._check(other)
            return PCE(self.coeffs - other.coeffs, self.basis)
        return PCE(self.coeffs - self._lift(other), self.basis)

    def __rsub__(self, other):
        return PCE(self._lift(other) - self.coeffs, self.basis)

    def __mul__(self, other):
        if isinstance(other, (Dual, Ensemble)):
            return NotImplemented
        if isinstance(other, PCE):
            self._check(other)
            return PCE(_galerkin_product(self.coeffs, other.coeffs, self.basis),
                       self.basis)
        other = np.asarray(other, dtype=float)
        return PCE(self.coeffs * other[..., None], self.basis)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (Dual, Ensemble)):
            return NotImplemented
        if isinstance(other, PCE):
            return _chaos_divider(other)(self)
        other = np.asarray(other, dtype=float)
        _require_nonzero(other)
        return PCE(self.coeffs / other[..., None], self.basis)

    def __rtruediv__(self, other):
        return _chaos_divider(self)(other)

    def __pow__(self, p):
        if isinstance(p, (int, np.integer)) and p >= 0:
            out = pce_constant(np.ones(self.shape), self.basis)
            for _ in range(int(p)):
                out = out * self
            return out
        raise TypeError("only non-negative integer powers of spectral values")

    def __neg__(self):
        return PCE(-self.coeffs, self.basis)

    def __pos__(self):
        return self

    def __repr__(self):
        return f"PCE(coeffs={self.coeffs!r})"


def _galerkin_product(a, b, basis):
    """Coefficients c_k = sum_ij a_i b_j E[P_i P_j P_k] / E[P_k^2].

    Only the nonzero triple products are visited, pair by pair
    (``basis.pairs``): each a_i b_j is formed once and each c_k that uses it
    adds (a_i b_j) t. Pairs run in i-major, j-minor order, so every c_k adds
    its terms in the order ``np.einsum("...i,...j,ijk->...k")`` does,
    starting from the same +0.0, and for finite inputs the result is bitwise
    the dense einsum's, signed zeros included (a term with t = 1 adds a_i b_j
    itself, which is bitwise (a_i b_j) * 1.0). Elementwise ufuncs alone make
    every batch row independent of the batch it is computed in.

    A mean-only operand (the gathered seeds, say) scales the other: c_k is
    a_0 b_k or a_k b_0, the only term that can be nonzero, plus signed zeros.
    Adding +0.0, the loop's start, makes this bitwise the einsum's too.
    """
    for mean_only, other in ((a, b), (b, a)):
        if not np.any(mean_only[..., 1:]):
            out = mean_only[..., :1] * other
            out += 0.0
            return out
    # products follow their operands' memory order: with the coefficient axis
    # slowest every a_i b_j and every term is one contiguous block. The
    # result takes a full-shape operand's layout (C in, C out).
    shape = np.broadcast_shapes(a.shape, b.shape)
    out = np.zeros_like(a if a.shape == shape else b, shape=shape)
    coeffs = [out[..., k] for k in range(basis.size)]
    for i, j, uses in basis.pairs:
        pair = a[..., i] * b[..., j]
        for k, t in uses:
            coeffs[k] += pair if t == 1.0 else pair * t
    return out


def _spectral_factor(den, basis):
    """Factor the spectral system of divisor ``den``; returns ``solve``.

    M_kj = sum_i den_i E[P_i P_j P_k] / E[P_k^2] is the (truncated)
    multiply-by-den operator, and ``solve(num)`` gives the coefficients of
    num / den, the solution of M x = num. A divisor with exactly zero higher
    coefficients makes M diagonal, so that case reduces to a plain
    componentwise division (this keeps deterministic data exact through the
    quotient).

    Otherwise M is factored by Gaussian elimination with partial pivoting,
    as LAPACK's getrf does it (the largest magnitude wins, the first on a
    tie), written as elementwise operations across the entries. The
    factorization runs on the divisor's entry shape, and ``solve`` runs the
    substitutions on the quotient's, so one factor serves any number of
    numerators: ``solve(num, partials=True)`` divides a dual's partials,
    whose entries carry one more trailing axis than the divisor's. Each
    quotient is bitwise what factoring the divisor for it alone gives.
    Elementwise operations alone make every entry independent of its batch
    and of the memory layout. The quotient takes the numerator's layout.
    """
    if not np.any(den[..., 1:]):
        d0 = den[..., 0]
        if np.any(d0 == 0.0):
            raise ZeroDivisionError("division by zero value")
        return lambda num, partials=False: num / (
            d0[..., None, None] if partials else d0[..., None])
    size = basis.size
    # lu[j][k] is M_kj (column j, row k), of the divisor's entry shape, its
    # terms added in ascending i; the elimination leaves the unit-lower L
    # below the diagonal, U on and above
    lu = [[None] * size for _ in range(size)]
    for i, j, uses in basis.pairs:
        for k, t in uses:
            term = den[..., i] if t == 1.0 else den[..., i] * t
            lu[j][k] = term if lu[j][k] is None else lu[j][k] + term
    swaps = []
    for c in range(size):
        piv = np.argmax(np.abs(lu[c][c:]), axis=0) + c
        swaps.append(piv if np.any(piv != c) else None)
        if swaps[c] is not None:
            _swap_rows(lu, c, piv)
        if np.any(lu[c][c] == 0.0):
            m = np.einsum("...i,ijk->...kj", den, basis.triple_scaled)
            cond = float(np.max(np.linalg.cond(m)))
            raise SpectralDivisionError(
                f"singular spectral divisor (condition estimate {cond:.3e})")
        for r in range(c + 1, size):
            lu[c][r] = factor = lu[c][r] / lu[c][c]
            for j in range(c + 1, size):
                lu[j][r] = lu[j][r] - factor * lu[j][c]

    def solve(num, partials=False):
        lu_, swaps_, den_ = lu, swaps, den
        if partials:
            lu_ = [[a[..., None] for a in column] for column in lu]
            swaps_ = [None if piv is None else piv[..., None] for piv in swaps]
            den_ = den[..., None, :]
        x = [num[..., k] for k in range(size)]
        for c, piv in enumerate(swaps_):
            if piv is not None:
                _swap_rows([x], c, piv)
        for c in range(size):
            for r in range(c + 1, size):
                x[r] = x[r] - lu_[c][r] * x[c]
        shape = np.broadcast_shapes(num.shape, den_.shape)
        out = np.empty_like(num if num.shape == shape else den_, shape=shape)
        for c in reversed(range(size)):
            x[c] = out[..., c] = x[c] / lu_[c][c]
            for r in range(c):
                x[r] = x[r] - lu_[c][r] * x[c]
        return out

    return solve


def _swap_rows(columns, c, piv):
    """Per entry, swap row c with row ``piv`` (>= c) in every column."""
    for r in range(c + 1, len(columns[0])):
        swap = piv == r
        if swap.any():
            for col in columns:
                col[c], col[r] = (np.where(swap, col[r], col[c]),
                                  np.where(swap, col[c], col[r]))


def pce_constant(value, basis):
    """Deterministic value promoted to a chaos expansion (mean only)."""
    out = PCE(np.zeros(np.shape(value) + (basis.size,)), basis)
    out[()] = value
    return out


def _chaos_divider(den):
    """``divide(x, partials=False)``: the PCE x / den, factoring den once.

    Every numerator, chaos or plain, goes through one factorization of den's
    spectral system (``_spectral_factor``); ``partials=True`` divides a
    dual's partials, which carry one more trailing axis than den.
    """
    solve = _spectral_factor(den.coeffs, den.basis)

    def divide(x, partials=False):
        like = PCE(den.coeffs[..., None, :], den.basis) if partials else den
        if isinstance(x, PCE):
            like._check(x)
            coeffs = x.coeffs
        else:
            coeffs = like._lift(x)
        return PCE(solve(coeffs, partials), den.basis)

    return divide


# ---------------------------------------------------------------------------
# Dual numbers (forward-mode AD), generic over the component algebra
# ---------------------------------------------------------------------------

def _dxpand(c):
    """Append a broadcast axis so a value can multiply a derivative array."""
    if isinstance(c, PCE):
        return PCE(c.coeffs[..., None, :], c.basis)
    if isinstance(c, np.ndarray):
        return c[..., None]
    return c


class Dual(_ComparedByValue):
    """Value plus fixed-length partial-derivative array (forward-mode AD).

    ``dx[..., k]`` is the partial with respect to independent variable k; the
    derivative length is fixed at construction and never changes under
    arithmetic. Components may be arrays (batched scalars) or ``PCE`` objects
    (the nested dual-over-chaos scalar).
    """

    __slots__ = ("val", "dx")

    def __init__(self, val, dx):
        self.val = val if isinstance(val, PCE) else np.asarray(val, dtype=float)
        self.dx = dx if isinstance(dx, PCE) else np.asarray(dx, dtype=float)

    # -- structure ---------------------------------------------------------

    @property
    def n(self):
        """Derivative length (number of independent variables)."""
        d = self.dx
        return d.coeffs.shape[-2] if isinstance(d, PCE) else d.shape[-1]

    @property
    def shape(self):
        v = self.val
        return v.shape if isinstance(v, PCE) else np.shape(v)

    def _value_ndim(self):
        v = self.val
        return len(v.shape) if isinstance(v, PCE) else np.ndim(v)

    def __getitem__(self, idx):
        idx = _check_index(idx, self._value_ndim())
        return Dual(self.val[idx], self.dx[idx])

    def __setitem__(self, idx, src):
        idx = _check_index(idx, self._value_ndim())
        dx = 0.0   # plain data has zero partials
        if isinstance(src, Dual):
            self._check(src)
            src, dx = src.val, src.dx
        self.val[idx] = src
        self.dx[idx] = dx

    def __iadd__(self, src):
        if isinstance(src, Dual):
            self._check(src)
            self.dx += src.dx
            src = src.val
        self.val += src
        return self

    def sum(self, axis=None):
        ax = _norm_axes(axis, self._value_ndim())
        return Dual(_sum(self.val, ax), _sum(self.dx, ax))

    def _check(self, other):
        if self.n != other.n:
            raise DerivativeDimensionError(
                f"derivative lengths differ: {self.n} vs {other.n}")

    # -- arithmetic (chain rule) ---------------------------------------------

    def __add__(self, other):
        if isinstance(other, Ensemble):
            return NotImplemented
        if isinstance(other, Dual):
            self._check(other)
            return Dual(self.val + other.val, self.dx + other.dx)
        return Dual(self.val + other, self.dx)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Ensemble):
            return NotImplemented
        if isinstance(other, Dual):
            self._check(other)
            return Dual(self.val - other.val, self.dx - other.dx)
        return Dual(self.val - other, self.dx)

    def __rsub__(self, other):
        return Dual(other - self.val, -self.dx)

    def __mul__(self, other):
        if isinstance(other, Ensemble):
            return NotImplemented
        if isinstance(other, Dual):
            self._check(other)
            return Dual(self.val * other.val,
                        self.dx * _dxpand(other.val) + _dxpand(self.val) * other.dx)
        return Dual(self.val * other, self.dx * _dxpand(other))

    __rmul__ = __mul__

    # a chaos divisor's spectral system is factored once for the value and
    # the partials
    def __truediv__(self, other):
        if isinstance(other, Ensemble):
            return NotImplemented
        if isinstance(other, Dual):
            self._check(other)
            if isinstance(other.val, PCE):
                divide = _chaos_divider(other.val)
                val = divide(self.val)
                return Dual(val, divide(self.dx - _dxpand(val) * other.dx,
                                        partials=True))
            _require_nonzero(other.val)
            val = self.val / other.val
            return Dual(val, (self.dx - _dxpand(val) * other.dx) / _dxpand(other.val))
        if isinstance(other, PCE):
            divide = _chaos_divider(other)
            return Dual(divide(self.val), divide(self.dx, partials=True))
        _require_nonzero(other)
        return Dual(self.val / other, self.dx / _dxpand(other))

    def __rtruediv__(self, other):
        if isinstance(self.val, PCE):
            divide = _chaos_divider(self.val)
            val = divide(other)
            return Dual(val, divide(-(_dxpand(val) * self.dx), partials=True))
        _require_nonzero(self.val)
        val = other / self.val
        return Dual(val, -(_dxpand(val) * self.dx) / _dxpand(self.val))

    def __pow__(self, p):
        if not isinstance(p, _NUMBER):
            raise TypeError("exponent must be a plain number")
        if isinstance(self.val, PCE):
            if isinstance(p, (int, np.integer)) and p >= 0:
                out = self * 0.0 + 1.0
                for _ in range(int(p)):
                    out = out * self
                return out
            raise TypeError("only non-negative integer powers of nested duals")
        val = self.val ** p
        return Dual(val, self.dx * _dxpand(p * self.val ** (p - 1.0)))

    def __neg__(self):
        return Dual(-self.val, -self.dx)

    def __pos__(self):
        return self

    def __repr__(self):
        return f"Dual(val={self.val!r}, dx={self.dx!r})"


#: A dual whose value and partials are chaos expansions. The arithmetic is the
#: plain Dual chain rule executed on the PCE component algebra, so no separate
#: implementation exists (or is needed).
NestedDual = Dual


# ---------------------------------------------------------------------------
# ensembles of independent samples
# ---------------------------------------------------------------------------

def _lead(x, ndim):
    """An ensemble's samples with size-1 value axes inserted after the sample
    axis up to ``ndim`` axes, so that value axes align from the right; plain
    data as it is."""
    if not isinstance(x, Ensemble):
        return x
    return x.vals[(slice(None),) + (None,) * (ndim - x.vals.ndim)]


def _behind_samples(idx):
    """``idx`` applied to the value axes behind the sample axis; there every
    index, Ellipsis too, meets value axes."""
    return (slice(None),) + (idx if isinstance(idx, tuple) else (idx,))


class Ensemble(_Embedded):
    """S independent samples of one value, combined elementwise.

    ``vals[s]`` is sample s. Every operation is elementwise, and ``sum``
    reduces a C-ordered copy, so every sample is bitwise what the plain
    computation gives, whatever the memory order of ``vals``. Value axes
    align from the right, as numpy aligns plain arrays. Ensembles do not mix
    with dual or spectral scalars (TypeError).
    """

    __slots__ = ("vals",)

    def __init__(self, vals):
        self.vals = np.asarray(vals, dtype=float)

    @property
    def shape(self):
        return self.vals.shape[1:]

    def __getitem__(self, idx):
        return Ensemble(self.vals[_behind_samples(idx)])

    # plain data is the same in every sample; dual or spectral data is
    # refused by numpy (``_Embedded``)
    def __setitem__(self, idx, src):
        idx = _behind_samples(idx)
        self.vals[idx] = _lead(src, self.vals[idx].ndim)

    def __iadd__(self, src):
        self.vals += _lead(src, self.vals.ndim)
        return self

    def sum(self, axis=None):
        axes = _norm_axes(axis, self.vals.ndim - 1)
        return Ensemble(_sum(self.vals, tuple(a + 1 for a in axes)))

    def _pair(self, other):
        """Sample values of both operands, aligned for one elementwise op."""
        if isinstance(other, Ensemble):
            ndim = max(self.vals.ndim, other.vals.ndim)
            return _lead(self, ndim), _lead(other, ndim)
        if isinstance(other, (Dual, PCE)):
            raise TypeError(
                f"an Ensemble does not mix with {type(other).__name__} scalars")
        # plain numbers have no ndim attribute; arrays and numpy scalars do
        return _lead(self, getattr(other, "ndim", 0) + 1), other

    def __add__(self, other):
        a, b = self._pair(other)
        return Ensemble(a + b)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        return Ensemble(a - b)

    def __rsub__(self, other):
        a, b = self._pair(other)
        return Ensemble(b - a)

    def __mul__(self, other):
        a, b = self._pair(other)
        return Ensemble(a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self._pair(other)
        return Ensemble(a / b)

    def __rtruediv__(self, other):
        a, b = self._pair(other)
        return Ensemble(b / a)

    def __neg__(self):
        return Ensemble(-self.vals)

    def __repr__(self):
        return f"Ensemble(vals={self.vals!r})"


# ---------------------------------------------------------------------------
# transcendental functions (real or dual-over-real arguments)
# ---------------------------------------------------------------------------

def exp(x):
    if isinstance(x, Dual):
        v = exp(x.val)
        return Dual(v, x.dx * _dxpand(v))
    if isinstance(x, PCE):
        raise TypeError("transcendental functions of spectral values are not supported")
    return np.exp(x)


def log(x):
    if isinstance(x, Dual):
        return Dual(log(x.val), x.dx / _dxpand(x.val))
    if isinstance(x, PCE):
        raise TypeError("transcendental functions of spectral values are not supported")
    if np.any(np.asarray(x) <= 0.0):
        raise ValueError("log requires a positive value")
    return np.log(x)


def sqrt(x):
    if isinstance(x, Dual):
        if isinstance(x.val, PCE):
            raise TypeError("transcendental functions of spectral values are not supported")
        if np.any(x.val <= 0.0):
            raise ValueError("sqrt requires a positive value for differentiation")
        v = np.sqrt(x.val)
        return Dual(v, x.dx * _dxpand(0.5 / v))
    if isinstance(x, PCE):
        raise TypeError("transcendental functions of spectral values are not supported")
    if np.any(np.asarray(x) < 0.0):
        raise ValueError("sqrt requires a non-negative value")
    return np.sqrt(x)
