"""Workset-local field storage over a generic scalar.

A field is one storage object (ndarray, ``Dual``, ``PCE`` or ``Ensemble``)
whose value axes follow the field's ``Layout``; kernels read it directly and
write it with ``scalars.copy_into``, whole fields at once so the per-element
work stays vectorized. A ``FieldArena`` allocates the storage for one
evaluator graph once per workset size and hands it out by name, keeping the
assembly hot loop free of repeated structural allocation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import scalars as sc


@dataclass(frozen=True)
class Layout:
    """Ordered extents of a field; ``linear_index`` is row-major, a logical
    order that need not be the storage's memory order (see make_storage)."""

    extents: tuple

    def __post_init__(self):
        if any(e < 1 for e in self.extents):
            raise ValueError(f"all extents must be >= 1, got {self.extents}")

    @property
    def size(self):
        return int(np.prod(self.extents, dtype=np.int64)) if self.extents else 1

    def linear_index(self, multi_index):
        """Row-major linearization of a multi-index, O(1)."""
        if len(multi_index) != len(self.extents):
            raise IndexError(
                f"expected {len(self.extents)} indices, got {len(multi_index)}")
        offset = 0
        for i, (idx, ext) in enumerate(zip(multi_index, self.extents)):
            if not 0 <= idx < ext:
                raise IndexError(f"index {idx} out of range for extent {ext} (axis {i})")
            offset = offset * ext + idx
        return offset


def resolve_layout(dims, dim_sizes):
    """Turn symbolic dimension names (or literal ints) into a Layout."""
    extents = []
    for d in dims:
        if isinstance(d, str):
            if d not in dim_sizes:
                raise KeyError(f"unknown dimension name {d!r}")
            extents.append(int(dim_sizes[d]))
        else:
            extents.append(int(d))
    return Layout(tuple(extents))


def _zeros(extents, trailing=(), leading=()):
    """Zeros of shape leading + extents + trailing whose memory order behind
    the leading axes is the reverse of the logical one (element axis fastest)."""
    data = np.zeros(leading + (extents + trailing)[::-1])
    lead = len(leading)
    return data.transpose(tuple(range(lead)) + tuple(range(data.ndim - 1, lead - 1, -1)))


def make_storage(kind, extents, deriv_width=None, basis=None, samples=None):
    """Zero-initialized storage for one of the concrete scalar kinds.

    kind is one of "real", "dual", "pce", "nested", "ensemble". Dual kinds
    need the derivative width, spectral kinds the shared basis tables and
    the ensemble kind its sample count.

    Logically the derivative and coefficient axes trail the field's extents
    and the sample axis leads them. In memory the element axis is fastest and
    the derivative, coefficient or sample axis slowest: numpy allocates each
    temporary in its operands' memory order, so every kernel's inner loop
    runs over the workset's elements.
    """
    if kind == "real":
        return _zeros(extents)
    if kind == "ensemble":
        if samples is None:
            raise ValueError("ensemble storage needs a sample count")
        return sc.Ensemble(_zeros(extents, leading=(samples,)))
    if kind == "dual":
        if deriv_width is None:
            raise ValueError("dual storage needs a derivative width")
        return sc.Dual(_zeros(extents), _zeros(extents, (deriv_width,)))
    if kind == "pce":
        if basis is None:
            raise ValueError("spectral storage needs basis tables")
        return sc.PCE(_zeros(extents, (basis.size,)), basis)
    if kind == "nested":
        if deriv_width is None or basis is None:
            raise ValueError("nested storage needs a derivative width and basis tables")
        return sc.Dual(sc.PCE(_zeros(extents, (basis.size,)), basis),
                       sc.PCE(_zeros(extents, (deriv_width, basis.size)), basis))
    raise ValueError(f"unknown scalar kind {kind!r}")


class FieldArena:
    """Owns the field storage for one graph instance at one workset size.

    Allocation happens on first request per field; later executions reuse the
    same storage. ``allocations`` counts creations so reuse is testable.
    """

    def __init__(self, dim_sizes, deriv_width=None, basis=None, samples=None):
        self.dim_sizes = dict(dim_sizes)
        self.deriv_width = deriv_width
        self.basis = basis
        self.samples = samples
        self.fields = {}
        self.allocations = 0

    def ensure(self, name, dims, kind):
        storage = self.fields.get(name)
        if storage is None:
            storage = make_storage(kind, resolve_layout(dims, self.dim_sizes).extents,
                                   self.deriv_width, self.basis, self.samples)
            self.fields[name] = storage
            self.allocations += 1
        return storage

    def get(self, name):
        try:
            return self.fields[name]
        except KeyError:
            raise KeyError(f"field {name!r} is not allocated in this arena") from None
