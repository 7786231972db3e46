"""Thermo-electric demonstration physics and the string-keyed parameter library.

The model couples a potential equation with a heat balance,

    -div(sigma grad psi) = 0
    -div(kappa grad T) - v . grad T = sigma |grad psi|^2

with conductivity sigma(T) = sigma0 / (1 + beta (T - T0)) and an optional
volumetric source s = alpha + beta_s T^2. One :class:`Materials` holds the
constants: sigma0 of the conductor and the slider, kappa, beta and T0 of every
region, and the velocity v of the conductor (the other regions rest); the pad's
sigma0 is the registered parameter "PadSigma0". Every kernel below
is written once against generic scalar storage; the evaluation type decides
what flows through it, and a kernel reads each parameter as the library
promoted it once for the running assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import scalars as sc
from .discretization import integrate
from .graph import Evaluator, FieldSpec
from .mesh import REGIONS


class NonPhysicalStateError(ArithmeticError):
    """A constitutive law left its validity range (element ids attached)."""


class ParameterError(KeyError):
    pass


# ---------------------------------------------------------------------------
# parameter library: one promotion per assembly
# ---------------------------------------------------------------------------

class ParameterLibrary:
    """Named model parameters, promoted once per assembly for the kernels.

    An evaluator registers each parameter it reads; analysis code changes
    values through :meth:`set_value`. Before an assembly runs its graph,
    :meth:`push` promotes every parameter from that assembly's seeds, not its
    type: a name in ``tangent_params`` becomes a dual with its unit seed, a
    name in ``uncertain`` a chaos expansion, any other name its plain value.
    Kernels read the promoted scalars through :meth:`scalar`.
    """

    def __init__(self):
        self._values = {}      # insertion order is registration order
        self._scalars = {}

    def register(self, name, default):
        """Register ``name`` with its default value; repeats are no-ops."""
        self._values.setdefault(name, float(default))

    def names(self):
        return list(self._values)

    def value(self, name):
        try:
            return self._values[name]
        except KeyError:
            raise ParameterError(f"unknown parameter {name!r}") from None

    def set_value(self, name, value):
        if name not in self._values:
            raise ParameterError(f"unknown parameter {name!r}")
        self._values[name] = float(value)

    def push(self, *, tangent_params=(), uncertain=None, basis=None):
        """Promote every parameter from one assembly's seeds.

        A seeded name that is not registered raises :class:`ParameterError`
        and promotes nothing, so a misspelt seed cannot go unseen.
        """
        scalars = dict(self._values)
        for name, coeffs in (uncertain or {}).items():
            self.value(name)
            scalars[name] = sc.PCE(np.asarray(coeffs, dtype=float), basis)
        for name in tangent_params:
            seed = np.zeros(len(tangent_params))
            seed[tangent_params.index(name)] = 1.0
            scalars[name] = sc.Dual(self.value(name), seed)
        self._scalars = scalars

    def scalar(self, name):
        """The promoted scalar of ``name`` for the running assembly."""
        return self._scalars[name]


# ---------------------------------------------------------------------------
# materials
# ---------------------------------------------------------------------------

#: default of the registered parameter "PadSigma0", the pad conductivity
PAD_SIGMA0 = 35.0


@dataclass
class Materials:
    """The demo's constants other than the pad conductivity ("PadSigma0").

    kappa, beta and T0 hold in every region; only the conductor moves. The
    convective weak-form term is -(v . grad T) phi, so the conductor
    velocity v0 = (-10, 0) transports heat toward the slider and makes the
    fixed-temperature set at the far conductor end the true inflow; the
    opposite sign has no bounded steady solution on this geometry (the
    exponential boundary-layer mode grows like e^(|v| L / kappa)).
    """

    sigma0_conductor: float = 100.0
    sigma0_slider: float = 100.0
    kappa: float = 1.0
    beta: float = 0.2
    T0: float = 0.0
    v0_x: float = -10.0
    v0_y: float = 0.0

    def __post_init__(self):
        for f in fields(Materials):
            value = getattr(self, f.name)
            if not np.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        for name in ("sigma0_conductor", "sigma0_slider", "kappa"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value}")


class ElementMaterials:
    """Materials resolved per element, built once per model.

    Each constant is a (num_elems, 1) column, so the rows of a workset
    broadcast over its quadrature points whatever regions it spans. The pad
    rows of ``sigma0`` hold ``PAD_SIGMA0``; every assembly replaces them by
    the "PadSigma0" scalar. ``pad_runs`` holds the [start, stop) ranges of
    consecutive pad elements; elements need not be numbered region by region.
    """

    def __init__(self, materials, region_of):
        m = materials
        per_region = np.array([   # rows in REGIONS order
            (m.sigma0_conductor, m.kappa, m.v0_x, m.v0_y, m.beta, m.T0),
            (PAD_SIGMA0, m.kappa, 0.0, 0.0, m.beta, m.T0),
            (m.sigma0_slider, m.kappa, 0.0, 0.0, m.beta, m.T0)])
        (self.sigma0, self.kappa, vx, vy, self.beta,
         self.T0) = np.split(per_region[region_of], 6, axis=1)
        self.velocity = (vx, vy)
        # the padded pad indicator steps up at each run's start, down at its stop
        is_pad = np.concatenate(([0], region_of == REGIONS.index("pad"), [0]))
        self.pad_runs = np.flatnonzero(np.diff(is_pad)).reshape(-1, 2).tolist()

    def pad_slices(self, ws):
        """Workset-local slices of the pad elements inside workset ``ws``."""
        return [slice(max(a, ws.start) - ws.start, min(b, ws.stop) - ws.start)
                for a, b in self.pad_runs if a < ws.stop and b > ws.start]


# ---------------------------------------------------------------------------
# compute-phase evaluators (generic over the scalar type)
# ---------------------------------------------------------------------------

class ConductivityEvaluator(Evaluator):
    """sigma(T) = sigma0 / (1 + beta (T - T0)), region-resolved sigma0.

    The pad conductivity is the registered parameter "PadSigma0", so it can be
    a design variable or an uncertain spectral input; the other regions use
    their Materials constants. ``materials`` is the model's ElementMaterials.
    """

    name = "conductivity"
    depends = (FieldSpec("temp_qp", ("elem", "qp"), "solution"),)
    evaluates = (FieldSpec("sigma_qp", ("elem", "qp"), "solution"),)

    def __init__(self, materials, library):
        self.materials = materials
        self.library = library
        library.register("PadSigma0", PAD_SIGMA0)

    def evaluate(self, ctx):
        ws, mats = ctx.workset, self.materials
        e = ws.elements
        temp = ctx.field("temp_qp")
        denom = 1.0 + mats.beta[e] * (temp - mats.T0[e])
        nonpositive = sc.strip_derivatives(denom) <= 0.0
        if np.any(nonpositive):
            # value axes (elem, qp) trail an ensemble's sample axis
            bad = np.unique(np.nonzero(nonpositive)[-2])
            raise NonPhysicalStateError(
                "conductivity denominator non-positive in elements "
                f"{(bad + ws.start)[:8].tolist()}")
        sigma = ctx.field("sigma_qp")
        sigma[:] = mats.sigma0[e] / denom
        # slices are views of the field; a boolean mask would give a copy
        pad_sigma0 = self.library.scalar("PadSigma0")
        for run in mats.pad_slices(ws):
            sigma[run] = pad_sigma0 / denom[run]


class JouleHeatingEvaluator(Evaluator):
    """Joule source sigma |grad psi|^2 at quadrature points."""

    name = "joule_heating"
    depends = (FieldSpec("sigma_qp", ("elem", "qp"), "solution"),
               FieldSpec("grad_psi_qp", ("elem", "qp", "dim"), "solution"))
    evaluates = (FieldSpec("joule_qp", ("elem", "qp"), "solution"),)

    def evaluate(self, ctx):
        sigma = ctx.field("sigma_qp")
        g = ctx.field("grad_psi_qp")
        ctx.field("joule_qp")[:] = sigma * (g[:, :, 0] * g[:, :, 0]
                                            + g[:, :, 1] * g[:, :, 1])


class QuadraticSourceEvaluator(Evaluator):
    """Volumetric source s = alpha + beta_s u^2 with registered parameters."""

    name = "source_term"
    depends = (FieldSpec("temp_qp", ("elem", "qp"), "solution"),)
    evaluates = (FieldSpec("source_qp", ("elem", "qp"), "solution"),)

    def __init__(self, library):
        self.library = library
        library.register("Alpha", 0.0)
        library.register("Beta", 0.0)

    def evaluate(self, ctx):
        source = ctx.field("source_qp")
        alpha = self.library.scalar("Alpha")
        beta = self.library.scalar("Beta")
        if isinstance(beta, float) and beta == 0.0:
            # for finite u a plain zero beta adds only signed zeros: the full
            # expression may leave -0.0 where alpha alone leaves +0.0; the
            # residual carries that only as the sign of a zero, like x
            # against 0.0 + x, and the scatter's add into zeroed globals
            # erases it
            source[:] = alpha
            return
        u = ctx.field("temp_qp")
        source[:] = alpha + beta * u * u


class TabulatedSourceEvaluator(Evaluator):
    """Source given as a function of position (manufactured-solution runs)."""

    name = "source_term"
    depends = (FieldSpec("coords_qp", ("elem", "qp", "dim"), "mesh"),)
    evaluates = (FieldSpec("source_qp", ("elem", "qp"), "solution"),)

    def __init__(self, forcing):
        self.forcing = forcing

    def evaluate(self, ctx):
        xq = ctx.field("coords_qp")
        ctx.field("source_qp")[:] = self.forcing(xq[:, :, 0], xq[:, :, 1])


class PotentialResidualEvaluator(Evaluator):
    """R_psi(e, i) = sum_q sigma grad psi . grad phi_i |j| w_q."""

    name = "potential_residual"
    depends = (FieldSpec("sigma_qp", ("elem", "qp"), "solution"),
               FieldSpec("grad_psi_qp", ("elem", "qp", "dim"), "solution"),
               FieldSpec("weighted_grad_bf", ("elem", "node", "qp", "dim"), "mesh"))
    evaluates = (FieldSpec("psi_residual", ("elem", "node"), "solution"),)

    def evaluate(self, ctx):
        sigma = ctx.field("sigma_qp")
        g = ctx.field("grad_psi_qp")
        wgbf = ctx.field("weighted_grad_bf")
        residual = integrate(sigma * g[:, :, 0], wgbf[:, :, :, 0])
        residual += integrate(sigma * g[:, :, 1], wgbf[:, :, :, 1])
        ctx.field("psi_residual")[:] = residual


class HeatResidualEvaluator(Evaluator):
    """Diffusive, convective, Joule, and source contributions to R_T.

    R_T(e, i) = sum_q [kappa grad T . grad phi_i
                       + (-v . grad T - joule + source) phi_i] |j| w_q
    """

    name = "heat_residual"
    evaluates = (FieldSpec("temp_residual", ("elem", "node"), "solution"),)

    def __init__(self, materials, with_joule=True):
        self.materials = materials
        self.with_joule = with_joule
        depends = [
            FieldSpec("grad_temp_qp", ("elem", "qp", "dim"), "solution"),
            FieldSpec("weighted_bf", ("elem", "node", "qp"), "mesh"),
            FieldSpec("weighted_grad_bf", ("elem", "node", "qp", "dim"), "mesh"),
        ]
        if with_joule:
            depends.append(FieldSpec("joule_qp", ("elem", "qp"), "solution"))
        depends.append(FieldSpec("source_qp", ("elem", "qp"), "solution"))
        self.depends = tuple(depends)

    def evaluate(self, ctx):
        e = ctx.workset.elements
        kappa = self.materials.kappa[e]
        vx, vy = (v[e] for v in self.materials.velocity)
        gt = ctx.field("grad_temp_qp")
        wbf = ctx.field("weighted_bf")
        wgbf = ctx.field("weighted_grad_bf")
        residual = integrate(kappa * gt[:, :, 0], wgbf[:, :, :, 0])
        residual += integrate(kappa * gt[:, :, 1], wgbf[:, :, :, 1])
        bulk = -(vx * gt[:, :, 0] + vy * gt[:, :, 1])
        if self.with_joule:
            bulk = bulk - ctx.field("joule_qp")
        bulk = bulk + ctx.field("source_qp")
        residual += integrate(bulk, wbf)
        ctx.field("temp_residual")[:] = residual


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObjectiveResult:
    """Max-temperature objective: value plus the hand-coded subgradient."""

    value: float
    argmax_dof: int

    def dense_gradient(self, num_dofs):
        g = np.zeros(num_dofs)
        g[self.argmax_dof] = 1.0
        return g


def objective_max_temperature(x, n_eq=2, temp_eq=1):
    """g = max over temperature dofs; gradient is the argmax basis vector.

    Ties break to the lowest dof id (numpy argmax returns the first hit).
    """
    temp = np.asarray(x)[temp_eq::n_eq]
    i = int(np.argmax(temp))
    return ObjectiveResult(float(temp[i]), i * n_eq + temp_eq)
