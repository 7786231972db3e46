"""Run configuration: sectioned key=value text files plus CLI overrides.

The dataclass defaults below are the single source of truth: the parser reads
them, and the CLI help is generated from them, so documentation and code can
not drift apart. Overrides are ``section.key=value`` tokens.
"""

from __future__ import annotations

import configparser
import warnings
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.polynomial import Legendre

from .analysis import NewtonConfig
from .mesh import MeshError, StripGeometry, build_slider_mesh
from .model import ThermoElectricModel
from .morphing import SHAPE_PARAMETERS, morph
from .physics import PAD_SIGMA0, Materials, ParameterError
from . import scalars as sc


class ConfigError(ValueError):
    pass


@dataclass
class RunSection:
    """Analysis mode and output destination."""

    mode: str = "solve"            # solve | continuation | optimize | uq | verify
    output_dir: str = "out"

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of "
                              f"{_MODES}")


@dataclass
class GeometrySection(StripGeometry):
    """Strip dimensions and mesh resolution (defaults: the 16x16 demo)."""

    quad_order: int = 2

    def __post_init__(self):
        if self.quad_order not in (1, 2, 3):
            raise ConfigError(f"geometry.quad_order must be 1, 2, or 3, got "
                              f"{self.quad_order}")


@dataclass
class MaterialsSection(Materials):
    """Region constants; the pad conductivity is [parameters] PadSigma0."""

    joule: bool = True


@dataclass
class ContinuationSection:
    """Uniform sweep of deflection or a registered parameter; Newton per step."""

    parameter: str = "deflection"
    start: float = -0.3
    stop: float = 0.3
    steps: int = 21

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError(f"continuation.steps must be >= 1, got "
                              f"{self.steps}")
        if not np.isfinite([self.start, self.stop]).all():
            raise ConfigError(f"continuation.start and stop must be finite, "
                              f"got {self.start} and {self.stop}")


@dataclass
class OptimizeSection:
    """L-BFGS-B shape optimization; start: deflection or top, bottom."""

    start: str = "0.15"
    lower: float = -0.3
    upper: float = 0.3
    tol: float = 1e-6
    max_iters: int = 40

    def __post_init__(self):
        # the float comparisons are written so that NaN fails them
        if not self.lower < self.upper:
            raise ValueError(f"lower ({self.lower}) must be below upper "
                             f"({self.upper})")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        self.p0 = np.array(_floats(self.start, "optimize.start"))
        if self.p0.size not in SHAPE_PARAMETERS:
            raise ValueError(f"start has {self.p0.size} values; one sets the "
                             "deflection, two the top and bottom deflections")
        self.shape_parameters = SHAPE_PARAMETERS[self.p0.size]


@dataclass
class UqSection:
    """Intrusive spectral solve with its non-intrusive verification oracle."""

    parameter: str = "PadSigma0"
    expansion: str = "35.0, 15.0"
    degree: int = 3
    nisp_order: int = 6

    def __post_init__(self):
        if self.degree < 0:
            raise ConfigError(f"uq.degree must be >= 0, got {self.degree}")
        if self.nisp_order < 1:
            raise ConfigError(f"uq.nisp_order must be >= 1, got "
                              f"{self.nisp_order}")
        self.coefficients = _floats(self.expansion, "uq.expansion")
        count = len(self.coefficients)
        if count > self.degree + 1:
            raise ConfigError(f"uq.expansion has {count} coefficients, more "
                              f"than the {self.degree + 1} of a "
                              f"degree-{self.degree} basis")
        low = _minimum_on_unit_interval(self.coefficients)
        if self.parameter == "PadSigma0" and not low > 0.0:
            raise ConfigError(f"uq.expansion of PadSigma0 reaches {low:g} on "
                              "[-1, 1]; a conductivity must be positive")


_SECTION_CLASSES = {
    "run": RunSection,
    "geometry": GeometrySection,
    "materials": MaterialsSection,
    "solver": NewtonConfig,
    "continuation": ContinuationSection,
    "optimize": OptimizeSection,
    "uq": UqSection,
}

#: free-form sections: Dirichlet values keyed "unknown.node_set" and model
#: parameter values keyed by registered name
_DEFAULT_BOUNDARY = {
    "psi.left_conductor_end": 0.0,
    "psi.symmetry_plane": 0.5,
    "temp.left_conductor_end": 0.0,
}
_DEFAULT_PARAMETERS = {"Alpha": 0.0, "Beta": 0.0, "PadSigma0": PAD_SIGMA0}

_MODES = ("solve", "continuation", "optimize", "uq", "verify")
_MODE_SECTIONS = ("continuation", "optimize", "uq")   # each needs its section


@dataclass
class RunConfig:
    run: RunSection = field(default_factory=RunSection)
    geometry: GeometrySection = field(default_factory=GeometrySection)
    materials: MaterialsSection = field(default_factory=MaterialsSection)
    solver: NewtonConfig = field(default_factory=NewtonConfig)
    continuation: ContinuationSection = None
    optimize: OptimizeSection = None
    uq: UqSection = None
    boundary: dict = field(default_factory=lambda: dict(_DEFAULT_BOUNDARY))
    parameters: dict = field(default_factory=lambda: dict(_DEFAULT_PARAMETERS))


def _coerce(raw, to_type, where):
    try:
        if to_type is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
        return to_type(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"cannot parse {where} = {raw!r} as {to_type.__name__}")


def _finite(raw, section, key):
    value = _coerce(raw, float, f"{section}.{key}")
    if not np.isfinite(value):
        raise ConfigError(f"[{section}] {key} must be finite, got {raw!r}")
    return value


def _build_section(name, cls, items):
    """The section built by its own constructor, so its checks see the values."""
    types = {f.name: type(f.default) for f in fields(cls)}
    values = {}
    for key, raw in items:
        if key not in types:
            raise ConfigError(f"unknown key {key!r} in section [{name}]")
        values[key] = _coerce(raw, types[key], f"{name}.{key}")
    try:
        return cls(**values)
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"[{name}] {err}") from None


def parse_config(path, overrides=()):
    """Parse a config file and apply ``section.key=value`` overrides."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # parameter names are case sensitive
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot parse config file {path!r}: "
                          f"{err}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")

    data = {name: list(parser.items(name)) for name in parser.sections()}
    for token in overrides:
        if "=" not in token or "." not in token.split("=", 1)[0]:
            raise ConfigError(f"override {token!r} is not of the form section.key=value")
        target, value = token.split("=", 1)
        section, key = target.split(".", 1)
        data.setdefault(section, []).append((key.strip(), value.strip()))

    known = set(_SECTION_CLASSES) | {"boundary", "parameters"}
    for name in data:
        if name not in known:
            raise ConfigError(f"unknown section [{name}]")

    cfg = RunConfig()
    for name, cls in _SECTION_CLASSES.items():
        if name in data:
            setattr(cfg, name, _build_section(name, cls, data[name]))
    if "boundary" in data:
        cfg.boundary = {k: _finite(v, "boundary", k)
                        for k, v in data["boundary"]}
    if "parameters" in data:
        for k, v in data["parameters"]:
            cfg.parameters[k] = _finite(v, "parameters", k)

    validate_config(cfg)
    return cfg


def validate_config(cfg):
    """The rules that span sections; each section checks its own keys."""
    mode = cfg.run.mode
    if mode in _MODE_SECTIONS and getattr(cfg, mode) is None:
        raise ConfigError(f"mode {mode!r} requires section [{mode}]")
    for key in cfg.boundary:
        parts = key.split(".")
        if len(parts) != 2 or parts[0] not in ("psi", "temp"):
            raise ConfigError(f"boundary key {key!r} is not unknown.node_set")
    pad = cfg.parameters["PadSigma0"]
    if not pad > 0.0:
        raise ConfigError(f"[parameters] PadSigma0 must be positive, got {pad}")
    m, g = cfg.materials, cfg.geometry
    speed = float(np.hypot(m.v0_x, m.v0_y))
    if speed > 0.0 and g.nx_conductor > 0:
        h = g.conductor_length / g.nx_conductor
        peclet = speed * h / (2.0 * m.kappa)
        if 2.0 < peclet < np.inf:   # an infinite length is refused later
            warnings.warn(
                f"element Peclet number {peclet:.2f} exceeds 2; the unstabilized "
                "convective term may oscillate", stacklevel=2)


def _floats(raw, where):
    """A comma- or space-separated list of finite floats, parsed once."""
    try:
        values = tuple(float(t) for t in raw.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"cannot parse {where} = {raw!r} as a list of "
                          "floats") from None
    if not np.isfinite(values).all():
        raise ConfigError(f"{where} must be finite, got {raw!r}")
    return values


def _minimum_on_unit_interval(coeffs):
    """Minimum over [-1, 1] of the Legendre series with P_k(1) = 1 (the chaos
    basis' convention): at an endpoint or a real root of the derivative."""
    series = Legendre(coeffs or [0.0])
    roots = series.deriv().roots()
    xi = np.concatenate(([-1.0, 1.0],
                         np.clip(roots[np.isreal(roots)].real, -1.0, 1.0)))
    return float(np.min(series(xi)))


def config_documentation():
    """Every config key with its default, generated from the dataclasses."""
    lines = []
    for name, cls in _SECTION_CLASSES.items():
        obj = cls()
        lines.append(f"[{name}]  {cls.__doc__.strip()}")
        for f in fields(cls):
            lines.append(f"  {f.name} = {getattr(obj, f.name)}")
        lines.append("")
    lines.append("[boundary]  Dirichlet values keyed unknown.node_set")
    for k, v in _DEFAULT_BOUNDARY.items():
        lines.append(f"  {k} = {v}")
    lines.append("")
    lines.append("[parameters]  model parameter values keyed by registered name")
    for k, v in _DEFAULT_PARAMETERS.items():
        lines.append(f"  {k} = {v}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_dirichlet(cfg, mesh):
    out = []
    for key, value in cfg.boundary.items():
        unknown, set_name = key.split(".", 1)
        if set_name not in mesh.node_sets:
            raise ConfigError(f"boundary set {set_name!r} does not exist in the mesh")
        if len(mesh.node_sets[set_name]) == 0:
            continue
        out.append((set_name, unknown, value))
    return out


def newton_config(cfg):
    """The [solver] section, which is the library's NewtonConfig. The CLI reads
    ``cfg.solver``; this name stays because perfbench/workloads.py calls it."""
    return cfg.solver


def build_model(cfg, sg_basis=None):
    if sg_basis is None and cfg.uq is not None:
        sg_basis = sc.build_basis_data(cfg.uq.degree)
    mesh = build_slider_mesh(cfg.geometry)
    model = ThermoElectricModel(
        mesh, cfg.materials, quad_order=cfg.geometry.quad_order,
        sg_basis=sg_basis, with_joule=cfg.materials.joule,
        dirichlet=build_dirichlet(cfg, mesh))
    for name, value in cfg.parameters.items():
        try:
            model.library.set_value(name, value)
        except ParameterError:
            raise ConfigError(f"parameter {name!r} is not registered by the model")
    names = model.library.names()
    if cfg.uq is not None and cfg.uq.parameter not in names:
        raise ConfigError(f"uq.parameter {cfg.uq.parameter!r} is not registered "
                          "by the model")
    c = cfg.continuation
    if c is not None and c.parameter not in ("deflection", *names):
        raise ConfigError(f"continuation parameter {c.parameter!r} is neither "
                          "'deflection' nor a registered parameter")
    sweeps = cfg.run.mode == "continuation"
    shapes = []   # the first and last shapes a run morphs to
    if cfg.run.mode == "optimize":   # the optimizer clips its start
        o = cfg.optimize
        shapes = [np.clip(o.p0, o.lower, o.upper)]
    elif sweeps and c.parameter == "deflection":
        shapes = [[c.start], [c.stop]]
    for p in shapes:   # without a slider, morph raises a MorphError
        try:
            morph(mesh, p)
        except MeshError as err:
            raise ConfigError(f"[{cfg.run.mode}] shape parameters "
                              f"{', '.join(f'{v:g}' for v in p)} give no "
                              f"valid mesh: {err}") from None
    if sweeps and c.parameter == "PadSigma0" and not min(c.start, c.stop) > 0:
        raise ConfigError(f"continuation of PadSigma0 reaches "
                          f"{min(c.start, c.stop):g}; a conductivity must be "
                          "positive")
    return model


def uncertain_expansion(cfg, basis):
    out = np.zeros(basis.size)
    out[:len(cfg.uq.coefficients)] = cfg.uq.coefficients
    return {cfg.uq.parameter: out}
