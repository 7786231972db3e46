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
from .mesh import GeometryParams, Resolution, build_slider_mesh
from .model import ThermoElectricModel
from .physics import DemoMaterials, ParameterError, default_materials
from . import scalars as sc


class ConfigError(ValueError):
    pass


@dataclass
class RunSection:
    """Analysis mode and output destination."""

    mode: str = "solve"            # solve | continuation | optimize | uq | verify
    output_dir: str = "out"


@dataclass
class GeometrySection(Resolution, GeometryParams):
    """Strip dimensions and mesh resolution (defaults: the 16x16 demo)."""

    quad_order: int = 2


@dataclass
class MaterialsSection(DemoMaterials):
    """Region constants; the pad conductivity is [parameters] PadSigma0."""

    joule: bool = True


@dataclass
class ContinuationSection:
    """Uniform parameter sweep with Newton correction at each step."""

    parameter: str = "deflection"
    start: float = -0.3
    stop: float = 0.3
    steps: int = 21


@dataclass
class OptimizeSection:
    """Projected-BFGS bound-constrained shape/parameter optimization."""

    parameters: str = "deflection"
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
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")


@dataclass
class UqSection:
    """Intrusive spectral solve with its non-intrusive verification oracle."""

    parameter: str = "PadSigma0"
    expansion: str = "35.0, 15.0"
    degree: int = 3
    nisp_order: int = 6


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
_DEFAULT_PARAMETERS = {"Alpha": 0.0, "Beta": 0.0, "PadSigma0": 35.0}

_MODES = ("solve", "continuation", "optimize", "uq", "verify")
_MODE_SECTIONS = {"continuation": "continuation", "optimize": "optimize",
                  "uq": "uq"}


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
    except ValueError as err:
        raise ConfigError(f"[{name}] {err}") from None


def parse_config(path, overrides=()):
    """Parse a config file and apply ``section.key=value`` overrides."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # parameter names are case sensitive
    if not parser.read(path):
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
    if cfg.run.mode not in _MODES:
        raise ConfigError(f"unknown mode {cfg.run.mode!r}; expected one of {_MODES}")
    needed = _MODE_SECTIONS.get(cfg.run.mode)
    if needed and getattr(cfg, needed) is None:
        raise ConfigError(f"mode {cfg.run.mode!r} requires section [{needed}]")
    for key in cfg.boundary:
        parts = key.split(".")
        if len(parts) != 2 or parts[0] not in ("psi", "temp"):
            raise ConfigError(f"boundary key {key!r} is not unknown.node_set")
    if cfg.continuation is not None and cfg.continuation.steps < 1:
        raise ConfigError("continuation.steps must be >= 1, got "
                          f"{cfg.continuation.steps}")
    uq = cfg.uq
    if uq is not None:
        if uq.degree < 0:
            raise ConfigError(f"uq.degree must be >= 0, got {uq.degree}")
        if uq.nisp_order < 1:
            raise ConfigError(f"uq.nisp_order must be >= 1, got {uq.nisp_order}")
        low = _minimum_on_unit_interval(_expansion_coefficients(uq))
        if uq.parameter == "PadSigma0" and not low > 0.0:
            raise ConfigError(f"uq.expansion of PadSigma0 reaches {low:g} on "
                              "[-1, 1]; a conductivity must be positive")
    g = cfg.geometry
    if g.quad_order not in (1, 2, 3):
        raise ConfigError(f"geometry.quad_order must be 1, 2, or 3")
    try:
        build_materials(cfg)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    m = cfg.materials
    speed = float(np.hypot(m.v0_x, m.v0_y))
    if speed > 0.0 and g.nx_conductor > 0:
        h = g.conductor_length / g.nx_conductor
        peclet = speed * h / (2.0 * m.kappa)
        if peclet > 2.0:
            warnings.warn(
                f"element Peclet number {peclet:.2f} exceeds 2; the unstabilized "
                "convective term may oscillate", stacklevel=2)


def _expansion_coefficients(uq):
    try:
        return [float(t) for t in uq.expansion.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"cannot parse uq.expansion = {uq.expansion!r} "
                          "as a list of floats") from None


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

def build_mesh(cfg):
    return build_slider_mesh(cfg.geometry, cfg.geometry)


def build_materials(cfg):
    m = cfg.materials
    return default_materials(
        cfg.parameters["PadSigma0"],
        **{f.name: getattr(m, f.name) for f in fields(DemoMaterials)})


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
    """The [solver] section, which is the library's NewtonConfig."""
    return cfg.solver


def build_model(cfg, sg_basis=None):
    if sg_basis is None and cfg.uq is not None:
        sg_basis = sc.build_basis_data(cfg.uq.degree)
    mesh = build_mesh(cfg)
    model = ThermoElectricModel(
        mesh, build_materials(cfg), quad_order=cfg.geometry.quad_order,
        sg_basis=sg_basis, with_joule=cfg.materials.joule,
        dirichlet=build_dirichlet(cfg, mesh))
    for name, value in cfg.parameters.items():
        try:
            model.library.set_value(name, value)
        except ParameterError:
            raise ConfigError(f"parameter {name!r} is not registered by the model")
    if cfg.uq is not None and cfg.uq.parameter not in model.library.names():
        raise ConfigError(f"uq.parameter {cfg.uq.parameter!r} is not registered "
                          "by the model")
    return model


def uncertain_expansion(cfg, basis):
    coeffs = _expansion_coefficients(cfg.uq)
    if len(coeffs) > basis.size:
        raise ConfigError("uncertain expansion longer than the basis")
    out = np.zeros(basis.size)
    out[:len(coeffs)] = coeffs
    return {cfg.uq.parameter: out}
