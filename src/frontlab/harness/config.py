"""Line-oriented experiment configuration.

Format: one ``section.key = value`` per line, ``#`` comments, blank lines
ignored.  Every default is resolved at parse time and recorded in the
echo, so parsing an echoed config reproduces the validated configuration
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .. import habitat as habitat_mod
from ..dynamics import BumpSpec, Grid, Params, dt_max, grid_from_spacing
from ..errors import ConfigError
from ..habitat import HabitatProfile, HabitatValidation
from ..hypotheses import HypothesisReport, check_hypotheses
from ..kernels import (Kernel, load_tabulated, raised_cosine, smooth_bump)
from ..observers import FrameBandSpec, ahead_band, theorem_band
from ..speeds import SystemSpeeds, prey_speed
from .csvio import fmt

# key -> type tag; "afloat" accepts a float or the literal "auto".
_SCHEMA: dict[str, str] = {
    "params.d1": "float", "params.d2": "float",
    "params.r1": "float", "params.r2": "float",
    "params.a": "float", "params.b": "float", "params.s": "float",
    "kernel1.family": "str", "kernel1.radius": "float", "kernel1.file": "str",
    "kernel2.family": "str", "kernel2.radius": "float", "kernel2.file": "str",
    "habitat.family": "str", "habitat.A": "float", "habitat.L": "float",
    "grid.x_min": "afloat", "grid.x_max": "afloat",
    "grid.dx": "afloat", "grid.margin": "afloat",
    "initial.u_center": "float", "initial.u_half_width": "float",
    "initial.u_height": "float",
    "initial.v_center": "float", "initial.v_half_width": "float",
    "initial.v_height": "afloat",
    "solver.dt": "afloat", "solver.t_final": "float",
    "solver.snapshot_stride": "aint", "solver.boundary_monitor": "str",
    "band.eta": "afloat", "band.epsilon": "float",
    "band.t_window": "float", "band.two_sided": "bool", "band.mode": "str",
    "observer.theta": "float", "observer.window_fraction": "float",
    "observer.side": "str",
    "subsolution.c": "afloat", "subsolution.delta1": "float",
    "subsolution.delta2": "float", "subsolution.rate_offset": "float",
    "subsolution.amplitude": "afloat", "subsolution.window": "afloat",
    "subsolution.t_check": "float",
    "subsolution.n_space": "int", "subsolution.n_time": "int",
}

_REQUIRED = ("params.d1", "params.d2", "params.r1", "params.r2",
             "params.a", "params.b")

# Fixed echo order; every key appears exactly once.
_ECHO_ORDER = list(_SCHEMA)

_SWEEP_AXES = {
    "s": "params.s", "a": "params.a", "b": "params.b",
    "d1": "params.d1", "d2": "params.d2", "eta": "band.eta",
}


def _parse_value(key: str, raw: str):
    kind = _SCHEMA[key]
    raw = raw.strip()
    try:
        if kind == "float":
            return float(raw)
        if kind == "int":
            return int(raw)
        if kind in ("afloat", "aint"):
            if raw == "auto":
                return "auto"
            return float(raw) if kind == "afloat" else int(raw)
        if kind == "bool":
            if raw in ("true", "false"):
                return raw == "true"
            raise ValueError(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


@dataclass
class ExperimentConfig:
    """A fully resolved experiment description.

    ``values`` is the flat resolved key/value map (echo source);
    ``raw_text`` keeps the pre-resolution text so sweeps can override an
    axis and re-resolve dependent defaults.
    """

    values: dict
    raw_text: str
    params: Params
    kernel1: Kernel
    kernel2: Kernel
    profile: HabitatProfile
    habitat_validation: HabitatValidation
    speeds: SystemSpeeds | None
    grid: Grid
    u_spec: BumpSpec
    v_spec: BumpSpec
    dt: float
    t_final: float
    snapshot_stride: int
    boundary_monitor: str
    band: FrameBandSpec | None
    theta: float
    window_fraction: float
    side: str
    hypotheses: HypothesisReport | None = field(repr=False, default=None)


def _build_kernel(values: dict, prefix: str) -> Kernel:
    family = values[f"{prefix}.family"]
    if family == "raised_cosine":
        return raised_cosine(values[f"{prefix}.radius"])
    if family == "smooth_bump":
        return smooth_bump(values[f"{prefix}.radius"])
    if family == "tabulated":
        path = values[f"{prefix}.file"]
        if not path:
            raise ConfigError(f"{prefix}.file is required for a tabulated kernel")
        return load_tabulated(path)
    raise ConfigError(f"unknown kernel family for {prefix}: {family!r}")


def _build_profile(values: dict) -> HabitatProfile:
    family = values["habitat.family"]
    if family == "logistic":
        return habitat_mod.logistic(values["habitat.A"], values["habitat.L"])
    if family == "piecewise_linear":
        return habitat_mod.piecewise_linear(values["habitat.A"], values["habitat.L"])
    if family == "constant_one":
        return habitat_mod.constant_one()
    raise ConfigError(f"unknown habitat family: {family!r}")


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse, fill defaults, validate, and build all model objects."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"unknown configuration key: {key!r}")
        values[key] = _parse_value(key, rhs)

    for key in _REQUIRED:
        if key not in values:
            raise ConfigError(f"missing required key: {key}")

    # Section defaults that need no model information.
    values.setdefault("params.s", 0.0)
    values.setdefault("kernel1.family", "raised_cosine")
    values.setdefault("kernel1.radius", 1.0)
    values.setdefault("kernel1.file", "")
    values.setdefault("kernel2.family", "raised_cosine")
    values.setdefault("kernel2.radius", 1.0)
    values.setdefault("kernel2.file", "")
    values.setdefault("habitat.family", "logistic")
    values.setdefault("habitat.A", 0.5)
    values.setdefault("habitat.L", 2.0)
    values.setdefault("grid.x_min", "auto")
    values.setdefault("grid.x_max", "auto")
    values.setdefault("grid.dx", "auto")
    values.setdefault("grid.margin", "auto")
    values.setdefault("solver.t_final", 100.0)
    values.setdefault("solver.dt", "auto")
    values.setdefault("solver.snapshot_stride", "auto")
    values.setdefault("solver.boundary_monitor", "both")
    values.setdefault("band.eta", "auto")
    values.setdefault("band.epsilon", 1e-2)
    values.setdefault("band.t_window", 0.5)
    values.setdefault("band.two_sided", False)
    values.setdefault("band.mode", "auto")
    values.setdefault("observer.theta", 0.1)
    values.setdefault("observer.window_fraction", 0.5)
    values.setdefault("observer.side", "right")
    values.setdefault("initial.u_center", 0.0)
    values.setdefault("initial.u_half_width", 5.0)
    values.setdefault("initial.u_height", 0.5)
    values.setdefault("initial.v_center", 0.0)
    values.setdefault("initial.v_half_width", 5.0)
    values.setdefault("initial.v_height", "auto")
    values.setdefault("subsolution.delta1", 0.05)
    values.setdefault("subsolution.delta2", 0.05)
    values.setdefault("subsolution.rate_offset", 0.01)
    values.setdefault("subsolution.amplitude", "auto")
    values.setdefault("subsolution.window", "auto")
    values.setdefault("subsolution.c", "auto")
    values.setdefault("subsolution.t_check", 10.0)
    values.setdefault("subsolution.n_space", 512)
    values.setdefault("subsolution.n_time", 64)
    for key, ok, need in (
            ("observer.theta", 0.0 < values["observer.theta"] < 1.0, "in (0, 1)"),
            ("observer.side", values["observer.side"] in ("left", "right"), "left or right"),
            ("observer.window_fraction", 0.0 < values["observer.window_fraction"] <= 1.0,
             "in (0, 1]"),
            ("subsolution.n_space", values["subsolution.n_space"] >= 1, ">= 1"),
            ("subsolution.n_time", values["subsolution.n_time"] >= 1, ">= 1"),
            ("initial.u_half_width", values["initial.u_half_width"] > 0.0, "positive"),
            ("initial.v_half_width", values["initial.v_half_width"] > 0.0, "positive"),
            ("solver.t_final", values["solver.t_final"] > 0.0, "positive"),
            ("solver.boundary_monitor", values["solver.boundary_monitor"] in
             ("both", "left", "right", "none"), "both/left/right/none"),
            ("band.mode", values["band.mode"] in ("auto", "theorem", "ahead", "none"),
             "auto/theorem/ahead/none")):
        if not ok:
            raise ConfigError(f"{key} must be {need}, got {fmt(values[key])}")

    try:
        params = Params(d1=values["params.d1"], d2=values["params.d2"],
                        r1=values["params.r1"], r2=values["params.r2"],
                        a=values["params.a"], b=values["params.b"],
                        s=values["params.s"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    kernel1 = _build_kernel(values, "kernel1")
    kernel2 = _build_kernel(values, "kernel2")
    profile = _build_profile(values)
    hval = habitat_mod.validate(profile)

    hypotheses = check_hypotheses(params, profile, kernel1, kernel2, habitat_validation=hval)
    sp = hypotheses.speeds

    if values["initial.v_height"] == "auto":
        values["initial.v_height"] = min(0.25, max(params.b - 1.0, 0.0) / 2.0)
    u_spec = BumpSpec(values["initial.u_center"], values["initial.u_half_width"],
                      values["initial.u_height"])
    v_spec = BumpSpec(values["initial.v_center"], values["initial.v_half_width"],
                      values["initial.v_height"])

    # Grid defaults: spacing from the kernels, horizon from the speeds.
    r_min = min(kernel1.support_radius, kernel2.support_radius)
    halo = max(kernel1.support_radius, kernel2.support_radius)
    if values["grid.dx"] == "auto":
        values["grid.dx"] = r_min / 16.0
    dx = values["grid.dx"]
    if dx > r_min / 8.0 * (1.0 + 1e-12):
        raise ConfigError(
            f"grid.dx={dx:g} too coarse: the resolution floor is min kernel radius / 8 = {r_min / 8.0:g}")

    t_final = values["solver.t_final"]
    if sp is not None:
        fast = max(sp.s_star, sp.s_lower_star, params.s)
        base_speed = sp.s_underline
    else:
        fast = max(prey_speed(params, kernel1).speed, params.s)
        base_speed = fast
    if values["grid.margin"] == "auto":
        values["grid.margin"] = fast - base_speed + 0.05
    margin = values["grid.margin"]
    support_lo = min(u_spec.center - u_spec.half_width, v_spec.center - v_spec.half_width)
    support_hi = max(u_spec.center + u_spec.half_width, v_spec.center + v_spec.half_width)
    required_x_max = support_hi + halo + (base_speed + margin) * t_final + 10.0
    required_x_min = support_lo - halo - 5.0
    if values["grid.x_max"] == "auto":
        values["grid.x_max"] = required_x_max
    if values["grid.x_min"] == "auto":
        values["grid.x_min"] = required_x_min
    if values["grid.x_max"] < required_x_max - 1e-9:
        raise ConfigError(
            f"grid.x_max={values['grid.x_max']:g} too small for the horizon: "
            f"need x_max >= {required_x_max:.6g}")
    if values["grid.x_min"] > required_x_min + 1e-9:
        raise ConfigError(
            f"grid.x_min={values['grid.x_min']:g} too large: need x_min <= {required_x_min:.6g}")
    grid = grid_from_spacing(values["grid.x_min"], values["grid.x_max"], dx)

    cap = dt_max(params, hval.alpha_bar)
    if values["solver.dt"] == "auto":
        values["solver.dt"] = cap
    dt = values["solver.dt"]
    if dt > cap * (1.0 + 1e-12):
        raise ConfigError(f"solver.dt={dt:g} exceeds the stability bound dt_max={cap:.6g}")
    if not dt > 0.0:
        raise ConfigError("solver.dt must be positive")
    n_steps = max(1, int(math.ceil(t_final / dt - 1e-9)))
    if values["solver.snapshot_stride"] == "auto":
        values["solver.snapshot_stride"] = max(1, n_steps // 200)
    stride = values["solver.snapshot_stride"]
    if stride < 1:
        raise ConfigError("solver.snapshot_stride must be a positive integer")
    monitor = values["solver.boundary_monitor"]

    # Frame band: theorem band between s and the slower speed when it
    # exists, probe band ahead of the front otherwise.
    band: FrameBandSpec | None = None
    mode = values["band.mode"]
    if sp is not None and mode != "none":
        s_under = sp.s_underline
        gap = s_under - params.s
        if values["band.eta"] == "auto":
            values["band.eta"] = 0.1 * gap if gap > 0.0 else 0.1 * s_under
        eta = values["band.eta"]
        epsilon = values["band.epsilon"]
        t_window = values["band.t_window"]
        two_sided = values["band.two_sided"]
        if mode == "theorem" or (mode == "auto" and 0.0 < eta < gap / 2.0):
            band = theorem_band(params.s, s_under, eta, epsilon, t_window, two_sided)
        elif mode == "ahead" or mode == "auto":
            band = ahead_band(s_under, eta, epsilon, t_window, two_sided)
    # With b <= 1 there is no slower-species speed: band keys stay "auto".

    if values["subsolution.c"] == "auto" and sp is not None:
        values["subsolution.c"] = 0.5 * (params.s + sp.s_underline)

    cfg = ExperimentConfig(
        values=values, raw_text=text, params=params, kernel1=kernel1, kernel2=kernel2,
        profile=profile, habitat_validation=hval, speeds=sp, grid=grid,
        u_spec=u_spec, v_spec=v_spec, dt=dt, t_final=t_final,
        snapshot_stride=stride, boundary_monitor=monitor, band=band,
        theta=values["observer.theta"], window_fraction=values["observer.window_fraction"],
        side=values["observer.side"], hypotheses=hypotheses,
    )
    return cfg


def parse_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text(encoding="utf-8"))


def echo_config(cfg: ExperimentConfig) -> str:
    """Serialize the resolved configuration; parsing it back is identity."""
    lines = ["# resolved experiment configuration (all defaults explicit)"]
    section = None
    for key in _ECHO_ORDER:
        if key not in cfg.values:
            continue
        sec = key.split(".", 1)[0]
        if sec != section:
            lines.append("")
            lines.append(f"# [{sec}]")
            section = sec
        lines.append(f"{key} = {fmt(cfg.values[key])}")
    return "\n".join(lines) + "\n"


def override_config_text(text: str, key: str, value) -> str:
    """Replace (or append) one key in raw config text."""
    if key not in _SCHEMA:
        raise ConfigError(f"unknown configuration key: {key!r}")
    out = []
    replaced = False
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped and "=" in stripped:
            k = stripped.partition("=")[0].strip()
            if k == key:
                out.append(f"{key} = {fmt(value)}")
                replaced = True
                continue
        out.append(raw)
    if not replaced:
        out.append(f"{key} = {fmt(value)}")
    return "\n".join(out) + "\n"


def sweep_axis_key(axis: str) -> str:
    if axis not in _SWEEP_AXES:
        raise ConfigError(
            f"axis {axis!r} is not sweepable; choose one of {sorted(_SWEEP_AXES)}")
    return _SWEEP_AXES[axis]
