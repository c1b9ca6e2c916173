"""Line-oriented experiment configuration.

Format: one ``section.key = value`` per line, ``#`` comments, blank lines
ignored.  Every default is resolved at parse time and recorded in the
echo, so parsing an echoed config reproduces the validated configuration
bit for bit.

The speeds record holds for every ``b``; its predator speeds are NaN
when ``b <= 1``.  Each species has a band speed ``c``: ``s_underline``
for the predator (NaN when ``b <= 1``), and for the prey ``s_underline``
while ``s < s_underline`` and ``s*`` otherwise.  A species with ``s < c``
reads the frame band ``[(s+eta)t, (c-eta)t]``, so while both can persist
they share the paper's band; one with ``s >= c`` has no band, and its
row tests extinction.  The auto ``band.eta`` is ``0.1*(c - s)``, ``c``
the prey's band speed, and an explicit one must lie in ``(0, (c -
s)/2)``, an empty interval when ``s >= s*``.  The auto
``subsolution.c`` is ``(s + s_underline)/2`` when ``b > 1`` and ``s <
s_underline``, else "auto"; an explicit one must exceed ``s``.  An
explicit ``subsolution.window`` must exceed half of ``kernel1``'s support
radius, the kernel the sub-solution is built on.
The auto ``grid.x_max`` is ``max(support_hi, 0) + halo + c * t_final +
10``, ``c = max(s*, s) + 0.05`` with ``s*`` the prey's speed, so every
band ends inside it.  The auto ``grid.x_min`` mirrors it,
``min(support_lo, 0) - halo - 5``, when the habitat's left limit is
unfavorable: the prey's left front spreads back only to about the
habitat edge ``x = s t``.  A favorable left limit lets the fronts spread
left too, and gives ``support_lo - halo - c * t_final - 10``.
``support_lo``/``support_hi`` bound the initial data.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

from .. import habitat as habitat_mod
from ..dynamics import BumpSpec, Grid, Params, dt_max, grid_from_spacing, step_count
from ..errors import ConfigError, InvalidKernelError
from ..habitat import HabitatProfile
from ..hypotheses import HypothesisReport, check_hypotheses
from ..kernels import Kernel, load_tabulated, raised_cosine, smooth_bump
from ..observers import FrameBandSpec, theorem_band
from ..speeds import SystemSpeeds
from .csvio import fmt

_POSITIVE = ("positive and finite", lambda x: 0.0 < x < math.inf)
_NONNEGATIVE = ("nonnegative and finite", lambda x: 0.0 <= x < math.inf)
_FINITE = ("finite", math.isfinite)
_FRACTION = ("in (0, 1]", lambda x: 0.0 < x <= 1.0)
_COUNT = ("an integer >= 1", lambda n: n >= 1)
_ANY = ("any value", lambda v: True)


def _one_of(*choices: str) -> tuple:
    return "one of " + "/".join(choices), lambda v: v in choices


_KERNEL_FAMILY = _one_of("raised_cosine", "smooth_bump", "tabulated")

# key -> (kind, default, need, ok), in echo order.  A default of None marks
# a required key; ``ok`` checks every value the user gives except "auto",
# and ``need`` says what it requires.  Kinds "afloat" and "aint" accept a
# number or the literal "auto", which parsing resolves.
_KEYS: dict[str, tuple] = {
    "params.d1": ("float", None, *_POSITIVE),
    "params.d2": ("float", None, *_POSITIVE),
    "params.r1": ("float", None, *_POSITIVE),
    "params.r2": ("float", None, *_POSITIVE),
    "params.a": ("float", None, *_POSITIVE),
    "params.b": ("float", None, *_POSITIVE),
    "params.s": ("float", 0.0, *_NONNEGATIVE),
    "kernel1.family": ("str", "raised_cosine", *_KERNEL_FAMILY),
    "kernel1.radius": ("float", 1.0, *_POSITIVE),
    "kernel1.file": ("str", "", *_ANY),
    "kernel2.family": ("str", "raised_cosine", *_KERNEL_FAMILY),
    "kernel2.radius": ("float", 1.0, *_POSITIVE),
    "kernel2.file": ("str", "", *_ANY),
    "habitat.family": ("str", "logistic",
                       *_one_of("logistic", "piecewise_linear", "constant_one")),
    "habitat.A": ("float", 0.5, *_POSITIVE),
    "habitat.L": ("float", 2.0, *_POSITIVE),
    "grid.x_min": ("afloat", "auto", *_FINITE),
    "grid.x_max": ("afloat", "auto", *_FINITE),
    "grid.dx": ("afloat", "auto", *_POSITIVE),
    "initial.u_center": ("float", 0.0, *_FINITE),
    "initial.u_half_width": ("float", 5.0, *_POSITIVE),
    "initial.u_height": ("float", 0.5, "in [0, 1]", lambda x: 0.0 <= x <= 1.0),
    "initial.v_center": ("float", 0.0, *_FINITE),
    "initial.v_half_width": ("float", 5.0, *_POSITIVE),
    "initial.v_height": ("afloat", "auto", *_NONNEGATIVE),
    "solver.dt": ("afloat", "auto", *_POSITIVE),
    "solver.t_final": ("float", 100.0, *_POSITIVE),
    "solver.snapshot_stride": ("aint", "auto", *_COUNT),
    "band.eta": ("afloat", "auto", *_POSITIVE),
    "band.epsilon": ("float", 1e-2, *_POSITIVE),
    "band.t_window": ("float", 0.5, *_FRACTION),
    "observer.theta": ("float", 0.1, "in (0, 1)", lambda x: 0.0 < x < 1.0),
    "observer.window_fraction": ("float", 0.5, *_FRACTION),
    "subsolution.c": ("afloat", "auto", *_POSITIVE),
    "subsolution.delta1": ("float", 0.05, *_POSITIVE),
    "subsolution.delta2": ("float", 0.05, *_POSITIVE),
    "subsolution.rate_offset": ("float", 0.01, *_POSITIVE),
    "subsolution.amplitude": ("afloat", "auto", *_POSITIVE),
    "subsolution.window": ("afloat", "auto", *_POSITIVE),
    "subsolution.t_check": ("float", 10.0, *_POSITIVE),
    "subsolution.n_space": ("int", 512, *_COUNT),
    "subsolution.n_time": ("int", 64, "an integer >= 2", lambda n: n >= 2),
}

# Largest snapshot array (u and v, every snapshot, every grid point) a
# config may ask a run to preallocate.
_MAX_SNAPSHOT_VALUES = 2.0 ** 31

_SWEEP_AXES = {
    "s": "params.s", "a": "params.a", "b": "params.b",
    "d1": "params.d1", "d2": "params.d2", "eta": "band.eta",
}


def _parse_value(key: str, raw: str):
    kind = _KEYS[key][0]
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
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


@dataclass
class ExperimentConfig:
    """A fully resolved experiment description.

    ``values`` is the flat resolved key/value map (echo source);
    ``raw_text`` keeps the pre-resolution text so sweeps can override an
    axis and re-resolve dependent defaults; ``bands`` holds the prey's and
    the predator's frame bands, in that order; ``base_dir`` is the absolute
    directory its relative table paths are read from.
    """

    values: dict
    raw_text: str
    params: Params
    kernel1: Kernel
    kernel2: Kernel
    profile: HabitatProfile
    hypotheses: HypothesisReport
    speeds: SystemSpeeds
    grid: Grid
    u_spec: BumpSpec
    v_spec: BumpSpec
    dt: float
    t_final: float
    snapshot_stride: int
    bands: tuple[FrameBandSpec, FrameBandSpec]
    theta: float
    window_fraction: float
    base_dir: str


def _build_kernel(values: dict, prefix: str, base_dir: str, built: dict) -> Kernel:
    """The kernel ``prefix`` names.  ``built`` holds the kernels already made,
    keyed by family and radius, or by family and resolved table file."""
    family = values[f"{prefix}.family"]
    key = family, values[f"{prefix}.radius"]
    if family == "tabulated":
        if not values[f"{prefix}.file"]:
            raise ConfigError(f"{prefix}.file is required for a tabulated kernel")
        # Stored absolute, so the echo parses from any directory.
        path = values[f"{prefix}.file"] = os.path.normpath(
            os.path.join(base_dir, values[f"{prefix}.file"]))
        key = family, path
        if key not in built:
            if not os.path.isfile(path):
                raise ConfigError(f"{prefix}.file not found: {path}")
            try:
                built[key] = load_tabulated(path)
            except InvalidKernelError as exc:
                raise InvalidKernelError(f"{prefix}.file: {exc}") from None
    elif key not in built:
        built[key] = (raised_cosine if family == "raised_cosine" else smooth_bump)(key[1])
    return built[key]


def _build_profile(values: dict) -> HabitatProfile:
    family = values["habitat.family"]
    if family == "constant_one":
        return habitat_mod.constant_one()
    make = habitat_mod.logistic if family == "logistic" else habitat_mod.piecewise_linear
    return make(values["habitat.A"], values["habitat.L"])


def parse_config_text(text: str, base_dir: str = ".",
                      overrides: dict | None = None) -> ExperimentConfig:
    """Parse, fill defaults, validate, and build all model objects.

    A relative ``kernelN.file`` is read from ``base_dir``.  ``overrides``
    maps keys to values that replace the text's (a sweep's axis value).
    """
    base_dir = os.path.abspath(base_dir)
    given: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown configuration key: {key!r}")
        given[key] = _parse_value(key, rhs)
    given.update(overrides or {})

    values: dict = {}
    for key, (kind, default, need, ok) in _KEYS.items():
        if key not in given:
            if default is None:
                raise ConfigError(f"missing required key: {key}")
            values[key] = default
            continue
        value = values[key] = given[key]
        if not (value == "auto" and kind in ("afloat", "aint")) and not ok(value):
            raise ConfigError(f"{key} must be {need}, got {fmt(value)}")

    params = Params(d1=values["params.d1"], d2=values["params.d2"],
                    r1=values["params.r1"], r2=values["params.r2"],
                    a=values["params.a"], b=values["params.b"], s=values["params.s"])
    built: dict = {}
    kernel1 = _build_kernel(values, "kernel1", base_dir, built)
    kernel2 = _build_kernel(values, "kernel2", base_dir, built)
    profile = _build_profile(values)
    hypotheses = check_hypotheses(params, profile, kernel1, kernel2)
    sp = hypotheses.speeds

    v_cap = params.v_cap
    if values["initial.v_height"] == "auto":
        values["initial.v_height"] = min(0.25, v_cap / 2.0)
    if values["initial.v_height"] > v_cap:
        raise ConfigError(f"initial.v_height={values['initial.v_height']:g} exceeds the "
                          f"predator cap max(b - 1, 0) = {v_cap:g}")
    u_spec = BumpSpec(values["initial.u_center"], values["initial.u_half_width"],
                      values["initial.u_height"])
    v_spec = BumpSpec(values["initial.v_center"], values["initial.v_half_width"],
                      values["initial.v_height"])

    # Frame bands (see the module docstring): each species' band speed c.
    c_v = sp.s_underline
    c_u = c_v if params.s < c_v else sp.s_star
    gap = c_u - params.s
    if values["band.eta"] == "auto" and gap > 0.0:
        values["band.eta"] = 0.1 * gap
    eta = values["band.eta"]  # still "auto" only when neither species has a band
    if eta != "auto" and not 0.0 < eta < gap / 2.0:
        raise ConfigError(f"band.eta={eta:g} must lie in (0, (c - s)/2 = {gap / 2.0:g}), "
                          f"c = {c_u:g} the prey's band speed")
    bands = tuple(theorem_band(params.s, c, eta, values["band.epsilon"], values["band.t_window"])
                  for c in (c_u, c_v))

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
    if values["solver.dt"] == "auto":
        values["solver.dt"] = dt_max(params, profile.alpha_bar)
    dt = values["solver.dt"]
    if not math.isfinite(t_final / dt):
        raise ConfigError(f"solver.t_final={t_final:g} is too long: it overflows the step count "
                          f"at solver.dt={dt:g}")
    n_steps = step_count(t_final, dt)
    if values["solver.snapshot_stride"] == "auto":
        values["solver.snapshot_stride"] = max(1, n_steps // 200)
    stride = values["solver.snapshot_stride"]
    n_snapshots = 1 + (n_steps + stride - 1) // stride  # as simulate allocates them

    # The predator cannot outrun its prey (past the prey's front its growth
    # rate -1 + b*u - v is negative); the wall monitor catches a wrong bound.
    c = max(sp.s_star, params.s) + 0.05
    support_lo = min(u_spec.center - u_spec.half_width, v_spec.center - v_spec.half_width)
    support_hi = max(u_spec.center + u_spec.half_width, v_spec.center + v_spec.half_width)
    required_x_max = max(support_hi, 0.0) + halo + c * t_final + 10.0
    # A favorable left limit (-A > 0) lets the fronts spread left as well.
    required_x_min = (support_lo - halo - c * t_final - 10.0
                      if profile.A < 0.0 else min(support_lo, 0.0) - halo - 5.0)
    if not math.isfinite(required_x_max):
        raise ConfigError(f"solver.t_final={t_final:g} puts the grid horizon at infinity")
    x_max_origin = ""
    if values["grid.x_max"] == "auto":
        values["grid.x_max"] = required_x_max
        x_max_origin = " (auto, from solver.t_final and the speeds)"
    if values["grid.x_min"] == "auto":
        values["grid.x_min"] = required_x_min
    if values["grid.x_max"] < required_x_max - 1e-9:
        raise ConfigError(
            f"grid.x_max={values['grid.x_max']:g} too small for the horizon: "
            f"need x_max >= {required_x_max:.6g}")
    if values["grid.x_min"] > required_x_min + 1e-9:
        raise ConfigError(
            f"grid.x_min={values['grid.x_min']:g} too large: need x_min <= {required_x_min:.6g}")
    n_points = (values["grid.x_max"] - values["grid.x_min"]) / dx + 1.0
    if not 2.0 * n_snapshots * n_points <= _MAX_SNAPSHOT_VALUES:
        raise ConfigError(
            f"grid.x_max={values['grid.x_max']:g}{x_max_origin} and grid.dx={dx:g} give "
            f"{n_points:.4g} grid points; {n_snapshots:.4g} snapshots "
            f"(solver.snapshot_stride={stride:.4g}) of u and v would hold "
            f"{2.0 * n_snapshots * n_points:.4g} values, more than 2**31")
    grid = grid_from_spacing(values["grid.x_min"], values["grid.x_max"], dx)

    # The sub-solution's frame runs ahead of the habitat edge, in (s, s_underline).
    if values["subsolution.c"] == "auto" and params.b > 1.0 and params.s < sp.s_underline:
        values["subsolution.c"] = 0.5 * (params.s + sp.s_underline)
    if values["subsolution.c"] != "auto" and not values["subsolution.c"] > params.s:
        raise ConfigError(f"subsolution.c={values['subsolution.c']:g} must exceed "
                          f"params.s = {params.s:g}: the frame must run ahead of the "
                          f"habitat edge")
    window, half_support = values["subsolution.window"], 0.5 * kernel1.support_radius
    if window != "auto" and not window > half_support:
        raise ConfigError(f"subsolution.window={window:g} must exceed half of kernel1's "
                          f"support radius, {half_support:g}, so dispersal cannot jump "
                          f"across it")

    return ExperimentConfig(
        values=values, raw_text=text, params=params, kernel1=kernel1, kernel2=kernel2,
        profile=profile, hypotheses=hypotheses, speeds=sp, grid=grid,
        u_spec=u_spec, v_spec=v_spec, dt=dt, t_final=t_final,
        snapshot_stride=values["solver.snapshot_stride"],
        bands=bands,
        theta=values["observer.theta"], window_fraction=values["observer.window_fraction"],
        base_dir=base_dir,
    )


def parse_config(path) -> ExperimentConfig:
    """Parse a config file; its table paths are relative to its directory."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text(encoding="utf-8"), base_dir=str(path.parent))


def echo_config(cfg: ExperimentConfig) -> str:
    """Serialize the resolved configuration; parsing it back is identity."""
    lines = ["# resolved experiment configuration (all defaults explicit)"]
    section = None
    for key in _KEYS:
        sec = key.split(".", 1)[0]
        if sec != section:
            lines.append("")
            lines.append(f"# [{sec}]")
            section = sec
        lines.append(f"{key} = {fmt(cfg.values[key])}")
    return "\n".join(lines) + "\n"


def sweep_axis_key(axis: str) -> str:
    if axis not in _SWEEP_AXES:
        raise ConfigError(
            f"axis {axis!r} is not sweepable; choose one of {sorted(_SWEEP_AXES)}")
    return _SWEEP_AXES[axis]
