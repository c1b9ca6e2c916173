"""Benchmark workloads: seeded inputs, timed operations, output checks.

Each workload draws its inputs from the seed in ``__init__`` and resolves
them in ``setup`` (what a fresh process pays before its first result).
``ops(index)`` lists the user-visible operations of one iteration as
``(name, run, check)``: the benchmark times and, when tracing, traces
``run()`` alone, then passes its result to ``check``, which returns a
failure reason or None.  See WORKLOADS.md for why each workload exists and
which layers it stresses and bypasses.
"""

from __future__ import annotations

import hashlib
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import frontlab.dynamics as dynamics
import frontlab.habitat as habitat
import frontlab.kernels as kernels
import frontlab.observers as observers
import frontlab.speeds as speeds
import frontlab.subsolution as subsolution
from frontlab.harness import config as hconfig
from frontlab.harness import runner

# Model constants shared by band and theory (the acceptance parameter set).
_PARAMS_TEXT = """params.d1 = 1.0
params.d2 = 1.0
params.r1 = 0.5
params.r2 = 0.4
params.a = 0.5
params.b = 1.5
"""

# The acceptance persistence-band scenario: 2401 points, t_final 520.
_BAND_TEXT = """habitat.family = logistic
habitat.A = 0.5
habitat.L = 2.0
grid.x_min = -40.0
grid.x_max = 260.0
grid.dx = 0.125
initial.u_center = 0.0
initial.u_half_width = 12.0
initial.u_height = 0.8
initial.v_center = 0.0
initial.v_half_width = 10.0
initial.v_height = 0.25
band.epsilon = 0.01
"""

BUNDLE_FILES = ("config_echo.txt", "speeds.csv", "hypotheses.csv", "snapshots.csv",
                "level_sets_u.csv", "level_sets_v.csv", "persistence.csv")

TILT_TOL = 1e-8


@dataclass
class Op:
    """One user-visible operation of an iteration."""

    name: str
    seconds: float
    failure: str | None = None


@dataclass
class IterationFacts:
    """Deterministic facts of one iteration, used by per-layer metrics."""

    bundle_bytes: dict = field(default_factory=dict)
    cell_steps: int = 0
    front_speed_relerr: float = 0.0


def _fmt_g(value: float) -> str:
    return f"{value:.17g}"


def _s_underline(text: str) -> float:
    cfg = hconfig.parse_config_text(text)
    return cfg.speeds.s_underline


class Band:
    """``run_experiment`` on the acceptance band config, full bundle each time."""

    def __init__(self, seed: int, work: Path, t_final: float = 520.0):
        self.frac = random.Random(seed).uniform(0.4, 0.6)
        self.work = work
        self.t_final = t_final
        self.digest: dict | None = None
        self.facts = IterationFacts()

    def setup(self) -> None:
        s_under = _s_underline(_PARAMS_TEXT)
        self.text = (_PARAMS_TEXT + _BAND_TEXT
                     + f"params.s = {_fmt_g(self.frac * s_under)}\n"
                     + f"solver.t_final = {_fmt_g(self.t_final)}\n")
        cfg = hconfig.parse_config_text(self.text)
        self.s_star = cfg.speeds.s_star
        self.size = (f"{cfg.grid.n} points, t_final {self.t_final:g}, "
                     f"dt {cfg.dt:.4g}, snapshot stride {cfg.snapshot_stride}")

    def ops(self, index: int) -> list:
        out = self.work / f"band-{index}"

        def run():
            return runner.run_experiment(hconfig.parse_config_text(self.text), out_dir=out)

        def check(result):
            try:
                return self._check(result, out)
            finally:
                shutil.rmtree(out, ignore_errors=True)
        return [("run_experiment", run, check)]

    def _check(self, result, out: Path) -> str | None:
        problems = []
        for rep in (result.u_report, result.v_report):
            if rep is None or rep.verdict != "persists":
                problems.append(f"{getattr(rep, 'species', '?')} verdict "
                                f"{getattr(rep, 'verdict', None)}")
            elif not rep.band_min >= rep.epsilon:
                problems.append(f"{rep.species} band_min {rep.band_min:g} < {rep.epsilon:g}")
        diag = result.trajectory.diagnostics
        if not diag["h_invariant_ok"]:
            problems.append("invariant box violated")
        digest, sizes = {}, {}
        for name in BUNDLE_FILES:
            data = (out / name).read_bytes()
            digest[name] = hashlib.sha256(data).hexdigest()
            sizes[Path(name).stem] = len(data)
        if self.digest is not None and digest != self.digest:
            changed = [n for n in BUNDLE_FILES if digest[n] != self.digest[n]]
            problems.append("bundle differs from the previous iteration: " + ",".join(changed))
        self.digest = digest
        est = observers.estimate_speed(result.u_series, result.config.window_fraction)
        self.facts = IterationFacts(
            bundle_bytes=sizes,
            cell_steps=diag["n_steps"] * result.trajectory.grid.n,
            front_speed_relerr=abs(est.speed - self.s_star) / self.s_star)
        return "; ".join(problems) or None


class Kpp:
    """The criterion-3/4 scalar invasion: simulate plus the front observers."""

    def __init__(self, seed: int, work: Path, t_final: float = 400.0,
                 x_max: float = 560.0):
        rng = random.Random(seed)
        self.bump = (rng.uniform(-0.5, 0.5), rng.uniform(1.8, 2.2), rng.uniform(0.45, 0.55))
        self.t_final = t_final
        self.x_max = x_max
        self.facts = IterationFacts()

    def setup(self) -> None:
        self.params = dynamics.Params(d1=1.0, d2=1.0, r1=1.0, r2=0.4, a=0.5, b=1.5, s=0.0)
        self.profile = habitat.constant_one()
        self.kernel = kernels.raised_cosine(1.0)
        self.grid = dynamics.grid_from_spacing(-40.0, self.x_max, 1.0 / 16.0)
        self.dt = dynamics.dt_max(self.params, self.profile.alpha_bar)
        self.s_star = speeds.min_speed(
            speeds.SpeedProblem(d=1.0, r=1.0, k=1.0, kernel=self.kernel)).speed
        self.size = f"{self.grid.n} points, t_final {self.t_final:g}, dt {self.dt:.4g}"

    def ops(self, index: int) -> list:
        def run():
            init = dynamics.make_initial(dynamics.BumpSpec(*self.bump),
                                         dynamics.BumpSpec(0.0, 2.0, 0.0),
                                         self.grid, self.params)
            traj = dynamics.simulate(self.params, self.profile, self.kernel, self.kernel,
                                     self.grid, init, dt=self.dt, t_final=self.t_final,
                                     snapshot_stride=44, boundary_monitor="right")
            series = observers.level_set_series(traj, 0.1, "u", "right")
            est = observers.estimate_speed(series, 0.5)
            _, sups = observers.decay_sup(traj, 1.2 * self.s_star, "u")
            return traj, est, sups

        return [("simulate", run, self._check)]

    def _check(self, result) -> str | None:
        traj, est, sups = result
        relerr = abs(est.speed - self.s_star) / self.s_star
        problems = []
        if not relerr <= 0.03:
            problems.append(f"front speed rel err {relerr:.3%} > 3%")
        if not float(sups[-1]) < 1e-3:
            problems.append(f"decay sup {float(sups[-1]):.3e} >= 1e-3")
        if not traj.diagnostics["h_invariant_ok"]:
            problems.append("invariant box violated")
        self.facts = IterationFacts(cell_steps=traj.diagnostics["n_steps"] * self.grid.n,
                                    front_speed_relerr=relerr)
        return "; ".join(problems) or None


def theory_text(family: str, s: float, table: Path | None = None) -> str:
    text = (_PARAMS_TEXT + f"params.s = {_fmt_g(s)}\n"
            + f"kernel1.family = {family}\nkernel2.family = {family}\n")
    if table is not None:
        text += f"kernel1.file = {table}\nkernel2.file = {table}\n"
    return text


def verify_subsolution_cli(text: str):
    """What ``frontlab verify-subsolution`` does with a config file's text."""
    cfg = hconfig.parse_config_text(text)
    vals = cfg.values
    amplitude, window = vals["subsolution.amplitude"], vals["subsolution.window"]
    p = subsolution.construct_subsolution(
        cfg.params, vals["subsolution.c"],
        predator_level=vals["subsolution.delta1"], prey_level=vals["subsolution.delta2"],
        rate_offset=vals["subsolution.rate_offset"],
        amplitude=None if amplitude == "auto" else amplitude, kernel=cfg.kernel1,
        window=None if window == "auto" else window, t_check=vals["subsolution.t_check"])
    return subsolution.verify_subsolution(
        p, cfg.params, cfg.kernel1, n_space=vals["subsolution.n_space"],
        n_time=vals["subsolution.n_time"], t_check=vals["subsolution.t_check"])


def check_report(report) -> str | None:
    problems = []
    if not report.ok:
        problems.append("report not ok: " + ",".join(report.failures))
    if not report.tilt_residual <= TILT_TOL:
        problems.append(f"tilt residual {report.tilt_residual:.3e} > {TILT_TOL:g}")
    return "; ".join(problems) or None


def write_table(path: Path, samples: int = 201) -> Path:
    """A raised-cosine kernel sampled at ``samples`` points, as a kernel file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["# raised cosine, radius 1"]
    for i in range(samples):
        x = -1.0 + 2.0 * i / (samples - 1)
        d = 0.0 if i in (0, samples - 1) else 0.5 * (1.0 + math.cos(math.pi * x))
        lines.append(f"{x!r} {d!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class Theory:
    """Parse, construct and verify the sub-solution per kernel family."""

    families = ("raised_cosine", "smooth_bump")

    def __init__(self, seed: int, work: Path, families=None):
        rng = random.Random(seed)
        self.fracs = sorted(rng.uniform(0.3, 0.7) for _ in range(2))
        if families is not None:
            self.families = tuple(families)
        self.facts = IterationFacts()

    def setup(self) -> None:
        self.texts = []
        for family in self.families:
            s_under = _s_underline(theory_text(family, 0.0))
            for frac in self.fracs:
                self.texts.append((f"{family}@{frac:.3f}",
                                   theory_text(family, frac * s_under)))
        self.size = (f"{len(self.families)} kernel families x {len(self.fracs)} shift "
                     f"fractions ({', '.join(f'{f:.3f}' for f in self.fracs)}) of s_underline")

    def ops(self, index: int) -> list:
        return [(name, lambda text=text: verify_subsolution_cli(text), check_report)
                for name, text in self.texts]


WORKLOADS = {"band": Band, "kpp": Kpp, "theory": Theory}


class TabulatedProbe:
    """Known-defect probe: verify-subsolution with a tabulated kernel file.

    The benchmark runs it once per run, outside the timed loop.  Today
    ``verify_subsolution`` raises NumericFailureError ("window convolution
    quadrature failed") for this kernel; the probe reports that on every
    run instead of hiding it.
    """

    fracs = (0.4, 0.6)

    def __init__(self, work: Path):
        self.work = work

    def setup(self) -> None:
        table = write_table(self.work / "raised_cosine_201.txt").resolve()
        s_under = _s_underline(theory_text("tabulated", 0.0, table))
        self.texts = [(f"tabulated@{frac:.3f}", theory_text("tabulated", frac * s_under, table))
                      for frac in self.fracs]

    ops = Theory.ops
