"""Experiment orchestration: single runs, artifact bundles, and sweeps.

A run is one frozen :class:`ExperimentResult`; every bundle table, sweep
row and CLI print is built from it by the one row function of its file.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from ..dynamics import Trajectory, make_initial, simulate
from ..observers import (LevelSetSeries, PersistenceReport, frame_band_min,
                         level_set_series)
from .config import ExperimentConfig, echo_config, parse_config_text, sweep_axis_key
from .csvio import SnapshotWriter, write_csv, write_text

SPEEDS_HEADER = "s_star,lambda1,s_lower_star,lambda2,s_underline"
SNAPSHOT_HEADER = "t,x,u,v"
LEVELSET_HEADER = "t,theta,x_left,x_right"
PERSISTENCE_HEADER = "species,eta,epsilon,band_min,verdict"
HYPOTHESES_HEADER = "clause,margin,ok"
SWEEP_HEADER = ("value,s_star,s_lower_star,s_underline,"
                "u_band_min,v_band_min,u_verdict,v_verdict")


def speeds_row(cfg: ExperimentConfig) -> tuple:
    """``speeds.csv``: NaN for the predator's speeds when ``b <= 1``."""
    sp = cfg.speeds
    return (sp.s_star, sp.rate1, sp.s_lower_star, sp.rate2, sp.s_underline)


@dataclass(frozen=True)
class ExperimentResult:
    """The one record of a run.

    ``u_series``/``v_series`` are the rightmost level sets, ``u_left``/``v_left``
    the leftmost; a species with no band has a report that tests extinction."""

    config: ExperimentConfig
    trajectory: Trajectory
    u_left: LevelSetSeries
    u_series: LevelSetSeries
    v_left: LevelSetSeries
    v_series: LevelSetSeries
    u_report: PersistenceReport
    v_report: PersistenceReport

    def level_set_rows(self, species: str) -> list[tuple]:
        """``level_sets_<species>.csv``: both crossings at each snapshot."""
        left, right = ((self.u_left, self.u_series) if species == "u"
                       else (self.v_left, self.v_series))
        return [(t, right.theta, xl, xr) for t, xl, xr in zip(
            right.times.tolist(), left.positions.tolist(), right.positions.tolist())]

    def persistence_rows(self) -> list[tuple]:
        """``persistence.csv``: one row per species."""
        return [(r.species, r.eta, r.epsilon, r.band_min, r.verdict)
                for r in (self.u_report, self.v_report)]


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> ExperimentResult:
    """Simulate one configuration and emit the artifact bundle.

    Bundle: config echo, speeds CSV, snapshots CSV, one level-set CSV per
    species, persistence CSV, hypotheses CSV.  ``snapshots.csv`` is
    formatted by a :class:`SnapshotWriter` child while the run integrates;
    if the run fails, the child is stopped and no ``snapshots.csv`` is
    written.  Pass ``out_dir=None`` to skip writing and keep everything
    in memory.
    """
    initial = make_initial(cfg.u_spec, cfg.v_spec, cfg.grid, cfg.params)
    out_path = writer = None
    if out_dir is not None:
        out_path = Path(out_dir)
        writer = SnapshotWriter(out_path / "snapshots.csv", SNAPSHOT_HEADER, cfg.grid.x)
    try:
        traj = simulate(cfg.params, cfg.profile, cfg.kernel1, cfg.kernel2, cfg.grid,
                        initial, dt=cfg.dt, t_final=cfg.t_final,
                        snapshot_stride=cfg.snapshot_stride,
                        on_snapshot=None if writer is None else writer.write)
        result = ExperimentResult(
            config=cfg, trajectory=traj,
            u_left=level_set_series(traj, cfg.theta, "u", "left"),
            u_series=level_set_series(traj, cfg.theta, "u", "right"),
            v_left=level_set_series(traj, cfg.theta, "v", "left"),
            v_series=level_set_series(traj, cfg.theta, "v", "right"),
            u_report=frame_band_min(traj, cfg.bands[0], "u"),
            v_report=frame_band_min(traj, cfg.bands[1], "v"))
        if out_path is not None:
            write_text(out_path / "config_echo.txt", [echo_config(cfg)])
            write_csv(out_path / "speeds.csv", SPEEDS_HEADER, [speeds_row(cfg)])
            write_csv(out_path / "hypotheses.csv", HYPOTHESES_HEADER, cfg.hypotheses.rows())
            write_csv(out_path / "level_sets_u.csv", LEVELSET_HEADER, result.level_set_rows("u"))
            write_csv(out_path / "level_sets_v.csv", LEVELSET_HEADER, result.level_set_rows("v"))
            write_csv(out_path / "persistence.csv", PERSISTENCE_HEADER, result.persistence_rows())
            writer.close()
    except BaseException:
        if writer is not None:
            writer.abort()
        raise
    return result


def sweep_row(value: float, result: ExperimentResult) -> tuple:
    """``sweep.csv``: ``value``, then fields of the speeds and persistence rows."""
    s_star, _, s_lower, _, s_under = speeds_row(result.config)
    (_, _, _, u_min, u_verdict), (_, _, _, v_min, v_verdict) = result.persistence_rows()
    return (value, s_star, s_lower, s_under, u_min, v_min, u_verdict, v_verdict)


def _sweep_worker(task) -> tuple:
    """One member's ``sweep.csv`` row; the run's record is dropped here."""
    text, base_dir, key, value, run_dir = task
    try:
        cfg = parse_config_text(text, base_dir, {key: value})
        return sweep_row(value, run_experiment(cfg, out_dir=run_dir))
    except Exception as exc:
        nan, error = float("nan"), f"error:{type(exc).__name__}"
        return (value, nan, nan, nan, nan, nan, error, error)


def sweep(cfg: ExperimentConfig, axis: str, values, workers: int = 1,
          out_dir=None) -> list[tuple]:
    """Run one experiment per axis value; failures are recorded in-row.

    Runs are independent; ``workers > 1`` distributes them over a process
    pool of at most one worker per value, without changing row order or
    content.
    """
    key = sweep_axis_key(axis)
    out_path = Path(out_dir) if out_dir is not None else None
    tasks = []
    for i, value in enumerate(values):
        run_dir = None if out_path is None else out_path / f"run_{i:03d}"
        tasks.append((cfg.raw_text, cfg.base_dir, key, float(value), run_dir))
    workers = min(workers, len(tasks))
    if workers <= 1:
        rows = [_sweep_worker(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_worker, tasks))
    if out_path is not None:
        write_csv(out_path / "sweep.csv", SWEEP_HEADER, rows)
    return rows
