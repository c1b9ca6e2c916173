import io
import math
import time
import tracemalloc

import numpy as np
import pytest

import frontlab as fl
import frontlab.harness as H
from frontlab.errors import InstabilityError
from frontlab.harness import csvio, runner
from frontlab.harness.csvio import SnapshotWriter, fmt, write_csv
from frontlab.harness.runner import SNAPSHOT_HEADER

SMALL_RUN = """
params.d1 = 1.0
params.d2 = 1.0
params.r1 = 0.5
params.r2 = 0.4
params.a = 0.5
params.b = 1.5
params.s = 0.1
initial.u_height = 0.5
initial.v_height = 0.2
solver.t_final = 3.0
"""


@pytest.mark.parametrize("value, text", [
    (float("nan"), "nan"),
    (float("inf"), "inf"),
    (float("-inf"), "-inf"),
    (-0.0, "-0"),
    (5e-324, "4.9406564584124654e-324"),
    (0.1, "0.10000000000000001"),
    (np.float64(0.3), "0.29999999999999999"),
    (True, "true"),
    (False, "false"),
    (3, "3"),
    ("persists", "persists"),
])
def test_fmt_exact_text(value, text):
    assert fmt(value) == text


def _reference_fmt(value) -> str:
    """The per-value formatter the snapshot writer must reproduce."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.17g}"
    return str(value)


def _reference_snapshots(traj) -> str:
    lines = [SNAPSHOT_HEADER]
    x = traj.grid.x
    for i, t in enumerate(traj.times):
        for j in range(x.size):
            row = (float(t), float(x[j]), float(traj.u[i][j]), float(traj.v[i][j]))
            lines.append(",".join(_reference_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def test_snapshots_csv_matches_reference_formatter(tmp_path):
    res = H.run_experiment(H.parse_config_text(SMALL_RUN),
                           out_dir=tmp_path / "run")
    written = (tmp_path / "run" / "snapshots.csv").read_bytes()
    assert written == _reference_snapshots(res.trajectory).encode("utf-8")


def _synthetic_trajectory(n_times: int, n_grid: int, u=None) -> fl.Trajectory:
    if u is None:  # eighths print short, like the zeros ahead of a front
        u = np.random.default_rng(5).integers(0, 9, (n_times, n_grid)) / 8.0
    return fl.Trajectory(times=np.linspace(0.0, 50.0, n_times), u=u, v=u[::-1] * 0.5,
                         grid=fl.Grid(-10.0, 90.0, n_grid),
                         params=fl.Params(d1=1, d2=1, r1=1, r2=1, a=0.5, b=2))


def _write_snapshots(path, traj):
    writer = SnapshotWriter(path, SNAPSHOT_HEADER, traj.grid.x)
    try:
        for t, u, v in zip(traj.times.tolist(), traj.u, traj.v):
            writer.write(t, u, v)
    except BaseException:
        writer.abort()
        raise
    return writer.close()


def test_snapshot_blocks_cover_special_values(tmp_path):
    specials = np.array([[float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 0.1]])
    traj = _synthetic_trajectory(1, 6, u=specials)
    _write_snapshots(tmp_path / "s.csv", traj)
    assert (tmp_path / "s.csv").read_bytes() == _reference_snapshots(traj).encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]


def test_snapshot_writer_memory_is_bounded_by_one_snapshot(tmp_path):
    traj = _synthetic_trajectory(200, 2000)
    tracemalloc.start()
    try:
        _write_snapshots(tmp_path / "snapshots.csv", traj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = (tmp_path / "snapshots.csv").stat().st_size
    assert size > 10_000_000
    assert peak < 2_000_000, f"peak {peak} B while writing {size} B"


def test_failed_run_stops_the_snapshot_writer(tmp_path, monkeypatch):
    children = []

    def failing_simulate(*args, on_snapshot, **kwargs):
        initial = args[5]
        on_snapshot(0.0, initial.u, initial.v)
        writer = on_snapshot.__self__
        children.append(writer._proc)
        deadline = time.monotonic() + 30.0
        while not writer.tmp.exists() and time.monotonic() < deadline:
            time.sleep(0.01)  # let the child create its file, so removing it is tested
        assert writer.tmp.exists()
        raise InstabilityError("injected failure after the first snapshot")

    monkeypatch.setattr(runner, "simulate", failing_simulate)
    out = tmp_path / "run"
    with pytest.raises(InstabilityError, match="injected failure"):
        H.run_experiment(H.parse_config_text(SMALL_RUN), out_dir=out)
    child, = children
    assert child.returncode is not None
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("reads", ["", "sys.stdin.buffer.read()\n"],
                         ids=["exits-at-once", "reads-all-input"])
def test_failed_snapshot_writer_raises_with_its_status(tmp_path, monkeypatch, reads):
    script = tmp_path / "failing_writer.py"
    script.write_text(f"import sys\n{reads}sys.stderr.write('no space left')\nsys.exit(3)\n")
    monkeypatch.setattr(csvio, "_WRITER_SCRIPT", script)
    out = tmp_path / "run"
    with pytest.raises(OSError, match=r"snapshots\.csv writer exited with status 3: no space left"):
        H.run_experiment(H.parse_config_text(SMALL_RUN), out_dir=out)
    assert not [p for p in out.iterdir() if "snapshots" in p.name]


@pytest.mark.parametrize("cut", [0, 8], ids=["at-a-record-boundary", "inside-a-record"])
def test_snapshot_writer_without_end_mark_removes_its_file(tmp_path, cut):
    # the input ends as when the sending process dies: no close(), no end mark
    traj = _synthetic_trajectory(3, 5)
    writer = SnapshotWriter(tmp_path / "snapshots.csv", SNAPSHOT_HEADER, traj.grid.x)
    for t, u, v in zip(traj.times.tolist(), traj.u, traj.v):
        writer.write(t, u, v)
    writer._proc.stdin.write(b"\0" * cut)
    status, err = writer._reap()
    assert status != 0 and "snapshot stream ended inside" in err
    assert list(tmp_path.iterdir()) == []


def test_write_csv_to_stream():
    out = io.StringIO()
    write_csv(out, "a,b", [(1, 0.5), ("x", "y"), ("z", "w"), (True, float("nan"))])
    assert out.getvalue() == "a,b\n1,0.5\nx,y\nz,w\ntrue,nan\n"


def test_failed_rename_leaves_no_config_echo_or_temp_file(tmp_path, monkeypatch):
    # every bundle file, config_echo.txt included, appears only when complete
    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(csvio.os, "replace", failing_replace)
    out = tmp_path / "run"
    with pytest.raises(OSError, match="rename failed"):
        H.run_experiment(H.parse_config_text(SMALL_RUN), out_dir=out)
    assert list(out.iterdir()) == []


def _failing_rows():
    yield (1.0, 2.0)
    yield (3.0, 4.0)
    raise RuntimeError("row source failed")


def test_failed_write_leaves_no_partial_or_temp_file(tmp_path):
    with pytest.raises(RuntimeError, match="row source failed"):
        write_csv(tmp_path / "out.csv", "a,b", _failing_rows())
    assert list(tmp_path.iterdir()) == []


def test_failed_write_keeps_previous_file(tmp_path):
    target = write_csv(tmp_path / "out.csv", "a,b", [(1.0, 2.0)])
    before = target.read_bytes()
    with pytest.raises(RuntimeError):
        write_csv(target, "a,b", _failing_rows())
    assert target.read_bytes() == before
    assert list(tmp_path.iterdir()) == [target]
