import io
import math
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import frontlab as fl
import frontlab.harness as H
from frontlab.errors import InstabilityError
from frontlab.harness import _g17, csvio, runner
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


def _g17_texts(values) -> list:
    chars, lens = _g17.g17(values)
    return [row[:n].tobytes() for row, n in zip(chars, lens.tolist())]


def _assert_g17_exact(values):
    values = np.asarray(values, dtype=np.float64)
    expected = [b"%.17g" % v for v in values.tolist()]
    got = _g17_texts(values)
    wrong = [(v, e, g) for v, e, g in zip(values.tolist(), expected, got) if e != g]
    assert not wrong, f"{len(wrong)} of {len(expected)} differ, e.g. {wrong[:3]}"


def test_g17_matches_percent_format_on_random_bit_patterns():
    bits = np.random.default_rng(20231).integers(0, 2**64, 200_000, dtype=np.uint64)
    _assert_g17_exact(bits.view(np.float64))


def _neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # the largest float's upper neighbour is inf
        return np.concatenate([values, np.nextafter(values, -np.inf),
                               np.nextafter(values, np.inf)])


def test_g17_matches_percent_format_on_edge_families():
    powers = np.array([float(f"1e{p}") for p in range(-323, 309)])
    rng = np.random.default_rng(7)
    subnormals = np.concatenate([
        np.arange(1, 2000, dtype=np.uint64),
        rng.integers(1, 2**52, 20_000, dtype=np.uint64),
        [2**52 - 1]]).view(np.float64)
    integers = np.concatenate([
        [2.0**j + d for j in range(54) for d in (-1, 0, 1)],
        [10.0**j - 1 for j in range(1, 16)],
        rng.integers(0, 2**53, 5_000).astype(np.float64)])
    eighths = np.arange(-8 * 512, 8 * 512) / 8.0
    near_ends = (np.array([1e16, 1e17]).view(np.int64)[:, None]
                 + np.arange(-8, 9)).ravel().view(np.float64)  # 8 ulps either side
    extremes = _neighbours([np.finfo(np.float64).max, np.finfo(np.float64).tiny])
    specials = [0.0, -0.0, np.nan, np.inf, -np.inf]
    families = [_neighbours(powers), subnormals, integers, eighths, near_ends, extremes]
    values = np.concatenate([np.concatenate([f, -f]) for f in families] + [specials])
    _assert_g17_exact(values)


def test_g17_power_of_ten_table_is_correctly_rounded():
    for p, entry in zip(range(_g17._P_LO, _g17._P_LO + _g17._POW10.size), _g17._POW10):
        if not np.isfinite(entry):  # beyond a float64 long double's range
            continue
        exact = Fraction(10) ** p
        ulp = Fraction(*np.spacing(entry).as_integer_ratio())
        assert abs(Fraction(*entry.as_integer_ratio()) - exact) <= ulp / 2, p


def test_g17_with_a_float64_bound_formats_every_value_one_at_a_time(monkeypatch):
    # float64's eps makes every value's bound, P~ times it, exceed 1/2: no
    # value is settled in bulk
    eps = np.finfo(np.float64).eps
    monkeypatch.setattr(_g17, "BOUND", np.longdouble(eps) * (1 + 2 * eps))
    one_at_a_time = []
    scalar = _g17._scalar

    def recording(values):
        one_at_a_time.extend(values.tolist())
        return scalar(values)

    monkeypatch.setattr(_g17, "_scalar", recording)
    traj = H.run_experiment(H.parse_config_text(SMALL_RUN)).trajectory
    grid = _g17.g17(traj.grid.x)
    body = b"".join(_g17.snapshot_lines(t, grid, u, v)
                    for t, u, v in zip(traj.times.tolist(), traj.u, traj.v))
    sent = np.concatenate([traj.grid.x, *traj.u, *traj.v])
    assert np.array_equal(np.sort(one_at_a_time), np.sort(sent))
    assert (SNAPSHOT_HEADER + "\n").encode() + body == _reference_snapshots(traj).encode("utf-8")


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


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="F_GETPIPE_SZ is Linux's")
def test_snapshot_writer_pipe_holds_a_mebibyte(tmp_path):
    import fcntl

    limit = int(Path("/proc/sys/fs/pipe-max-size").read_text())
    writer = SnapshotWriter(tmp_path / "snapshots.csv", SNAPSHOT_HEADER, np.zeros(3))
    try:
        size = fcntl.fcntl(writer._proc.stdin, fcntl.F_GETPIPE_SZ)
    finally:
        writer.abort()
    assert size >= min(1 << 20, limit)


def test_snapshot_writer_never_waits_for_a_slow_child(tmp_path, monkeypatch):
    # a child that sleeps 0.5 s before it reads: the writes return at once,
    # with more than the pipe holds, and close() sends the rest
    script = tmp_path / "slow_writer.py"
    real = csvio._WRITER_SCRIPT
    script.write_text("import runpy, sys, time\n"
                      "time.sleep(0.5)\n"
                      f"sys.argv[0] = {str(real)!r}\n"
                      f"runpy.run_path({str(real)!r}, run_name='__main__')\n")
    monkeypatch.setattr(csvio, "_WRITER_SCRIPT", script)
    traj = _synthetic_trajectory(40, 2001)
    assert traj.u.nbytes + traj.v.nbytes > 1 << 20
    start = time.perf_counter()
    writer = SnapshotWriter(tmp_path / "snapshots.csv", SNAPSHOT_HEADER, traj.grid.x)
    try:
        for t, u, v in zip(traj.times.tolist(), traj.u, traj.v):
            writer.write(t, u, v)
        elapsed = time.perf_counter() - start
    except BaseException:
        writer.abort()
        raise
    writer.close()
    assert elapsed < 0.2
    written = (tmp_path / "snapshots.csv").read_bytes()
    assert written == _reference_snapshots(traj).encode("utf-8")


def test_snapshot_writer_child_runs_math_libraries_on_one_thread(tmp_path, monkeypatch):
    script = tmp_path / "env_writer.py"
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    script.write_text("import os, sys\n"
                      f"sys.stderr.write(','.join(os.environ.get(v, '-') for v in {names}))\n"
                      "sys.exit(3)\n")
    monkeypatch.setattr(csvio, "_WRITER_SCRIPT", script)
    for name in names:
        monkeypatch.setenv(name, "4")
    with pytest.raises(OSError, match="status 3: 1,1,1$"):
        SnapshotWriter(tmp_path / "snapshots.csv", SNAPSHOT_HEADER, np.zeros(3)).close()


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
