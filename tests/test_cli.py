import os
import subprocess
import sys

import pytest

from frontlab.cli import main

CFG = """
params.d1 = 1.0
params.d2 = 1.0
params.r1 = 0.5
params.r2 = 0.4
params.a = 0.5
params.b = 1.5
params.s = 0.1
initial.u_height = 0.5
initial.v_height = 0.2
solver.t_final = 15.0
"""


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CFG)
    return path


def run_cli(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "frontlab", *args],
                          capture_output=True, text=True, env=full_env)


# Runs the CLI with every scipy import failing, after checking that importing
# frontlab.cli loaded no scipy module.
_NO_SCIPY = """
import sys
sys.modules["scipy"] = None
from frontlab.cli import main
assert [name for name in sys.modules if name.split(".")[0] == "scipy"] == ["scipy"]
sys.exit(main())
"""


def test_runs_without_scipy(cfg_file, tmp_path):
    for args in (["speeds", str(cfg_file)],
                 ["verify-subsolution", str(cfg_file), "--strict"],
                 ["simulate", str(cfg_file), "--out", str(tmp_path / "run")]):
        proc = subprocess.run([sys.executable, "-c", _NO_SCIPY, *args],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run" / "snapshots.csv").exists()


def test_speeds_subcommand(cfg_file):
    proc = run_cli("speeds", str(cfg_file))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "s_star,lambda1,s_lower_star,lambda2,s_underline"
    vals = [float(v) for v in lines[1].split(",")]
    assert vals[4] == pytest.approx(min(vals[0], vals[2]))


def test_check_hypotheses_strict_exit_codes(cfg_file, tmp_path):
    proc = run_cli("check-hypotheses", str(cfg_file), "--strict")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("clause,margin,ok")
    bad = tmp_path / "bad.cfg"
    bad.write_text(CFG + "params.s = 0.5\n")  # faster than both speeds
    proc2 = run_cli("check-hypotheses", str(bad), "--strict")
    assert proc2.returncode == 2


def test_simulate_writes_bundle_with_env_root(cfg_file, tmp_path):
    out_root = tmp_path / "envroot"
    proc = run_cli("simulate", str(cfg_file), env={"FRONTLAB_OUT": str(out_root)})
    assert proc.returncode == 0, proc.stderr
    bundle = out_root / "exp"
    assert (bundle / "snapshots.csv").exists()
    assert (bundle / "persistence.csv").exists()


def test_simulate_out_flag_overrides_env(cfg_file, tmp_path):
    target = tmp_path / "explicit"
    proc = run_cli("simulate", str(cfg_file), "--out", str(target),
                   env={"FRONTLAB_OUT": str(tmp_path / "ignored")})
    assert proc.returncode == 0, proc.stderr
    assert (target / "config_echo.txt").exists()
    assert not (tmp_path / "ignored").exists()


@pytest.mark.parametrize("old, new", [
    ("params.b = 1.5\n", "params.b = 0.9\n"),
], ids=["weak-predator"])
def test_simulate_prints_the_persistence_rows_without_a_band(tmp_path, old, new):
    path = tmp_path / "noband.cfg"
    # initial.v_height may not exceed max(b - 1, 0)
    path.write_text(CFG.replace(old, new).replace("initial.v_height = 0.2", "initial.v_height = 0.0"))
    out = tmp_path / "run"
    proc = run_cli("simulate", str(path), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    table = (out / "persistence.csv").read_text()
    assert proc.stdout == table + f"bundle written to {out}\n"
    # the prey reads its band below s*; the predator, with no band, tests extinction
    u, v = table.splitlines()[1:]
    assert u.startswith("u,") and u.endswith(",persists")
    assert v == "v,nan,0.01,0,extinct"


def test_verify_subsolution_pass_report(cfg_file):
    proc = run_cli("verify-subsolution", str(cfg_file))
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
    assert "worst_margin=" in proc.stdout


def test_verify_subsolution_fail_strict_exit(cfg_file, tmp_path):
    # an oversized amplitude breaks the damped-reaction positivity
    bad = tmp_path / "amp.cfg"
    bad.write_text(CFG + "subsolution.amplitude = 0.5\n")
    proc = run_cli("verify-subsolution", str(bad), "--strict")
    assert proc.returncode == 2
    assert "FAIL" in proc.stdout
    relaxed = run_cli("verify-subsolution", str(bad))
    assert relaxed.returncode == 0


def test_verify_subsolution_past_s_underline_names_subsolution_c(tmp_path):
    # s = 0.30 > s_underline = 0.2368: no frame speed lies in (s, s_underline),
    # so none is derived, and an explicit one at or below s fails at parse
    path = tmp_path / "s030.cfg"
    path.write_text(CFG.replace("params.s = 0.1\n", "params.s = 0.30\n"))
    proc = run_cli("verify-subsolution", str(path))
    assert proc.returncode == 1 and proc.stdout == ""
    assert "subsolution.c could not be derived (needs b > 1 and params.s below" in proc.stderr
    with path.open("a") as fh:
        fh.write("subsolution.c = 0.25\n")
    proc = run_cli("speeds", str(path))
    assert proc.returncode == 1 and proc.stdout == ""
    assert "subsolution.c=0.25 must exceed params.s" in proc.stderr


def test_verify_subsolution_fail_line_names_the_rows_marked_false(tmp_path):
    bad = tmp_path / "amp.cfg"
    bad.write_text(CFG + "subsolution.amplitude = 0.5\n")
    proc = run_cli("verify-subsolution", str(bad))
    *table, verdict = proc.stdout.splitlines()
    assert table[0] == "clause,value,ok"
    assert [row.split(",")[0] for row in table[1:]] == [
        "frame_speed", "window", "decay_rate",
        "amplitude_margin", "tilt_residual", "min_linear", "min_reaction"]
    false_rows = [row.split(",")[0] for row in table[1:] if row.endswith(",false")]
    assert false_rows == ["min_reaction"]
    assert verdict.startswith("FAIL(" + ",".join(false_rows) + ") worst_margin=")


def test_sweep_subcommand(cfg_file, tmp_path):
    proc = run_cli("sweep", str(cfg_file), "--axis", "b", "--values", "1.5 1.2",
                   "--out", str(tmp_path / "sw"))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("value,s_star")
    assert len([l for l in lines if l and not l.startswith(("value", "bundle"))]) == 2


@pytest.mark.parametrize("workers", ["0", "-2", "two"])
def test_sweep_refuses_a_worker_count_below_one(cfg_file, capsys, workers):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", str(cfg_file), "--axis", "s", "--values", "0.1,0.2",
              "--workers", workers])
    assert exc.value.code == 2
    assert "argument --workers: expected an integer of at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("values", ["abc", "0.1,abc", "", " , "])
def test_sweep_refuses_values_that_are_not_numbers(cfg_file, capsys, values):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", str(cfg_file), "--axis", "s", "--values", values])
    assert exc.value.code == 2
    assert "argument --values: expected comma- or space-separated numbers" in capsys.readouterr().err


def test_out_of_range_key_fails_cleanly(tmp_path):
    bad = tmp_path / "coarse.cfg"
    bad.write_text(CFG + "grid.dx = 0\n")
    proc = run_cli("speeds", str(bad))
    assert proc.returncode == 1
    assert "grid.dx" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_overflowing_horizon_fails_cleanly(tmp_path):
    bad = tmp_path / "endless.cfg"
    bad.write_text(CFG + "solver.t_final = 1e308\n")
    proc = run_cli("speeds", str(bad))
    assert proc.returncode == 1
    assert "error:" in proc.stderr and "solver.t_final" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_runtime_error_exit_code(tmp_path):
    bad = tmp_path / "broken.cfg"
    bad.write_text("params.d1 = 1.0\nparams.nope = 2\n")
    proc = run_cli("speeds", str(bad))
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    missing = run_cli("speeds", str(tmp_path / "missing.cfg"))
    assert missing.returncode == 1


def test_unwritable_out_fails_cleanly(cfg_file, tmp_path):
    # --out names a regular file, so the bundle directory cannot be made
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    proc = run_cli("simulate", str(cfg_file), "--out", str(afile))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "File exists" in proc.stderr and "Traceback" not in proc.stderr
    assert afile.read_text() == "keep\n" and sorted(tmp_path.iterdir()) == sorted([cfg_file, afile])


@pytest.mark.parametrize("args", [
    ["speeds", "--out", "o"], ["speeds", "--strict"], ["check-hypotheses", "--out", "o"],
    ["verify-subsolution", "--out", "o"], ["sweep", "--axis", "s", "--values", "0.1", "--strict"],
], ids=["speeds-out", "speeds-strict", "check-hypotheses-out", "verify-subsolution-out",
        "sweep-strict"])
def test_flags_a_subcommand_does_not_read_are_refused(cfg_file, tmp_path, args):
    # each subcommand takes only the flags it reads; the rest are usage errors
    cmd, *flags = args
    proc = run_cli(cmd, str(cfg_file), *flags, env={"FRONTLAB_OUT": str(tmp_path / "root")})
    assert proc.returncode == 2
    assert "unrecognized arguments" in proc.stderr
    assert proc.stdout == "" and sorted(tmp_path.iterdir()) == [cfg_file]
