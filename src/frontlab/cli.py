"""Command-line interface.

Subcommands: ``speeds``, ``simulate``, ``sweep``, ``check-hypotheses``,
``verify-subsolution``.  Each table goes to stdout through the row
function that writes its file in a bundle; ``simulate`` prints both rows
of ``persistence.csv``, a band's or an extinction test's.  Exit codes: 0 on
success, 2 when ``--strict`` is given and a hypothesis (or verification)
check fails, 1 on runtime error.  The output root comes from ``--out``,
the ``FRONTLAB_OUT`` environment variable, or ``./frontlab-out``, in that
order.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import FrontLabError
from .harness.config import parse_config
from .harness.csvio import fmt, write_csv
from .harness.runner import (HYPOTHESES_HEADER, PERSISTENCE_HEADER,
                             SPEEDS_HEADER, SWEEP_HEADER, run_experiment,
                             speeds_row, sweep)
from .subsolution import construct_subsolution, verify_subsolution


def _out_dir(args, cfg_path: Path) -> Path:
    if args.out is not None:
        return Path(args.out)
    root = os.environ.get("FRONTLAB_OUT", "frontlab-out")
    return Path(root) / cfg_path.stem


def _cmd_speeds(args) -> int:
    cfg = parse_config(args.config)
    write_csv(sys.stdout, SPEEDS_HEADER, [speeds_row(cfg)])
    return 0


def _cmd_check_hypotheses(args) -> int:
    cfg = parse_config(args.config)
    write_csv(sys.stdout, HYPOTHESES_HEADER, cfg.hypotheses.rows())
    if args.strict and not cfg.hypotheses.all_ok:
        return 2
    return 0


def _cmd_simulate(args) -> int:
    cfg_path = Path(args.config)
    cfg = parse_config(cfg_path)
    out = _out_dir(args, cfg_path)
    result = run_experiment(cfg, out_dir=out)
    write_csv(sys.stdout, PERSISTENCE_HEADER, result.persistence_rows())
    sys.stdout.write(f"bundle written to {out}\n")
    if args.strict and not cfg.hypotheses.all_ok:
        return 2
    return 0


def _cmd_sweep(args) -> int:
    cfg_path = Path(args.config)
    cfg = parse_config(cfg_path)
    out = _out_dir(args, cfg_path)
    rows = sweep(cfg, args.axis, args.values, workers=args.workers, out_dir=out)
    write_csv(sys.stdout, SWEEP_HEADER, rows)
    sys.stdout.write(f"bundle written to {out}\n")
    return 0


def _cmd_verify_subsolution(args) -> int:
    cfg = parse_config(args.config)
    vals = cfg.values
    c = vals["subsolution.c"]
    if c == "auto":
        raise FrontLabError(
            "subsolution.c could not be derived (needs b > 1 and params.s below s_underline); "
            "set it explicitly")
    window = vals["subsolution.window"]
    amplitude = vals["subsolution.amplitude"]
    p = construct_subsolution(
        cfg.params, c, cfg.kernel1,
        predator_level=vals["subsolution.delta1"],
        prey_level=vals["subsolution.delta2"],
        rate_offset=vals["subsolution.rate_offset"],
        amplitude=None if amplitude == "auto" else amplitude,
        window=None if window == "auto" else window,
        t_check=vals["subsolution.t_check"],
    )
    report = verify_subsolution(p, cfg.params, cfg.kernel1,
                                n_space=vals["subsolution.n_space"],
                                n_time=vals["subsolution.n_time"],
                                t_check=vals["subsolution.t_check"])
    write_csv(sys.stdout, "clause,value,ok", [
        ("frame_speed", p.frame_speed, True),
        ("window", p.window, True),
        ("decay_rate", p.decay, True),
        *report.rows(),
    ])
    verdict = "PASS" if report.ok else "FAIL(" + ",".join(report.failures) + ")"
    sys.stdout.write(f"{verdict} worst_margin={fmt(report.worst_margin)}\n")
    if args.strict and not report.ok:
        return 2
    return 0


def _worker_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


def _axis_values(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.replace(",", " ").split()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(
            f"expected comma- or space-separated numbers, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frontlab",
        description="Nonlocal predator-prey fronts in a shifting habitat: "
                    "speeds, simulations, persistence bands, sub-solution checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    flag_args = {"--out": {"help": "output directory (overrides FRONTLAB_OUT)"},
                 "--strict": {"action": "store_true",
                              "help": "exit 2 when hypothesis/verification checks fail"}}

    def add(name, fn, help_text, *flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="experiment configuration file")
        for flag in flags:
            p.add_argument(flag, **flag_args[flag])
        p.set_defaults(fn=fn)
        return p

    add("speeds", _cmd_speeds, "print the variational speeds CSV row")
    add("simulate", _cmd_simulate, "run one experiment and write its bundle", "--out", "--strict")
    p_sweep = add("sweep", _cmd_sweep, "run one experiment per axis value", "--out")
    p_sweep.add_argument("--axis", required=True,
                         help="sweep axis: s, a, b, d1, d2, or eta")
    p_sweep.add_argument("--values", type=_axis_values, required=True,
                         help="comma- or space-separated axis values")
    p_sweep.add_argument("--workers", type=_worker_count, default=1,
                         help="worker processes, at most one per value (default 1)")
    add("check-hypotheses", _cmd_check_hypotheses, "print the hypothesis report CSV", "--strict")
    add("verify-subsolution", _cmd_verify_subsolution,
        "construct and verify the moving-window sub-solution", "--strict")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (FrontLabError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
