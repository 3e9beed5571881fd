"""Command-line front end.

Subcommands: ``eval`` (single operating point), ``sweep`` (one swept variable
with an optional family), ``figure`` (preset sweeps 2-5), and ``validate``
(analytic versus Monte Carlo for every metric).  Exit codes: 0 success,
1 validation failure, 2 config error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import plc_link, vlc_link
from .config import echo_lines, load_config
from .errors import ConfigError, ParameterError
# `estimate` is unused here, but perfbench/layers.py traces cli.estimate by name.
from .montecarlo import estimate, estimate_many  # noqa: F401
from .sweeps import (
    FIGURE_PRESETS,
    SWEEPABLE_VARIABLES,
    SweepSpec,
    evaluate_point,
    report_csv,
    run_sweep,
    run_validation,
    validation_lines,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plcvlc",
        description="Capacity and outage analysis of a power-line / DF-relay / "
        "visible-light link with Monte Carlo cross-validation.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="flat key = value config file")
    common.add_argument("--trials", type=int, metavar="N", help="Monte Carlo trials override")
    common.add_argument("--seed", type=int, metavar="N", help="Monte Carlo seed override")
    common.add_argument("--duplex-factor", type=float, metavar="THETA",
                        help="time-sharing factor override, in (0, 1]")
    common.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker threads for the Monte Carlo engine (default 1)")
    common.add_argument("--out", metavar="PATH", help="output file (default: stdout)")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("eval", parents=[common], help="evaluate a single operating point")

    sweep = sub.add_parser("sweep", parents=[common], help="sweep one variable")
    sweep.add_argument("--var", required=True, choices=sorted(SWEEPABLE_VARIABLES),
                       help="variable to sweep")
    sweep.add_argument("--from", dest="start", type=float, required=True, metavar="X")
    sweep.add_argument("--to", dest="stop", type=float, required=True, metavar="X")
    sweep.add_argument("--steps", type=int, required=True, metavar="N")
    sweep.add_argument("--family", metavar="KEY=V1,V2,...",
                       help="second variable with a discrete value list")

    figure = sub.add_parser("figure", parents=[common], help="run a preset figure sweep")
    figure.add_argument("number", type=int, choices=sorted(FIGURE_PRESETS),
                        help="figure preset number")

    sub.add_parser("validate", parents=[common],
                   help="compare analytic results against Monte Carlo")
    return parser


def _parse_family(text: str) -> tuple[str, tuple[float, ...]]:
    key, sep, raw_values = text.partition("=")
    key = key.strip()
    if not sep or not raw_values.strip():
        raise ParameterError("--family expects KEY=V1,V2,...")
    try:
        values = tuple(float(v) for v in raw_values.split(","))
    except ValueError as exc:
        raise ParameterError(f"--family values must be numeric: {raw_values!r}") from exc
    return key, values


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, newline="\n")
    except OSError as exc:
        raise ParameterError(f"--out {out!r} cannot be written: {exc.strerror or exc}") from exc


def _run_eval(system, mc, workers: int) -> str:
    point = evaluate_point(system)
    mc_cap, mc_out = estimate_many(
        [("e2e_avg_capacity", system), ("e2e_outage", system)], mc, workers
    )
    report = [
        ("plc_attenuation_per_m", plc_link.attenuation_coeff(system.plc)),
        ("plc_snr_scale", plc_link.snr_scale(system.plc)),
        ("snr_threshold", point["snr_threshold"]),
        ("plc_capacity", point["plc_capacity"]),
        ("vlc_capacity_closed", point["vlc_capacity"]),
        ("vlc_capacity_quad", vlc_link.avg_capacity_quad(system.vlc)),
        ("e2e_capacity_bound", point["e2e_capacity_bound"]),
        ("e2e_capacity_mc", mc_cap.mean),
        ("e2e_capacity_mc_se", mc_cap.std_error),
        ("plc_outage", point["plc_outage"]),
        ("vlc_outage", point["vlc_outage"]),
        ("e2e_outage", point["e2e_outage"]),
        ("e2e_outage_mc", mc_out.mean),
        ("e2e_outage_mc_se", mc_out.std_error),
    ]
    lines = ["# plcvlc eval report", *echo_lines(system, mc)]
    lines += [f"{name} = {value!r}" for name, value in report]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        overrides = {"trials": args.trials, "seed": args.seed, "duplex_factor": args.duplex_factor}
        system, mc = load_config(
            args.config, {key: value for key, value in overrides.items() if value is not None}
        )

        if args.command == "eval":
            _write_output(_run_eval(system, mc, args.workers), args.out)
            return 0

        if args.command in ("sweep", "figure"):
            if args.command == "figure":
                spec = FIGURE_PRESETS[args.number]
            else:
                family_variable = None
                family_values: tuple[float, ...] = ()
                if args.family is not None:
                    family_variable, family_values = _parse_family(args.family)
                spec = SweepSpec(
                    variable=args.var,
                    start=args.start,
                    stop=args.stop,
                    steps=args.steps,
                    family_variable=family_variable,
                    family_values=family_values,
                )
            report = run_sweep(spec, system, mc, workers=args.workers)
            _write_output(report_csv(report, system, mc), args.out)
            return 0

        # validate
        rows, ok = run_validation(system, mc, workers=args.workers)
        text = "\n".join(validation_lines(rows)) + "\n"
        _write_output(text, args.out)
        if not ok:
            failing = ", ".join(r.name for r in rows if not r.agrees)
            print(f"validation failed: {failing}", file=sys.stderr)
            return 1
        return 0
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
