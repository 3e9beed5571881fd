"""Command-line front end.

Subcommands: ``eval`` (single operating point), ``sweep`` (one swept variable
with an optional family), ``figure`` (preset sweeps 2-5), and ``validate``
(analytic versus Monte Carlo for every metric).  Exit codes: 0 success,
1 validation failure, 2 config error.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

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
    try:
        if out is None:
            print(text, end="", flush=True)
        else:
            Path(out).write_text(text, newline="\n")
    except OSError as exc:
        where = "stdout" if out is None else f"--out {out!r}"
        raise ParameterError(f"{where} cannot be written: {exc.strerror or exc}") from exc


# The eval report's lines in order, each a value of evaluate_point or of an estimate.
_EVAL_LINES = (
    "plc_attenuation_per_m", "plc_snr_scale", "snr_threshold", "plc_capacity",
    "vlc_capacity_closed", "vlc_capacity_quad", "e2e_capacity_bound", "e2e_capacity_mc",
    "e2e_capacity_mc_se", "plc_outage", "vlc_outage", "e2e_outage", "e2e_outage_mc",
    "e2e_outage_mc_se",
)


def _run_eval(system, mc, workers: int) -> str:
    point = evaluate_point(system)
    capacity, outage = estimate_many(
        [("e2e_avg_capacity", system), ("e2e_outage", system)], mc, workers
    )
    values = {
        **point, "vlc_capacity_closed": point["vlc_capacity"],
        "e2e_capacity_mc": capacity.mean, "e2e_capacity_mc_se": capacity.std_error,
        "e2e_outage_mc": outage.mean, "e2e_outage_mc_se": outage.std_error,
    }
    lines = ["# plcvlc eval report", *echo_lines(system, mc)]
    lines += [f"{name} = {values[name]!r}" for name in _EVAL_LINES]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise ParameterError(f"--workers must be a positive integer, got {args.workers}")
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
            records = run_sweep(spec, system, mc, workers=args.workers)
            _write_output(report_csv(spec, records, system, mc), args.out)
            return 0

        # validate
        rows = run_validation(system, mc, workers=args.workers)
        _write_output("\n".join(validation_lines(rows)) + "\n", args.out)
        failing = [r.name for r in rows if not r.agrees]
        if failing:
            print(f"validation failed: {', '.join(failing)}", file=sys.stderr)
            return 1
        return 0
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    """Program entry: ``main``, then exit with the heap frozen, which shutdown does not collect."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_main()
