"""The analytic-grid workload: seeded operating points through the Python API.

Each operation evaluates ``POINTS_PER_OP`` operating points, as a user of the
README's API section would: per-hop capacities (the visible-light one both in
closed form and by quadrature), both hop outages, the end-to-end outage and
the numeric end-to-end mean.  No Monte Carlo runs here.

Run as a script it is the workload's load process: it imports ``plcvlc``
once, repeats the operation for ``--seconds`` and prints one JSON object with
wall and CPU times per chunk of ``CHUNK_POINTS`` points, per-point
latencies, every result and the host-speed calibrations taken between chunks
(calibrate.py).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import random
import sys
import time

from calibrate import calibrate

POINTS_PER_OP = 100
# Points between two host-speed calibrations (about 1 s).
CHUNK_POINTS = 20
# Operations a run makes at least, whatever its --seconds.
MIN_OPS = 3

# Ranges follow the figure presets where one exists (LED height, cell radius,
# relay power, rate threshold: sweeps.FIGURE_PRESETS).  The PLC distance and
# fading ranges are those of the PLC capacity bound test
# (tests/test_plc_link.py).  The semi-angle range is the closed-vs-quadrature
# acceptance test's [20, 80] degrees with its lower edge raised to 30: below
# about 28 degrees, with a cell radius above about 3.6 m,
# relay.e2e_avg_capacity_numeric raises NumericDomainError (README.md).
RANGES = {
    "led_height": (2.15, 3.0),
    "cell_radius": (2.5, 4.5),
    "relay_power": (0.02, 0.5),
    "plc_distance": (5.0, 200.0),
    "rate_threshold": (0.4, 2.2),
    "semi_angle_deg": (30.0, 80.0),
    "fading_sigma_db": (0.0, 6.0),
}
# Fading below this is set to 0 dB, the deterministic power-line hop that
# gives the end-to-end integral a breakpoint.  Fading then takes values in
# {0} and [0.5, 6] dB, and about 0.5/6 of the points have sigma = 0.
SIGMA_ZERO_BELOW_DB = 0.5


def make_points(seed: int, count: int = POINTS_PER_OP) -> list[dict]:
    """``count`` operating points drawn from the workload seed.

    Each range is cut into ``count`` equal strata and every stratum is used
    once (Latin hypercube), so seeds differ in which combinations they pair,
    not in how much of each range they cover.
    """
    rng = random.Random(seed)
    columns = {}
    for name, (low, high) in RANGES.items():
        strata = list(range(count))
        rng.shuffle(strata)
        columns[name] = [low + (high - low) * (k + rng.random()) / count for k in strata]
    points = [{name: column[i] for name, column in columns.items()} for i in range(count)]
    for point in points:
        if point["fading_sigma_db"] < SIGMA_ZERO_BELOW_DB:
            point["fading_sigma_db"] = 0.0
    return points


def keep_going(elapsed: float, last_op: float, seconds: float) -> bool:
    """Start another operation only if it would end nearer to ``seconds`` than stopping."""
    return elapsed + last_op / 2 < seconds


def build_system(base, point: dict):
    """Apply a point to the default system through the public API."""
    from plcvlc import sweeps

    system = base
    for name in ("led_height", "cell_radius", "relay_power", "plc_distance", "rate_threshold"):
        system = sweeps.with_variable(system, name, point[name])
    return dataclasses.replace(
        system,
        plc=dataclasses.replace(system.plc, fading_sigma_db=point["fading_sigma_db"]),
        vlc=dataclasses.replace(system.vlc, semi_angle_rad=math.radians(point["semi_angle_deg"])),
    )


def evaluate(system) -> list[float]:
    """Every analytic value of one point, ordered as ``gate.GRID_FIELDS``."""
    from plcvlc import plc_link, relay, vlc_link

    threshold = relay.rate_to_snr_threshold(system.rate_threshold_bits, system.duplex_factor)
    return [
        threshold,
        plc_link.avg_capacity(system.plc),
        vlc_link.avg_capacity_closed(system.vlc),
        vlc_link.avg_capacity_quad(system.vlc),
        plc_link.outage(system.plc, threshold),
        vlc_link.outage(system.vlc, threshold),
        relay.e2e_outage_analytic(system),
        relay.e2e_avg_capacity_numeric(system),
    ]


def run_points(base, points: list[dict]) -> tuple[list[list[float]], list[float]]:
    """(results per point, seconds per point) for points applied to ``base``."""
    results, seconds = [], []
    for point in points:
        start = time.perf_counter()
        results.append(evaluate(build_system(base, point)))
        seconds.append(time.perf_counter() - start)
    return results, seconds


def run_op(points: list[dict], chunk_done=None) -> tuple[list[list[float]], list[float]]:
    """One operation: (results per point, seconds per point).

    The points are evaluated in chunks of ``CHUNK_POINTS``; ``chunk_done``, if
    given, is called with each chunk's per-point seconds after the chunk.
    """
    from plcvlc import config

    base, _ = config.load_config(None)
    results, seconds = [], []
    for start in range(0, len(points), CHUNK_POINTS):
        chunk_results, chunk_seconds = run_points(base, points[start:start + CHUNK_POINTS])
        results += chunk_results
        seconds += chunk_seconds
        if chunk_done is not None:
            chunk_done(chunk_seconds)
    return results, seconds


def base_echo() -> list[str]:
    """The program's echo of the default parameter set the points modify."""
    from plcvlc import config

    return config.echo_lines(*config.load_config(None))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--points", type=int, default=POINTS_PER_OP)
    args = parser.parse_args()
    points = make_points(args.seed, args.points)

    ops = []
    calibrations = [calibrate()]
    started = time.perf_counter()
    while len(ops) < MIN_OPS or keep_going(
        time.perf_counter() - started, sum(c["wall_s"] for c in ops[-1]["chunks"]), args.seconds
    ):
        # The operation is timed in chunks with a calibration after each, so
        # the calibrations sample the machine's speed all through the run;
        # their own time is left out of the operation's.
        chunks = []
        clock = [time.perf_counter(), time.process_time()]

        def chunk_done(point_s: list[float]) -> None:
            chunks.append({
                "wall_s": time.perf_counter() - clock[0],
                "cpu_s": time.process_time() - clock[1],
                "point_s": point_s,
            })
            calibrations.append(calibrate())
            clock[:] = [time.perf_counter(), time.process_time()]

        results, _ = run_op(points, chunk_done)
        ops.append({"chunks": chunks, "results": results})
    json.dump({"echo": base_echo(), "ops": ops, "calibration_s": calibrations}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
