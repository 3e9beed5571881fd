"""Per-layer metrics for the traced run.

The layers are the modules of ``src/plcvlc`` plus interpreter start and
imports.  Span names are ``<layer>.<function>``.  Which end-to-end metric each
layer metric should move, and on which workload, is written in README.md.

Per-call times (``*_us``, ``*_ms``) are mean inclusive durations of the
wrapped calls.  Where a workload makes no call of that kind there is nothing
to measure: the time is reported as 0 and ``absent`` names it with the reason.
"""

from __future__ import annotations

import re
import statistics
import time
from collections import defaultdict

from spans import has_ancestor, self_times

# specfun.hyp2f1 leaves the Pfaff series for the 1/z connection formula below
# this argument.
HYP2F1_INVERSION_Z = -200.0

# Raw draws of one engine batch, by metric prefix (montecarlo._batch_stats):
# normals for the PLC hop, then uniforms for the VLC hop.
_DRAWS = {"plc": "normal", "vlc": "uniform", "e2e": "normal+uniform"}

UNITS = {
    "import.scipy_s": "s",
    "import.plcvlc_s": "s",
    "montecarlo.estimate_calls": "count",
    "montecarlo.batches": "count",
    "montecarlo.estimate_s": "s",
    "montecarlo.draw_ms_per_batch": "ms",
    "montecarlo.plc_transform_ms_per_batch": "ms",
    "montecarlo.vlc_transform_ms_per_batch": "ms",
    "montecarlo.reduce_ms_per_batch": "ms",
    "montecarlo.redundant_draw_share": "share",
    "relay.e2e_numeric_ms": "ms",
    "relay.e2e_numeric_calls": "count",
    "relay.e2e_numeric_outage_calls": "count",
    "relay.e2e_outage_analytic_us": "us",
    "vlc_link.avg_capacity_closed_us": "us",
    "vlc_link.avg_capacity_quad_us": "us",
    "vlc_link.outage_us": "us",
    "vlc_link.outage_calls": "count",
    "specfun.hyp2f1_calls": "count",
    "specfun.hyp2f1_us": "us",
    "specfun.hyp2f1_inversion_share": "share",
    "specfun.gauss_hermite_first_us": "us",
    "plc_link.avg_capacity_us": "us",
    "plc_link.avg_capacity_calls": "count",
    "plc_link.outage_us": "us",
    "plc_link.outage_calls": "count",
    "plc_link.sigma0_share": "share",
    "sweeps.self_s": "s",
    "sweeps.points": "count",
    "config.load_config_ms": "ms",
    "cli.format_ms": "ms",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.threads": "count",
}


def _estimate_note(metric, system, cfg, workers=1):
    return metric, int(cfg.seed), int(cfg.trials), int(cfg.batch_size)


def targets():
    """(module, attribute, span name, note) for every attribute callers resolve."""
    from plcvlc import cli, config, montecarlo, plc_link, relay, sweeps, vlc_link

    return [
        (cli, "main", "cli.main", None),
        (cli, "report_csv", "cli.report_csv", None),
        (cli, "validation_lines", "cli.validation_lines", None),
        (cli, "load_config", "config.load_config", None),
        (config, "load_config", "config.load_config", None),
        (cli, "run_sweep", "sweeps.run_sweep", None),
        (cli, "run_validation", "sweeps.run_validation", None),
        (sweeps, "with_variable", "sweeps.with_variable", None),
        (cli, "estimate", "montecarlo.estimate", _estimate_note),
        (sweeps, "estimate", "montecarlo.estimate", _estimate_note),
        (montecarlo, "sample_plc_snr", "montecarlo.sample_plc_snr", None),
        (montecarlo, "sample_vlc_snr", "montecarlo.sample_vlc_snr", None),
        (plc_link, "avg_capacity", "plc_link.avg_capacity", lambda p: p.fading_sigma_db == 0.0),
        (plc_link, "outage", "plc_link.outage", None),
        (plc_link, "gauss_hermite", "specfun.gauss_hermite", None),
        (vlc_link, "avg_capacity_closed", "vlc_link.avg_capacity_closed", None),
        (vlc_link, "avg_capacity_quad", "vlc_link.avg_capacity_quad", None),
        (vlc_link, "outage", "vlc_link.outage", None),
        (vlc_link, "hyp2f1", "specfun.hyp2f1", lambda a, b, c, z: z),
        (relay, "e2e_outage_analytic", "relay.e2e_outage_analytic", None),
        (relay, "e2e_avg_capacity_numeric", "relay.e2e_avg_capacity_numeric", None),
    ]


# Per-call metric -> (span names, seconds-to-unit scale).
_PER_CALL = {
    "relay.e2e_numeric_ms": (("relay.e2e_avg_capacity_numeric",), 1e3),
    "relay.e2e_outage_analytic_us": (("relay.e2e_outage_analytic",), 1e6),
    "vlc_link.avg_capacity_closed_us": (("vlc_link.avg_capacity_closed",), 1e6),
    "vlc_link.avg_capacity_quad_us": (("vlc_link.avg_capacity_quad",), 1e6),
    "vlc_link.outage_us": (("vlc_link.outage",), 1e6),
    "specfun.hyp2f1_us": (("specfun.hyp2f1",), 1e6),
    "plc_link.avg_capacity_us": (("plc_link.avg_capacity",), 1e6),
    "plc_link.outage_us": (("plc_link.outage",), 1e6),
    "config.load_config_ms": (("config.load_config",), 1e3),
    "cli.format_ms": (("cli.report_csv", "cli.validation_lines"), 1e3),
}

_COUNTS = {
    "montecarlo.estimate_calls": "montecarlo.estimate",
    "relay.e2e_numeric_calls": "relay.e2e_avg_capacity_numeric",
    "vlc_link.outage_calls": "vlc_link.outage",
    "specfun.hyp2f1_calls": "specfun.hyp2f1",
    "plc_link.avg_capacity_calls": "plc_link.avg_capacity",
    "plc_link.outage_calls": "plc_link.outage",
}


def _share(flags) -> float:
    flags = list(flags)
    return sum(flags) / len(flags) if flags else 0.0


def span_metrics(spans, points: int) -> dict:
    """Layer metrics of one traced operation; per-call times are None when uncalled."""
    by_name = defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span.name].append(index)
    metrics = {}
    for metric, (names, scale) in _PER_CALL.items():
        durations = [spans[i].duration for name in names for i in by_name[name]]
        metrics[metric] = statistics.fmean(durations) * scale if durations else None
    for metric, name in _COUNTS.items():
        metrics[metric] = len(by_name[name])
    metrics["montecarlo.estimate_s"] = sum(spans[i].duration for i in by_name["montecarlo.estimate"])

    notes = [spans[i].note for i in by_name["montecarlo.estimate"]]
    metrics["montecarlo.batches"] = sum(-(-trials // batch) for _, _, trials, batch in notes)
    # A call redraws an earlier call's streams when seed, trial count, batch
    # size and the kinds of draw all match.
    seen = set()
    repeats = []
    for metric, seed, trials, batch in notes:
        key = (seed, trials, batch, _DRAWS[metric.split("_", 1)[0]])
        repeats.append(key in seen)
        seen.add(key)
    metrics["montecarlo.redundant_draw_share"] = _share(repeats)

    numeric = "relay.e2e_avg_capacity_numeric"
    metrics["relay.e2e_numeric_outage_calls"] = sum(
        has_ancestor(spans, i, numeric)
        for name in ("plc_link.outage", "vlc_link.outage")
        for i in by_name[name]
    )
    metrics["specfun.hyp2f1_inversion_share"] = _share(
        spans[i].note < HYP2F1_INVERSION_Z for i in by_name["specfun.hyp2f1"]
    )
    metrics["plc_link.sigma0_share"] = _share(spans[i].note for i in by_name["plc_link.avg_capacity"])
    own = self_times(spans)
    metrics["sweeps.self_s"] = sum(t for span, t in zip(spans, own) if span.layer == "sweeps")
    metrics["sweeps.points"] = points
    metrics["trace.spans"] = len(spans)
    metrics["trace.threads"] = len({span.thread for span in spans})
    return metrics


def _seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def batch_metrics(system, seed: int, batch_size: int, rounds: int) -> dict:
    """Outside microbenchmark of one full engine batch at one operating point.

    Draws use a Philox stream keyed like the engine's batch 0; the transforms
    run through the public ``sample_*_snr``; the whole batch is a one-batch
    ``estimate``.  The four are timed in interleaved rounds, so a slow spell
    of the machine hits them alike, and each reports its median.  The
    reduction is not timed on its own: it is derived as the batch time minus
    draws and transforms.
    """
    import numpy as np

    from plcvlc import montecarlo

    def draw():
        stream = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
        )
        return stream.standard_normal(batch_size), stream.random(batch_size)

    normals, uniforms = draw()
    cfg = montecarlo.McConfig(trials=batch_size, seed=seed, batch_size=batch_size)
    parts = {
        "draw": draw,
        "plc": lambda: montecarlo.sample_plc_snr(system.plc, normals),
        "vlc": lambda: montecarlo.sample_vlc_snr(system.vlc, uniforms),
        "batch": lambda: montecarlo.estimate("e2e_avg_capacity", system, cfg),
    }
    samples = defaultdict(list)
    for _ in range(rounds):
        for name, fn in parts.items():
            samples[name].append(_seconds(fn))
    ms = {name: statistics.median(values) * 1e3 for name, values in samples.items()}
    return {
        "montecarlo.draw_ms_per_batch": ms["draw"],
        "montecarlo.plc_transform_ms_per_batch": ms["plc"],
        "montecarlo.vlc_transform_ms_per_batch": ms["vlc"],
        "montecarlo.reduce_ms_per_batch": ms["batch"] - ms["draw"] - ms["plc"] - ms["vlc"],
    }


IMPORT_PROBE = """\
import time
import plcvlc.cli
from plcvlc import config, plc_link
system, _ = config.load_config(None)
start = time.perf_counter()
plc_link.gauss_hermite(system.plc.quadrature_order)
print(time.perf_counter() - start)
"""

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)\s*$")


def import_metrics(stdout: str, stderr: str) -> dict:
    """Self import time by package from ``-X importtime``, and the first GH rule build."""
    self_us = defaultdict(int)
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            self_us[match.group(2).split(".", 1)[0]] += int(match.group(1))
    return {
        "import.scipy_s": self_us["scipy"] / 1e6,
        "import.plcvlc_s": self_us["plcvlc"] / 1e6,
        "specfun.gauss_hermite_first_us": float(stdout.strip().splitlines()[-1]) * 1e6,
    }


def merge(per_op: list[dict]) -> dict:
    """Median of each metric over the traced operations; None if never called."""
    merged = {}
    for name in per_op[0]:
        values = [op[name] for op in per_op]
        merged[name] = None if None in values else statistics.median(values)
    return merged


def absent(metrics: dict) -> dict[str, str]:
    """Set per-call times of calls the workload never made to 0; name them with the reason."""
    reasons = {}
    for name, value in metrics.items():
        if value is None:
            metrics[name] = 0.0
            reasons[name] = "the workload makes no such call"
    return reasons
