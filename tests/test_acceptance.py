"""Acceptance suite: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy import integrate

from plcvlc import load_config, montecarlo, plc_link, relay, specfun, vlc_link
from plcvlc.montecarlo import McConfig, estimate
from plcvlc.sweeps import FIGURE_PRESETS, report_csv, run_sweep

TRIALS = 1_000_000
SEED = 2026


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name} failed{suffix}"


@pytest.fixture(scope="module")
def system():
    system, _ = load_config(None)
    return system


# ---------------------------------------------------------------------------
# 1. Analytic <-> Monte Carlo closure at the default operating point
# ---------------------------------------------------------------------------

def test_analytic_monte_carlo_closure(system):
    started = time.perf_counter()
    cfg = McConfig(trials=TRIALS, seed=SEED)
    failures = []

    capacity_targets = {
        "plc_avg_capacity": plc_link.avg_capacity(system.plc),
        "vlc_avg_capacity": vlc_link.avg_capacity_closed(system.vlc),
        "e2e_avg_capacity": relay.e2e_avg_capacity_numeric(system),
    }
    for metric, analytic in capacity_targets.items():
        sampled = estimate(metric, system, cfg)
        if abs(analytic - sampled.mean) > 3.0 * sampled.std_error:
            failures.append(f"{metric}: {analytic} vs {sampled.mean} +/- {sampled.std_error}")

    for rate in (0.5, 1.0, 2.0):
        s = dataclasses.replace(system, rate_threshold_bits=rate)
        threshold = relay.rate_to_snr_threshold(rate, s.duplex_factor)
        outage_targets = {
            "plc_outage": plc_link.outage(s.plc, threshold),
            "vlc_outage": vlc_link.outage(s.vlc, threshold),
            "e2e_outage": relay.e2e_outage_analytic(s),
        }
        for metric, analytic in outage_targets.items():
            sampled = estimate(metric, s, cfg)
            if abs(analytic - sampled.mean) > 3.0 * sampled.std_error:
                failures.append(
                    f"{metric}@R={rate}: {analytic} vs {sampled.mean} +/- {sampled.std_error}"
                )

    elapsed = time.perf_counter() - started
    _report(
        "analytic-vs-monte-carlo closure",
        not failures and elapsed < 30.0,
        f"{TRIALS} trials, {elapsed:.1f}s" + ("; " + "; ".join(failures) if failures else ""),
    )


# ---------------------------------------------------------------------------
# 2. Closed form vs quadrature over the random parameter grid
# ---------------------------------------------------------------------------

def test_closed_form_vs_quadrature_grid(system):
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        p = dataclasses.replace(
            system.vlc,
            tx_power_w=10 ** rng.uniform(-2.0, 6.0),
            noise_variance=1.0,
            height_m=rng.uniform(1.5, 4.0),
            cell_radius_m=rng.uniform(1.0, 6.0),
            semi_angle_rad=math.radians(rng.uniform(20.0, 80.0)),
        )
        closed = vlc_link.avg_capacity_closed(p)
        quad = vlc_link.avg_capacity_quad(p)
        worst = max(worst, abs(closed - quad) / abs(quad))
    elapsed = time.perf_counter() - started
    _report(
        "closed form vs quadrature",
        worst <= 1e-7 and elapsed < 5.0,
        f"worst rel {worst:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 3. Distribution correctness of the squared VLC gain
# ---------------------------------------------------------------------------

def test_gain_distribution_correctness(system):
    p = system.vlc
    n = 1_000_000
    rng = np.random.default_rng(505)
    v = rng.random(n)
    sample = np.sort(vlc_link.gain_sq(v, vlc_link.gain_sq_law(p), np.empty_like(v)))
    cdf = vlc_link.gain_sq_cdf(sample, p)
    ranks = np.arange(1, n + 1)
    statistic = max(float(np.max(ranks / n - cdf)), float(np.max(cdf - (ranks - 1) / n)))
    critical = 1.6276 / math.sqrt(n)

    t_min, t_max = p.law.t_min, p.law.t_max
    total, _ = integrate.quad(lambda x: vlc_link.gain_sq_pdf(x, p), t_min, t_max,
                              epsabs=1e-13, epsrel=1e-12, limit=200)
    _report(
        "gain distribution correctness",
        statistic < critical and abs(total - 1.0) <= 1e-9,
        f"KS {statistic:.2e} < {critical:.2e}, pdf mass error {abs(total - 1.0):.1e}",
    )


# ---------------------------------------------------------------------------
# 4. Convergence of the power-line capacity rule in its nodes per panel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sigma", [1.0, 3.0, 6.0])
def test_quadrature_convergence(system, sigma, monkeypatch):
    p = dataclasses.replace(system.plc, fading_sigma_db=sigma)
    sizes = []
    rule = plc_link._z_rule

    def recording(*args):
        z, w = rule(*args)
        sizes.append(z.size)
        return z, w

    monkeypatch.setattr(plc_link, "_z_rule", recording)
    value = plc_link.avg_capacity(p)
    monkeypatch.setattr(plc_link, "PANEL_ORDER", 2 * specfun.PANEL_ORDER)
    doubled = plc_link.avg_capacity(p)
    rel = abs(value - doubled) / abs(doubled)
    _report(
        f"quadrature convergence sigma={sigma}",
        rel <= 1e-8 and sizes[1] == 2 * sizes[0],
        f"rel diff {rel:.2e} between {sizes[0]} and {sizes[1]} nodes",
    )


# ---------------------------------------------------------------------------
# 5. Trend reproduction for the four figure presets
# ---------------------------------------------------------------------------

def _by_family(report):
    grouped = {}
    for record in report.records:
        grouped.setdefault(record.family_value, []).append(record)
    return grouped


def _by_grid_point(report):
    grouped = {}
    for record in report.records:
        grouped.setdefault(record.swept_value, []).append(record)
    return grouped


@pytest.mark.parametrize("number", [2, 3, 4, 5])
def test_figure_trends(system, number):
    spec = FIGURE_PRESETS[number]
    mc = McConfig(trials=4000, seed=77)
    report = run_sweep(spec, system, mc)
    problems = []

    for family_value, records in _by_family(report).items():
        records.sort(key=lambda r: r.swept_value)
        if number in (2, 3):
            caps = [r.vlc_capacity for r in records]
            if not all(b > a for a, b in zip(caps, caps[1:])):
                problems.append(f"capacity not increasing in relay power at {family_value}")
            bounds = [r.e2e_capacity_bound for r in records]
            if not all(b >= a for a, b in zip(bounds, bounds[1:])):
                problems.append(f"capacity bound decreasing at {family_value}")
        else:
            outs = [r.e2e_outage for r in records]
            if not all(b > a for a, b in zip(outs, outs[1:])):
                problems.append(f"outage not increasing in rate threshold at {family_value}")

    for swept_value, records in _by_grid_point(report).items():
        records.sort(key=lambda r: r.family_value)
        if number in (2, 3):
            # Larger LED height (fig 2) or cell radius (fig 3) lowers capacity.
            caps = [r.vlc_capacity for r in records]
            if not all(b < a for a, b in zip(caps, caps[1:])):
                problems.append(f"family ordering broken at swept value {swept_value}")
            bounds = [r.e2e_capacity_bound for r in records]
            if not all(b <= a for a, b in zip(bounds, bounds[1:])):
                problems.append(f"bound family ordering broken at {swept_value}")
        elif number == 4:
            # Larger LED height raises outage.
            outs = [r.e2e_outage for r in records]
            if not all(b > a for a, b in zip(outs, outs[1:])):
                problems.append(f"outage not increasing in height at {swept_value}")
        else:
            # Larger relay power lowers outage.
            outs = [r.e2e_outage for r in records]
            if not all(b < a for a, b in zip(outs, outs[1:])):
                problems.append(f"outage not decreasing in relay power at {swept_value}")

    _report(f"figure {number} trends", not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# 6. Composition identities
# ---------------------------------------------------------------------------

def test_composition_identities(system):
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(10_000):
        p1, p2 = rng.uniform(0.0, 1.0, 2)
        worst = max(worst, abs(relay.e2e_outage(p1, p2) - (1.0 - (1.0 - p1) * (1.0 - p2))))
    zero_rate = relay.e2e_outage_analytic(dataclasses.replace(system, rate_threshold_bits=0.0))
    saturated = relay.e2e_outage_analytic(dataclasses.replace(system, rate_threshold_bits=60.0))
    _report(
        "composition identities",
        worst <= 1e-15 and zero_rate == 0.0 and abs(saturated - 1.0) <= 1e-12,
        f"identity error {worst:.1e}, P(R=0)={zero_rate}, P(R=60)={saturated}",
    )


# ---------------------------------------------------------------------------
# 7. Determinism of sweep output
# ---------------------------------------------------------------------------

def test_sweep_determinism(system):
    from plcvlc.sweeps import SweepSpec

    spec = SweepSpec("relay_power", 0.05, 0.2, 3, "led_height", (2.15, 3.0))
    mc = McConfig(trials=4000, seed=11, batch_size=512)
    outputs = [
        report_csv(run_sweep(spec, system, mc, workers=workers), system, mc)
        for workers in (1, 1, 3, 4)
    ]
    identical = all(text == outputs[0] for text in outputs[1:])
    _report("sweep determinism", identical, f"{len(outputs)} runs, workers 1/1/3/4")
