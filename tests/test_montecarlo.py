import dataclasses
import math

import numpy as np
import pytest

from plcvlc import montecarlo, plc_link, relay, vlc_link
from plcvlc.errors import ParameterError
from plcvlc.montecarlo import (
    METRICS,
    Estimate,
    McConfig,
    estimate,
    estimate_many,
    sample_plc_snr,
    sample_vlc_snr,
)


# ---------------------------------------------------------------------------
# configuration invariants
# ---------------------------------------------------------------------------

def test_trials_floor_refused():
    with pytest.raises(ParameterError) as err:
        McConfig(trials=10)
    assert "1000" in str(err.value).replace(",", "")


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5])
def test_bad_seed_refused(seed):
    with pytest.raises(ParameterError):
        McConfig(trials=10_000, seed=seed)


def test_bad_batch_size_refused():
    with pytest.raises(ParameterError):
        McConfig(trials=10_000, batch_size=0)


def test_unknown_metric_refused(default_system):
    with pytest.raises(ParameterError):
        estimate("bit_error_rate", default_system, McConfig(trials=10_000))


# ---------------------------------------------------------------------------
# per-draw samplers
# ---------------------------------------------------------------------------

def test_plc_sampler_median_draw(default_system):
    p = default_system.plc
    median = plc_link.snr_scale(p) * 10.0 ** (p.fading_mu_db / 5.0)
    assert sample_plc_snr(p, 0.0) == pytest.approx(median, rel=1e-14)


def test_plc_sampler_deterministic_without_spread(default_system):
    p = dataclasses.replace(default_system.plc, fading_sigma_db=0.0)
    values = {sample_plc_snr(p, u) for u in (-3.0, 0.0, 1.7)}
    assert len(values) == 1


def test_plc_sampler_positive_vectorized(default_system):
    draws = sample_plc_snr(default_system.plc, np.linspace(-5, 5, 101))
    assert draws.shape == (101,)
    assert np.all(draws > 0)


def test_vlc_sampler_extremes(default_system):
    p = default_system.vlc
    t_min, t_max = vlc_link.gain_sq_support(p)
    rho = p.tx_power_w / p.noise_variance
    assert sample_vlc_snr(p, 0.0) == pytest.approx(rho * t_max, rel=1e-12)
    assert sample_vlc_snr(p, 1.0) == pytest.approx(rho * t_min, rel=1e-12)


def test_vlc_sampler_inverts_location_law(default_system):
    # r_k = r * sqrt(v) should reproduce the squared-gain CDF.
    p = default_system.vlc
    rng = np.random.default_rng(14)
    n = 1_000_000
    gamma = sample_vlc_snr(p, rng.random(n))
    sample = np.sort(gamma * p.noise_variance / p.tx_power_w)
    cdf = vlc_link.gain_sq_cdf(sample, p)
    ranks = np.arange(1, n + 1)
    statistic = max(float(np.max(ranks / n - cdf)), float(np.max(cdf - (ranks - 1) / n)))
    assert statistic < 1.6276 / math.sqrt(n)


def test_hop_streams_uncorrelated(default_system):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(5)))
    n = 1_000_000
    gamma_plc = sample_plc_snr(default_system.plc, rng.standard_normal(n))
    gamma_vlc = sample_vlc_snr(default_system.vlc, rng.random(n))
    corr = float(np.corrcoef(gamma_plc, gamma_vlc)[0, 1])
    assert abs(corr) < 3.0 / math.sqrt(n)


# ---------------------------------------------------------------------------
# estimates
# ---------------------------------------------------------------------------

def test_estimate_reproducible(default_system):
    cfg = McConfig(trials=50_000, seed=42, batch_size=4096)
    first = estimate("e2e_avg_capacity", default_system, cfg)
    second = estimate("e2e_avg_capacity", default_system, cfg)
    assert first == second
    assert first.trials == 50_000 and first.seed == 42


def test_estimate_identical_across_worker_counts(default_system):
    cfg = McConfig(trials=200_000, seed=7, batch_size=8192)
    for metric in METRICS:
        serial = estimate(metric, default_system, cfg, workers=1)
        threaded = estimate(metric, default_system, cfg, workers=4)
        assert serial == threaded


def test_estimate_seed_changes_draws(default_system):
    a = estimate("e2e_outage", default_system, McConfig(trials=20_000, seed=1))
    b = estimate("e2e_outage", default_system, McConfig(trials=20_000, seed=2))
    assert a.mean != b.mean


def test_zero_rate_outage_estimate(default_system):
    s = dataclasses.replace(default_system, rate_threshold_bits=0.0)
    est = estimate("e2e_outage", s, McConfig(trials=10_000, seed=3))
    assert est == Estimate(mean=0.0, std_error=0.0, trials=10_000, seed=3)


def test_degenerate_system_has_no_spread(default_system):
    plc = dataclasses.replace(default_system.plc, fading_sigma_db=0.0)
    vlc = dataclasses.replace(default_system.vlc, cell_radius_m=1e-9)
    s = dataclasses.replace(default_system, plc=plc, vlc=vlc)
    c_plc = math.log2(1.0 + plc_link.snr_scale(plc) * 10.0 ** (plc.fading_mu_db / 5.0))
    c_vlc = math.log2(
        1.0 + vlc.tx_power_w / vlc.noise_variance * vlc_link.gain_sq_support(vlc)[1]
    )
    expected = {
        "plc_avg_capacity": c_plc,
        "vlc_avg_capacity": c_vlc,
        "e2e_avg_capacity": s.duplex_factor * min(c_plc, c_vlc),
        "plc_outage": 0.0,
        "vlc_outage": 0.0,
        "e2e_outage": 0.0,
    }
    cfg = McConfig(trials=5_000, seed=11)
    for metric in METRICS:
        est = estimate(metric, s, cfg)
        assert est.std_error == 0.0
        assert est.mean == pytest.approx(expected[metric], rel=1e-12, abs=1e-15)


def test_std_error_scaling(default_system):
    small = estimate("e2e_avg_capacity", default_system, McConfig(trials=40_000, seed=8))
    large = estimate("e2e_avg_capacity", default_system, McConfig(trials=80_000, seed=8))
    ratio = large.std_error / small.std_error
    assert ratio == pytest.approx(1.0 / math.sqrt(2.0), rel=0.1)


def test_estimates_close_with_correlated_batches(default_system):
    # Same seed, different batch size: statistically equivalent estimates.
    a = estimate("plc_outage", default_system, McConfig(trials=100_000, seed=5, batch_size=1 << 14))
    b = estimate("plc_outage", default_system, McConfig(trials=100_000, seed=5, batch_size=1 << 12))
    assert abs(a.mean - b.mean) <= 4.0 * math.hypot(a.std_error, b.std_error)


def test_each_metric_tracks_analytic_value(default_system):
    cfg = McConfig(trials=200_000, seed=3)
    threshold = relay.rate_to_snr_threshold(
        default_system.rate_threshold_bits, default_system.duplex_factor
    )
    analytic = {
        "plc_avg_capacity": plc_link.avg_capacity(default_system.plc),
        "vlc_avg_capacity": vlc_link.avg_capacity_closed(default_system.vlc),
        "e2e_avg_capacity": relay.e2e_avg_capacity_numeric(default_system),
        "plc_outage": plc_link.outage(default_system.plc, threshold),
        "vlc_outage": vlc_link.outage(default_system.vlc, threshold),
        "e2e_outage": relay.e2e_outage_analytic(default_system),
    }
    for metric in METRICS:
        est = estimate(metric, default_system, cfg)
        assert abs(analytic[metric] - est.mean) <= 3.0 * est.std_error, metric


# ---------------------------------------------------------------------------
# shared sampling pass
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workers", [1, 3])
def test_shared_pass_matches_standalone_estimates(default_system, workers):
    systems = [
        default_system,
        dataclasses.replace(
            default_system, plc=dataclasses.replace(default_system.plc, distance_m=80.0)
        ),
        dataclasses.replace(
            default_system, vlc=dataclasses.replace(default_system.vlc, height_m=3.0)
        ),
        dataclasses.replace(default_system, rate_threshold_bits=1.6),
        dataclasses.replace(default_system, rate_threshold_bits=40.0),  # always in outage
        dataclasses.replace(  # no spread at all
            default_system,
            plc=dataclasses.replace(default_system.plc, fading_sigma_db=0.0),
            vlc=dataclasses.replace(default_system.vlc, cell_radius_m=1e-9),
        ),
    ]
    # 10_000 trials in batches of 4096: the last batch is partial.
    cfg = McConfig(trials=10_000, seed=13, batch_size=4096)
    requests = [(metric, system) for system in systems for metric in METRICS]
    requests += requests[:3]  # repeated requests share one reduction
    shared = estimate_many(requests, cfg, workers=workers)
    assert len(shared) == len(requests)
    for (metric, system), est in zip(requests, shared):
        assert est == estimate(metric, system, cfg), metric
        if system is systems[-1]:
            assert est.std_error == 0.0
        if system is systems[-2] and metric.endswith("outage"):
            assert (est.mean, est.std_error) == (1.0, 0.0)


def test_shared_pass_of_nothing_is_empty():
    assert estimate_many([], McConfig(trials=10_000)) == []


def test_worker_pool_capped_at_batch_count(default_system, monkeypatch):
    requested = []

    class Recorder(montecarlo.ThreadPoolExecutor):
        def __init__(self, max_workers):
            requested.append(max_workers)
            assert max_workers == 3
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Recorder)
    cfg = McConfig(trials=10_000, seed=2, batch_size=4096)
    threaded = estimate("e2e_outage", default_system, cfg, workers=10 ** 6)
    assert requested == [3]
    assert threaded == estimate("e2e_outage", default_system, cfg)


# ---------------------------------------------------------------------------
# the decode-and-forward path SNR
# ---------------------------------------------------------------------------

def _snr_pairs():
    """Wide log-normal SNR pairs, and runs of adjacent floats from 0 to 1e308 and inf."""
    rng = np.random.default_rng(29)
    a = np.exp(rng.normal(0.0, 30.0, 1 << 20))
    b = np.exp(rng.normal(0.0, 30.0, 1 << 20))
    starts = [0.0, 1e-320, 1e-300, *np.logspace(-200, 308, 60)]
    runs = np.concatenate([s + np.arange(64) * np.spacing(s) for s in starts] + [[np.inf]])
    edges = np.concatenate([runs, runs[::-1], np.full(runs.size, 1.0)])
    return np.concatenate([a, edges]), np.concatenate([b, edges[::-1]])


def test_path_snr_has_the_bits_of_the_hop_by_hop_reductions():
    a, b = _snr_pairs()
    assert not np.any(np.isnan(a) | np.isnan(b))
    path = np.minimum(a, b)
    for level in (0.5, 1.0, 0.25):
        hop_by_hop = level * np.minimum(np.log2(1.0 + a), np.log2(1.0 + b))
        assert np.array_equal(level * np.log2(1.0 + path), hop_by_hop)
    for threshold in (0.0, 1.0, 3.0, 1e-310, 1e300, np.inf):
        assert np.array_equal(path < threshold, (a < threshold) | (b < threshold))


def test_e2e_estimate_reduces_the_smaller_hop_capacity(default_system):
    # One batch, reduced hop by hop from the documented stream positions:
    # the normals first, the e2e uniforms after them.
    cfg = McConfig(trials=8192, seed=21, batch_size=8192)
    rng = montecarlo._batch_rng(cfg.seed, 0)
    plc = sample_plc_snr(default_system.plc, rng.standard_normal(cfg.trials))
    vlc = sample_vlc_snr(default_system.vlc, rng.random(cfg.trials))
    capacity = default_system.duplex_factor * np.minimum(np.log2(1.0 + plc), np.log2(1.0 + vlc))
    threshold = relay.rate_to_snr_threshold(
        default_system.rate_threshold_bits, default_system.duplex_factor
    )
    hits = np.count_nonzero((plc < threshold) | (vlc < threshold))
    mean_capacity = float(np.sum(capacity)) / cfg.trials
    assert estimate("e2e_avg_capacity", default_system, cfg).mean == mean_capacity
    assert estimate("e2e_outage", default_system, cfg).mean == hits / cfg.trials


@pytest.mark.parametrize("radius", [1e-3, 1e-4, 1e-6])
def test_unresolved_spread_reports_its_bound(default_system, radius):
    # The capacity varies across a narrow cell by far less than the rounding
    # of the one-pass variance, which used to come out as 0 or as noise.
    s = dataclasses.replace(
        default_system, vlc=dataclasses.replace(default_system.vlc, cell_radius_m=radius)
    )
    cfg = McConfig(trials=100_000, seed=1)
    est = estimate("vlc_avg_capacity", s, cfg)
    t_min, t_max = vlc_link.gain_sq_support(s.vlc)
    rho = s.vlc.tx_power_w / s.vlc.noise_variance
    spread = math.log2(1.0 + rho * t_max) - math.log2(1.0 + rho * t_min)
    assert 0.0 < est.std_error <= spread / (2.0 * math.sqrt(cfg.trials - 1)) * 1.0001
    assert abs(vlc_link.avg_capacity_closed(s.vlc) - est.mean) <= 3.0 * est.std_error
