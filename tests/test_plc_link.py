import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from plcvlc.config import load_config
from plcvlc.errors import ParameterError
from plcvlc.montecarlo import MIN_TRIALS, McConfig, estimate_many, sample_plc_snr
from plcvlc.plc_link import (
    PlcLinkParams,
    attenuation_coeff,
    avg_capacity,
    outage,
    snr_scale,
)

mp.mp.dps = 30


def make_params(**overrides):
    base = dict(
        frequency_hz=5e5,
        atten_k=0.7,
        atten_a0=2.03e-3,
        atten_a1=3.75e-7,
        distance_m=30.0,
        tx_power_w=0.1,
        noise_variance=1e-3,
        fading_mu_db=0.0,
        fading_sigma_db=3.0,
        quadrature_order=30,
    )
    base.update(overrides)
    return PlcLinkParams(**base)


def reference_noise_for_median_snr(median_snr, mu_db=0.0):
    """Noise variance that pins the median relay SNR a * 10**(mu/5)."""
    p = make_params(fading_mu_db=mu_db)
    alpha = attenuation_coeff(p)
    return p.tx_power_w * math.exp(-2.0 * alpha * p.distance_m) * 10 ** (mu_db / 5.0) / median_snr


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "field,value",
    [
        ("frequency_hz", 0.0),
        ("distance_m", -1.0),
        ("tx_power_w", -1.0),
        ("noise_variance", 0.0),
        ("atten_a0", -1e-3),
        ("atten_a1", -1e-9),
        ("fading_sigma_db", -0.5),
        ("fading_sigma_db", math.inf),
        ("atten_a0", math.nan),
        # the SNR scale P_s * exp(-2*alpha*d) / sigma_r^2 must be a positive
        # normal float (frequency_hz ** atten_k overflows at atten_k = 1e3)
        ("distance_m", 3e5),
        ("frequency_hz", 1e300),
        ("atten_k", 1e3),
        ("atten_a0", 1e6),
        ("tx_power_w", 1e308),
        ("tx_power_w", math.inf),
        ("noise_variance", 1e-320),
    ],
)
def test_rejects_invalid_field(field, value):
    with pytest.raises(ParameterError) as err:
        make_params(**{field: value})
    assert field in str(err.value)


@pytest.mark.parametrize("order", [0, 201, 2.5])
def test_rejects_bad_quadrature_order(order):
    with pytest.raises(ParameterError):
        make_params(quadrature_order=order)


# ---------------------------------------------------------------------------
# attenuation_coeff
# ---------------------------------------------------------------------------

def test_attenuation_default_point():
    # Oracle: 30-digit scalar evaluation of a0 + a1 * f**k.
    expected = float(mp.mpf("2.03e-3") + mp.mpf("3.75e-7") * mp.power(mp.mpf(5e5), mp.mpf("0.7")))
    assert attenuation_coeff(make_params()) == pytest.approx(expected, rel=1e-13)
    assert attenuation_coeff(make_params()) == pytest.approx(5.689e-3, rel=1e-3)


def test_attenuation_without_frequency_term():
    p = make_params(atten_a1=0.0)
    assert attenuation_coeff(p) == p.atten_a0
    doubled = make_params(atten_a1=0.0, atten_a0=2 * p.atten_a0)
    assert attenuation_coeff(doubled) == 2 * attenuation_coeff(p)


def test_attenuation_increases_with_frequency():
    values = [attenuation_coeff(make_params(frequency_hz=f)) for f in (1e5, 5e5, 2e6, 3e7)]
    assert all(b > a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# snr_scale
# ---------------------------------------------------------------------------

def test_snr_scale_pins_median_snr():
    p = make_params(noise_variance=reference_noise_for_median_snr(10.0))
    assert snr_scale(p) == pytest.approx(10.0, rel=1e-12)


def test_snr_scale_without_cable_loss():
    p = make_params(atten_a0=0.0, atten_a1=0.0)
    assert snr_scale(p) == p.tx_power_w / p.noise_variance
    far = make_params(atten_a0=0.0, atten_a1=0.0, distance_m=1e6)
    assert snr_scale(far) == snr_scale(p)


def test_snr_scale_short_cable_limit():
    p = make_params(distance_m=1e-12)
    assert snr_scale(p) == pytest.approx(p.tx_power_w / p.noise_variance, rel=1e-9)


# ---------------------------------------------------------------------------
# avg_capacity
# ---------------------------------------------------------------------------

def test_capacity_degenerate_no_fading():
    p = make_params(fading_sigma_db=0.0, fading_mu_db=0.0)
    assert avg_capacity(p) == pytest.approx(math.log2(1.0 + snr_scale(p)), rel=1e-13)


def test_capacity_degenerate_with_gain():
    # 10 dB amplitude shift is a factor 100 on power: log2(1 + 10**(10/5)).
    noise = make_params().tx_power_w * math.exp(
        -2.0 * attenuation_coeff(make_params()) * 30.0
    )
    p = make_params(fading_sigma_db=0.0, fading_mu_db=10.0, noise_variance=noise)
    assert snr_scale(p) == pytest.approx(1.0, rel=1e-12)
    assert avg_capacity(p) == pytest.approx(math.log2(101.0), rel=1e-13)


def test_capacity_matches_sampling_oracle():
    # E[log2(1 + a * 10**(sigma*u/5))] with u standard normal, 1e7 draws.
    p = make_params(noise_variance=reference_noise_for_median_snr(10.0))
    rng = np.random.default_rng(2024)
    u = rng.standard_normal(10_000_000)
    samples = np.log2(1.0 + snr_scale(p) * 10.0 ** (p.fading_sigma_db * u / 5.0))
    mean = float(samples.mean())
    se = float(samples.std(ddof=1)) / math.sqrt(len(samples))
    assert abs(avg_capacity(p) - mean) <= 3.0 * se


def test_capacity_nondecreasing_in_power():
    values = [avg_capacity(make_params(tx_power_w=w)) for w in (0.01, 0.05, 0.1, 0.5, 2.0)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(v >= 0.0 for v in values)


def test_capacity_jensen_bound():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = make_params(
            tx_power_w=10 ** rng.uniform(-2, 1),
            noise_variance=10 ** rng.uniform(-4, -1),
            distance_m=rng.uniform(5.0, 200.0),
            fading_mu_db=rng.uniform(-6.0, 6.0),
            fading_sigma_db=rng.uniform(0.0, 6.0),
        )
        db_per_neper = 10.0 / math.log(10.0)
        mean_power_gain = 10 ** (p.fading_mu_db / 5.0) * math.exp(
            2.0 * p.fading_sigma_db ** 2 / db_per_neper ** 2
        )
        bound = math.log2(1.0 + snr_scale(p) * mean_power_gain)
        assert avg_capacity(p) <= bound + 1e-9


@pytest.mark.parametrize("sigma", [1.0, 3.0])
def test_capacity_quadrature_converged(sigma):
    p30 = make_params(fading_sigma_db=sigma, noise_variance=reference_noise_for_median_snr(10.0))
    p40 = dataclasses.replace(p30, quadrature_order=40)
    assert avg_capacity(p30) == pytest.approx(avg_capacity(p40), rel=1e-8)


def mpmath_capacity(p):
    """E[log2(1 + a * 10**((mu + sigma*Z)/5))], Z standard normal, by 30-digit quadrature."""
    a = mp.mpf(snr_scale(p))
    mu, sigma = mp.mpf(p.fading_mu_db), mp.mpf(p.fading_sigma_db)

    def integrand(z):
        return mp.log1p(a * mp.power(10, (mu + sigma * z) / 5)) * mp.npdf(z)

    # Break the line where gamma = 1 and across the bend of log(1 + gamma)
    # around it, whose width in z is 5/(sigma*ln 10).
    z_unit = (-5 * mp.log10(a) - mu) / sigma
    width = 5 / (sigma * mp.log(10))
    points = {mp.mpf(v) for v in (-8, 0, 8)}
    points.update(z for z in (z_unit + k * width for k in (-4, -1, 0, 1, 4)) if abs(z) < 40)
    return float(mp.quad(integrand, [-mp.inf, *sorted(points), mp.inf]) / mp.log(2))


def documented_order30_rtol(sigma_db):
    """The order-30 relative accuracy of avg_capacity that the README states."""
    return 3e-15 if sigma_db < 16.0 else 1e-15


@pytest.mark.parametrize("sigma", [1.0, 3.0, 6.0])
def test_capacity_orders_30_and_40_match_mpmath(sigma):
    # 30 and 40 nodes agree because each is right, not merely alike.
    p30 = make_params(fading_sigma_db=sigma, noise_variance=reference_noise_for_median_snr(10.0))
    reference = mpmath_capacity(p30)
    for order in (30, 40):
        value = avg_capacity(dataclasses.replace(p30, quadrature_order=order))
        assert value == pytest.approx(reference, rel=1e-8), order


@pytest.mark.parametrize("median_snr_db", [-40.0, -10.0, 10.0, 30.0, 40.0])
# A Gauss-Hermite sum over the kink of softplus was up to 7e-8 off at 4.3 dB,
# and 1 % off at 60 dB where its form was chosen wrongly.
@pytest.mark.parametrize("sigma", [2.0, 4.5, 6.0, 8.0, 60.0, 1e4])
def test_capacity_order30_within_documented_accuracy(sigma, median_snr_db):
    p = make_params(
        fading_sigma_db=sigma, noise_variance=reference_noise_for_median_snr(10 ** (median_snr_db / 10))
    )
    reference = mpmath_capacity(p)
    assert abs(avg_capacity(p) - reference) / reference <= documented_order30_rtol(sigma)


def test_capacity_on_a_long_cable():
    # 1.4 km of cable puts the median SNR at -108 dB, five spreads of 10.75 dB
    # below 0 dB; the former Gauss-Hermite fork was 1.7e-3 off here.
    system, _ = load_config(None)
    p = dataclasses.replace(
        system.plc, distance_m=1366.6, fading_sigma_db=10.75, fading_mu_db=-25.82
    )
    assert avg_capacity(p) == pytest.approx(3.067638514832011e-06, rel=documented_order30_rtol(10.75))


# ---------------------------------------------------------------------------
# outage
# ---------------------------------------------------------------------------

def test_outage_at_median_is_half():
    p = make_params(noise_variance=reference_noise_for_median_snr(10.0))
    median = snr_scale(p) * 10 ** (p.fading_mu_db / 5.0)
    assert outage(p, median) == pytest.approx(0.5, abs=1e-12)


def test_outage_vanishes_at_tiny_threshold():
    p = make_params()
    assert outage(p, 1e-300) <= 1e-15
    assert outage(p, 0.0) == 0.0


def test_outage_step_when_deterministic():
    p = make_params(fading_sigma_db=0.0, noise_variance=reference_noise_for_median_snr(10.0))
    assert outage(p, 9.999) == 0.0
    assert outage(p, 10.0000001) == 1.0
    # threshold exactly at the deterministic SNR is not an outage
    assert outage(p, snr_scale(p)) == 0.0


def test_analytic_layer_reads_the_sampled_law():
    # Zero spread: median SNRs within a few ulps of the outage threshold 3
    # (the default system's), where the step reads the last bit of the point
    # mass.
    rng = np.random.default_rng(13)
    median_db = 10.0 * math.log10(3.0)
    systems = [
        load_config(None, {
            "fading_sigma_db": 0.0,
            "fading_mu_db": float(mu),
            "plc_median_snr_db": median_db + int(k) * 1e-15,
        })[0]
        for mu, k in zip(rng.uniform(-10.0, 10.0, 3000), rng.integers(-3, 4, 3000))
    ]
    metrics = {"plc_outage": lambda p: outage(p, 3.0), "plc_avg_capacity": avg_capacity}
    requests = [(metric, s) for s in systems for metric in metrics]
    sampled = estimate_many(requests, McConfig(trials=MIN_TRIALS, seed=1))
    mismatches = [
        (metric, s.plc.fading_mu_db, est.mean, metrics[metric](s.plc))
        for (metric, s), est in zip(requests, sampled)
        if est.mean != metrics[metric](s.plc)
    ]
    assert mismatches == []
    # Positive spread: a zero draw samples the law's centre.
    for sigma, mu in [(0.5, -4.0), (3.0, 0.0), (12.0, 4.0)]:
        p = make_params(fading_sigma_db=sigma, fading_mu_db=mu)
        assert sample_plc_snr(p, 0.0) == float(np.exp(p.law[0]))


def test_outage_matches_empirical_cdf():
    p = make_params(noise_variance=reference_noise_for_median_snr(10.0))
    rng = np.random.default_rng(77)
    u = rng.standard_normal(10_000_000)
    gamma = snr_scale(p) * 10.0 ** (p.fading_sigma_db * u / 5.0)
    for threshold in (5.0, 10.0):
        hits = (gamma < threshold).astype(float)
        mean = float(hits.mean())
        se = float(hits.std(ddof=1)) / math.sqrt(len(hits))
        assert abs(outage(p, threshold) - mean) <= 3.0 * se


def test_outage_is_cdf_in_threshold():
    p = make_params()
    grid = np.logspace(-6, 8, 300)
    values = [outage(p, t) for t in grid]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[0] <= 1e-12
    assert values[-1] >= 1.0 - 1e-12
    # continuity for sigma > 0
    assert outage(p, 10.0 * (1 + 1e-9)) == pytest.approx(outage(p, 10.0), abs=1e-8)
