import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, stats

from plcvlc.errors import ParameterError
from plcvlc.sweeps import CLOSED_VS_QUAD_RTOL
from plcvlc.vlc_link import (
    VlcLinkParams,
    avg_capacity_closed,
    avg_capacity_quad,
    front_end_q,
    gain_sq,
    gain_sq_cdf,
    gain_sq_law,
    gain_sq_pdf,
    outage,
)

mp.mp.dps = 30


def make_params(**overrides):
    base = dict(
        tx_power_w=0.1,
        noise_variance=1e-5,
        detector_area=0.1,
        filter_gain=10 ** 0.7,
        concentrator_gain=10 ** 0.7,
        responsivity=0.4,
        cell_radius_m=3.6,
        height_m=2.15,
        semi_angle_rad=math.pi / 3,
    )
    base.update(overrides)
    return VlcLinkParams(**base)


def channel_gain(r_k, p):
    """LOS gain h = sqrt(t) at horizontal distance r_k: ``gain_sq`` at v = (r_k / r)**2."""
    v = (np.asarray(r_k, dtype=float) / p.cell_radius_m) ** 2
    return np.sqrt(gain_sq(v, gain_sq_law(p), np.empty_like(v)))


def sampled_gain_sq(p, v):
    """Squared gains of users placed by uniform(0,1) draws v, as the sampler places them."""
    return gain_sq(v, gain_sq_law(p), np.empty_like(v))


def product_form_gain(r_k, p):
    """Unsimplified Lambertian product: emission cosine, incidence cosine,
    inverse-square spreading and the optical front end."""
    m = p.law.m
    d_sq = r_k * r_k + p.height_m * p.height_m
    cos_angle = p.height_m / math.sqrt(d_sq)
    return (
        (m + 1.0)
        / (2.0 * math.pi * d_sq)
        * p.detector_area
        * cos_angle ** m
        * cos_angle
        * p.filter_gain
        * p.concentrator_gain
        * p.responsivity
    )


def support_closed_expressions(p):
    """t_min/t_max from their explicit closed expressions (30-digit oracle)."""
    m = mp.mpf(p.law.m)
    q = mp.mpf(front_end_q(p))
    L = mp.mpf(p.height_m)
    r = mp.mpf(p.cell_radius_m)
    amp = (q * (m + 1) * L ** (m + 1)) ** 2
    return float(amp / (r * r + L * L) ** (m + 3)), float(amp / L ** (2 * (m + 3)))


# ---------------------------------------------------------------------------
# parameters and elementary factors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "field,value",
    [
        ("tx_power_w", 0.0),
        ("noise_variance", -1.0),
        ("detector_area", 0.0),
        ("cell_radius_m", -2.0),
        # the gain law divides by the squared radius, which must stay a normal float
        ("cell_radius_m", 1e-300),
        ("cell_radius_m", 1e200),
        ("height_m", 0.0),
        # the transmit SNR tx_power_w / noise_variance must be a positive normal
        # float; the closed form used to return nan at an inf SNR
        ("tx_power_w", 1e308),
        ("tx_power_w", math.inf),
        ("noise_variance", 1e-320),
        ("noise_variance", 1e308),
    ],
)
def test_rejects_invalid_field(field, value):
    with pytest.raises(ParameterError) as err:
        make_params(**{field: value})
    assert field in str(err.value)


# 1e-11 rad: the cosine rounds to 1, so the Lambertian order would be infinite.
@pytest.mark.parametrize("angle", [0.0, math.pi / 2, -0.1, math.pi, 1e-11])
def test_rejects_boundary_semi_angle(angle):
    with pytest.raises(ParameterError):
        make_params(semi_angle_rad=angle)


def law_order(angle):
    """The Lambertian order of ``gain_sq_law`` at a semi-angle of the default cell."""
    return make_params(semi_angle_rad=angle).law.m


def test_lambertian_order_reference_angles():
    assert law_order(math.pi / 3) == pytest.approx(1.0, rel=1e-12)
    assert law_order(math.pi / 4) == pytest.approx(2.0, rel=1e-12)
    expected_30 = float(-1 / (mp.log(mp.cos(mp.pi / 6)) / mp.log(2)))
    assert law_order(math.pi / 6) == pytest.approx(expected_30, rel=1e-12)
    assert law_order(math.pi / 6) == pytest.approx(4.818841679306421, rel=1e-12)


def test_lambertian_order_grows_for_narrow_beams():
    angles = [math.radians(a) for a in (80, 60, 45, 30, 20, 10)]
    orders = [law_order(a) for a in angles]
    assert all(o > 0 for o in orders)
    assert all(b > a for a, b in zip(orders, orders[1:]))


def test_front_end_q_default_point():
    expected = float(
        mp.mpf("0.1") * mp.power(10, mp.mpf("0.7")) ** 2 * mp.mpf("0.4") / (2 * mp.pi)
    )
    assert front_end_q(make_params()) == pytest.approx(expected, rel=1e-13)
    assert front_end_q(make_params()) == pytest.approx(0.1599, rel=1e-3)


def test_front_end_q_unit_combination():
    p = make_params(detector_area=2 * math.pi, filter_gain=1.0, concentrator_gain=1.0,
                    responsivity=1.0)
    assert front_end_q(p) == pytest.approx(1.0, rel=1e-15)


def test_front_end_q_scales_linearly():
    p = make_params()
    assert front_end_q(make_params(responsivity=3 * p.responsivity)) == pytest.approx(
        3 * front_end_q(p), rel=1e-14
    )
    assert front_end_q(make_params(detector_area=5 * p.detector_area)) == pytest.approx(
        5 * front_end_q(p), rel=1e-14
    )


# ---------------------------------------------------------------------------
# channel gain
# ---------------------------------------------------------------------------

def test_gain_at_nadir():
    p = make_params()
    q = front_end_q(p)
    assert channel_gain(0.0, p) == pytest.approx(2 * q / p.height_m ** 2, rel=1e-12)
    assert channel_gain(0.0, p) == pytest.approx(0.0692, rel=1e-3)


def test_gain_at_height_distance():
    # Doubling r_k^2 + L^2 at the unit Lambertian order divides the gain by
    # 2**((m+3)/2) = 4: the gain at r_k = L is Q/(2 L^2).
    p = make_params()
    q = front_end_q(p)
    assert channel_gain(p.height_m, p) == pytest.approx(q / (2 * p.height_m ** 2), rel=1e-12)
    assert channel_gain(p.height_m, p) == pytest.approx(channel_gain(0.0, p) / 4, rel=1e-12)


def test_gain_strictly_decreasing():
    p = make_params()
    radii = np.linspace(0.0, p.cell_radius_m, 200)
    gains = channel_gain(radii, p)
    assert np.all(np.diff(gains) < 0)


def test_gain_matches_product_form():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        p = make_params(
            cell_radius_m=rng.uniform(0.5, 8.0),
            height_m=rng.uniform(1.0, 5.0),
            semi_angle_rad=math.radians(rng.uniform(15.0, 85.0)),
            detector_area=rng.uniform(0.01, 0.5),
        )
        r_k = rng.uniform(0.0, p.cell_radius_m)
        assert channel_gain(r_k, p) == pytest.approx(product_form_gain(r_k, p), rel=1e-12)


# ---------------------------------------------------------------------------
# squared-gain support and distribution
# ---------------------------------------------------------------------------

def test_support_default_point():
    p = make_params()
    t_min, t_max = p.law.t_min, p.law.t_max
    ref_min, ref_max = support_closed_expressions(p)
    assert t_min == pytest.approx(ref_min, rel=1e-12)
    assert t_max == pytest.approx(ref_max, rel=1e-12)
    assert (t_min, t_max) == pytest.approx((2.29e-5, 4.79e-3), rel=1e-2)


def test_support_degenerate_cell():
    p = make_params(cell_radius_m=1e-9)
    t_min, t_max = p.law.t_min, p.law.t_max
    assert t_min == pytest.approx(t_max, rel=1e-12)


def test_support_scaling_law():
    # Scaling both L and r by a factor scales both endpoints by factor**-4.
    p = make_params()
    for factor in (0.5, 2.0, 3.7):
        scaled = make_params(cell_radius_m=factor * p.cell_radius_m,
                             height_m=factor * p.height_m)
        t_min, t_max = p.law.t_min, p.law.t_max
        s_min, s_max = scaled.law.t_min, scaled.law.t_max
        assert s_min == pytest.approx(t_min * factor ** -4, rel=1e-9)
        assert s_max == pytest.approx(t_max * factor ** -4, rel=1e-9)


def test_pdf_normalizes_to_one():
    p = make_params()
    t_min, t_max = p.law.t_min, p.law.t_max
    total, err = integrate.quad(lambda x: gain_sq_pdf(x, p), t_min, t_max,
                                epsabs=1e-13, epsrel=1e-12, limit=200)
    assert err < 1e-10
    assert total == pytest.approx(1.0, abs=1e-9)


def test_pdf_zero_outside_support():
    p = make_params()
    t_min, t_max = p.law.t_min, p.law.t_max
    assert gain_sq_pdf(t_min * 0.99, p) == 0.0
    assert gain_sq_pdf(t_max * 1.01, p) == 0.0
    assert gain_sq_pdf(0.0, p) == 0.0


def test_pdf_matches_sampled_histogram():
    # Draw user positions, square the gains, and chi-square the histogram
    # against the density over equal-probability bins.
    p = make_params()
    rng = np.random.default_rng(31)
    sample = sampled_gain_sq(p, rng.random(10_000_000))
    n_bins = 50
    probs = np.linspace(0.0, 1.0, n_bins + 1)
    m, c_const, t_min, t_max = _inverse_cdf_params(p)
    edges = _inverse_cdf(probs, m, c_const, t_min, t_max, p)
    counts, _ = np.histogram(sample, bins=edges)
    expected = len(sample) / n_bins
    chi_sq = float(((counts - expected) ** 2 / expected).sum())
    assert chi_sq < stats.chi2.ppf(0.99, n_bins - 1)


def _inverse_cdf_params(p):
    m = p.law.m
    amplitude = front_end_q(p) * (m + 1.0) * p.height_m ** (m + 1.0)
    c_const = amplitude ** (2.0 / (m + 3.0))
    t_min, t_max = p.law.t_min, p.law.t_max
    return m, c_const, t_min, t_max


def _inverse_cdf(u, m, c_const, t_min, t_max, p):
    r_sq = p.cell_radius_m ** 2
    body = (1.0 + p.height_m ** 2 / r_sq - u) * r_sq / c_const
    x = body ** -(m + 3.0)
    x[0], x[-1] = t_min, t_max
    return x


def test_cdf_endpoints_and_median():
    p = make_params()
    t_min, t_max = p.law.t_min, p.law.t_max
    assert gain_sq_cdf(t_min, p) == 0.0
    assert gain_sq_cdf(t_max, p) == 1.0
    assert gain_sq_cdf(t_min * 0.5, p) == 0.0
    assert gain_sq_cdf(t_max * 2.0, p) == 1.0
    m, c_const, *_ = _inverse_cdf_params(p)
    median = (c_const / (p.height_m ** 2 + p.cell_radius_m ** 2 / 2)) ** (m + 3.0)
    assert gain_sq_cdf(median, p) == pytest.approx(0.5, abs=1e-12)


def test_cdf_monotone_and_matches_pdf_derivative():
    p = make_params()
    t_min, t_max = p.law.t_min, p.law.t_max
    xs = np.exp(np.linspace(math.log(t_min * 1.01), math.log(t_max * 0.99), 1000))
    cdf = gain_sq_cdf(xs, p)
    assert np.all(np.diff(cdf) > 0)
    h = xs * 1e-6
    derivative = (gain_sq_cdf(xs + h, p) - gain_sq_cdf(xs - h, p)) / (2 * h)
    pdf = gain_sq_pdf(xs, p)
    assert np.max(np.abs(derivative - pdf) / pdf) < 1e-6


@pytest.mark.parametrize("semi_angle_deg", [20.0, 60.0, 80.0])
def test_cdf_scalar_path_equals_array_path(semi_angle_deg):
    # The scalar path (every vlc_link.outage call) must keep the array path's bits.
    p = make_params(semi_angle_rad=math.radians(semi_angle_deg))
    t_min, t_max = p.law.t_min, p.law.t_max
    xs = np.concatenate([
        np.exp(np.random.default_rng(5).uniform(math.log(t_min), math.log(t_max), 5000)),
        [0.0, t_min, np.nextafter(t_min, math.inf), np.nextafter(t_max, 0.0), t_max, 2.0 * t_max],
    ])
    array = gain_sq_cdf(xs, p)
    scalars = [gain_sq_cdf(x, p) for x in xs.tolist()]
    assert all(type(v) is float for v in scalars)
    assert scalars == array.tolist()
    assert [gain_sq_cdf(x, p) for x in xs[:10]] == array[:10].tolist()


def test_cdf_matches_empirical_cdf():
    p = make_params()
    rng = np.random.default_rng(55)
    sample = sampled_gain_sq(p, rng.random(10_000_000))
    for x in (1e-4, 5e-4):
        hits = (sample <= x).astype(float)
        mean = float(hits.mean())
        se = float(hits.std(ddof=1)) / math.sqrt(len(hits))
        assert abs(gain_sq_cdf(x, p) - mean) <= 3.0 * se


def test_sampled_gain_matches_cdf_kolmogorov():
    p = make_params()
    rng = np.random.default_rng(101)
    n = 1_000_000
    sample = np.sort(sampled_gain_sq(p, rng.random(n)))
    cdf = gain_sq_cdf(sample, p)
    ranks = np.arange(1, n + 1)
    statistic = max(float(np.max(ranks / n - cdf)), float(np.max(cdf - (ranks - 1) / n)))
    assert statistic < 1.6276 / math.sqrt(n)


# ---------------------------------------------------------------------------
# average capacity
# ---------------------------------------------------------------------------

def test_capacity_vanishes_without_power():
    assert avg_capacity_quad(make_params(tx_power_w=1e-300)) == pytest.approx(0.0, abs=1e-12)
    assert avg_capacity_closed(make_params(tx_power_w=1e-300)) == pytest.approx(0.0, abs=1e-12)


def test_capacity_degenerate_cell():
    p = make_params(cell_radius_m=1e-6)
    t_max = p.law.t_max
    expected = math.log2(1.0 + p.tx_power_w / p.noise_variance * t_max)
    assert avg_capacity_quad(p) == pytest.approx(expected, rel=1e-9)


def test_closed_equals_quadrature_at_default_point():
    p = make_params()
    assert avg_capacity_closed(p) == pytest.approx(avg_capacity_quad(p), rel=1e-8)


# 2F1 - 1 used to cancel here: the closed form was 7e-5, 8e-2 and 4 (with the
# wrong sign) off the quadrature.
@pytest.mark.parametrize("power", [1e-13, 1e-16, 1e-20])
def test_closed_equals_quadrature_at_vanishing_snr(power):
    p = make_params(tx_power_w=power)
    assert avg_capacity_closed(p) == pytest.approx(avg_capacity_quad(p), rel=1e-8)


# With pi/sin(pi*beta) * rho**beta kept in the antiderivative at both ends,
# the closed form cancelled: validate exited 1 at 1e60 (203.56865 against
# 203.53006), eval printed 37205135613.08 at 1e100 and 0.0 at 1e300.
@pytest.mark.parametrize("power", [1e20, 1e40, 1e60, 1e100, 1e300])
def test_closed_equals_quadrature_at_high_snr(power):
    p = make_params(tx_power_w=power)
    assert avg_capacity_closed(p) == pytest.approx(avg_capacity_quad(p), rel=1e-12)


def closed_form_reference(p):
    """30-digit antiderivative difference with mpmath's 2F1 over the program's support.

    With z = rho*t, beta = 1/(m+3) and F = 2F1(1, -beta; 1-beta; -z), the
    antiderivative of log(1 + z) * beta * t**(-beta-1) is
    t**-beta * ((F - 1)/beta - log1p(z)), and the density's mass is
    t_min**-beta - t_max**-beta.
    """
    t_min, t_max = p.law.t_min, p.law.t_max
    with mp.workdps(30):
        rho = mp.mpf(p.tx_power_w) / mp.mpf(p.noise_variance)
        beta = 1 / (mp.mpf(p.law.m) + 3)

        def antiderivative(t):
            t = mp.mpf(t)
            f = mp.hyp2f1(1, -beta, 1 - beta, -rho * t)
            return t ** -beta * ((f - 1) / beta - mp.log1p(rho * t))

        mass = mp.mpf(t_min) ** -beta - mp.mpf(t_max) ** -beta
        return float((antiderivative(t_max) - antiderivative(t_min)) / (mass * mp.log(2)))


# rho*t stays below 1 over the cell at 1e-13 W and 1e-4 W, crosses 1 inside
# it at 0.1 W and 1e3 W, and stays above 1 at 1e20 W.
@pytest.mark.parametrize("semi_angle_deg", [20.0, 60.0])
@pytest.mark.parametrize("power", [1e-13, 1e-4, 0.1, 1e3, 1e20])
def test_closed_matches_mpmath_on_each_side_of_the_knee(power, semi_angle_deg):
    p = make_params(tx_power_w=power, semi_angle_rad=math.radians(semi_angle_deg))
    assert avg_capacity_closed(p) == pytest.approx(closed_form_reference(p), rel=1e-13)


# The rule's variable u = t**(-1/(m+3)) spans a factor 1 + (radius/height)**2.
# Without cuts graded toward u = 0 the rule drifted from the closed form by
# 1.5e-9 at a 10 m cell, 2e-2 at 50 m and 0.26 at 1000 m.
@pytest.mark.parametrize(
    "radius,semi_angle_deg",
    [(10.0, 20.0), (50.0, 20.0), (1e3, 20.0), (50.0, 60.0), (1e3, 80.0), (1e20, 60.0)],
)
def test_closed_equals_quadrature_for_wide_cells(radius, semi_angle_deg):
    p = make_params(cell_radius_m=radius, semi_angle_rad=math.radians(semi_angle_deg))
    assert avg_capacity_closed(p) == pytest.approx(avg_capacity_quad(p), rel=1e-12)


def test_closed_equals_quadrature_random_draws():
    rng = np.random.default_rng(17)
    for _ in range(40):
        p = make_params(
            tx_power_w=10 ** rng.uniform(-2, 6),
            noise_variance=1.0,
            cell_radius_m=rng.uniform(1.0, 6.0),
            height_m=rng.uniform(1.5, 4.0),
            semi_angle_rad=math.radians(rng.uniform(20.0, 80.0)),
        )
        assert avg_capacity_closed(p) == pytest.approx(avg_capacity_quad(p), rel=1e-7)


def u_integral_reference(p):
    """30-digit mean of log2(1 + rho * u**-(m+3)) over u in the program's support.

    The squared-gain density is constant in u = t**(-1/(m+3)); on a point-mass
    support the mean is log2(1 + rho * t_max).
    """
    t_min, t_max = p.law.t_min, p.law.t_max
    with mp.workdps(30):
        rho = mp.mpf(p.tx_power_w) / mp.mpf(p.noise_variance)
        if t_min == t_max:
            return float(mp.log1p(rho * t_max) / mp.log(2))
        k = mp.mpf(p.law.m) + 3
        u_low, u_high = mp.mpf(t_max) ** (-1 / k), mp.mpf(t_min) ** (-1 / k)
        total = mp.quad(lambda u: mp.log1p(rho * u ** -k), [u_low, u_high])
        return float(total / ((u_high - u_low) * mp.log(2)))


# The antiderivative difference cancels on a narrow cell: it used to be 9e-10
# off at 1e-3 m, 7.4e-4 at 1e-6 m, and exactly 0 from 1e-8 m down.
@pytest.mark.parametrize("semi_angle_deg", [5.0, 20.0, 60.0])
@pytest.mark.parametrize(
    "radius", [3e-1, 2e-1, 1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-7, 1e-8, 1e-12, 1e-20, 1e-50, 1e-100]
)
def test_closed_matches_mpmath_on_narrow_cells(radius, semi_angle_deg):
    p = make_params(cell_radius_m=radius, semi_angle_rad=math.radians(semi_angle_deg))
    assert avg_capacity_closed(p) == pytest.approx(u_integral_reference(p), rel=2e-13)


def cut_u_integral_reference(p):
    """``u_integral_reference`` at 40 digits, cut at the knee and toward u_low.

    The cuts are not the program's: at u_low * (1 + 2**j/(m+3)) across the
    boundary layer and at u_low * 2**j across the support.
    """
    t_min, t_max = p.law.t_min, p.law.t_max
    with mp.workdps(40):
        rho = mp.mpf(p.tx_power_w) / mp.mpf(p.noise_variance)
        k = mp.mpf(p.law.m) + 3
        u_low, u_high = mp.mpf(t_max) ** (-1 / k), mp.mpf(t_min) ** (-1 / k)
        cuts = [rho ** (1 / k), *(u_low * (1 + mp.mpf(2) ** j / k) for j in range(12)),
                *(u_low * 2 ** j for j in range(1, 40))]
        edges = sorted({u_low, u_high, *(c for c in cuts if u_low < c < u_high)})
        total = mp.quad(lambda u: mp.log1p(rho * u ** -k), edges)
        return float(total / ((u_high - u_low) * mp.log(2)))


# A narrow beam over a wide cell (SNR 3.6e-82 to 9.7e5 across it): cut only
# at the knee rho*t = 1, the 32-node rule was 4.5e-13 off here, and converged
# only at 64 nodes; softplus has poles at ln(rho*t) = +-i*pi beside the knee.
def test_quadrature_is_cut_beside_the_knee():
    p = make_params(height_m=1.571, cell_radius_m=10.67, semi_angle_rad=math.radians(9.59),
                    tx_power_w=0.918)
    assert avg_capacity_quad(p) == pytest.approx(cut_u_integral_reference(p), rel=1e-13, abs=0.0)


def test_quadrature_matches_mpmath_on_random_narrow_beams():
    rng = np.random.default_rng(38)
    checked = 0
    while checked < 5:
        try:
            p = make_params(tx_power_w=10 ** rng.uniform(-8, 0), cell_radius_m=rng.uniform(0.5, 12.0),
                            height_m=rng.uniform(1.0, 5.0),
                            semi_angle_rad=math.radians(rng.uniform(3.0, 15.0)))
        except ParameterError:  # a subnormal squared gain at the cell edge
            continue
        reference = cut_u_integral_reference(p)
        assert avg_capacity_quad(p) == pytest.approx(reference, rel=1e-13, abs=0.0)
        checked += 1


# log1p(rho * u**-(m+3)) falls over a relative width 1/(m+3) from u_low; without
# cuts there the rule was 1.4e-6, 4.1e-6 and 1.1e-4 off at 5, 4 and 3 degrees.
@pytest.mark.parametrize("semi_angle_deg", [3.0, 3.5, 4.0, 5.0])
def test_quadrature_resolves_narrow_beams(semi_angle_deg):
    p = make_params(semi_angle_rad=math.radians(semi_angle_deg))
    assert avg_capacity_quad(p) == pytest.approx(closed_form_reference(p), rel=1e-13)
    assert avg_capacity_closed(p) == pytest.approx(avg_capacity_quad(p), rel=CLOSED_VS_QUAD_RTOL)


# (r^2 + L^2)**(-(m+3)/2) was subnormal at the first two narrow beams, so
# t_min kept few digits and the closed form was 2.3e-10 (3 degrees) and
# 1.3e-5 (3.6 degrees, 6.6 m cell) off the quadrature.  The amplitude
# A = Q*(m+1)*L**(m+1) overflows at 3 degrees and 4.5 m (L**506 ~ 1e331) and
# underflows to 0 at 2.7 degrees and 0.3 m (L**625 ~ 1e-327), where the cell
# was refused though its squared gains are normal floats.
@pytest.mark.parametrize(
    "overrides",
    [
        dict(semi_angle_rad=math.radians(3.0)),
        dict(semi_angle_rad=math.radians(3.58672021461792), cell_radius_m=6.635910878994956,
             height_m=4.412270576089906, tx_power_w=0.8466311169727182),
        dict(semi_angle_rad=math.radians(3.0), height_m=4.5),
        dict(semi_angle_rad=math.radians(2.7), height_m=0.3, cell_radius_m=0.2),
    ],
)
def test_closed_equals_quadrature_where_the_old_gain_law_left_the_normal_range(overrides):
    p = make_params(**overrides)
    m = p.law.m
    t_max = p.law.t_max
    assert t_max == pytest.approx((front_end_q(p) * (m + 1.0)) ** 2 / p.height_m ** 4, rel=1e-12)
    assert avg_capacity_closed(p) == pytest.approx(avg_capacity_quad(p), rel=1e-11)


def test_capacity_monotone_trends():
    powers = [0.02, 0.05, 0.1, 0.3, 0.5]
    caps = [avg_capacity_closed(make_params(tx_power_w=w)) for w in powers]
    assert all(b > a for a, b in zip(caps, caps[1:]))

    heights = [2.15, 2.5, 3.0, 3.5]
    caps = [avg_capacity_closed(make_params(height_m=h)) for h in heights]
    assert all(b < a for a, b in zip(caps, caps[1:]))

    radii = [2.0, 3.0, 3.6, 4.5, 6.0]
    caps = [avg_capacity_closed(make_params(cell_radius_m=r)) for r in radii]
    assert all(b < a for a, b in zip(caps, caps[1:]))


def test_capacity_matches_sampling_mean():
    p = make_params()
    rng = np.random.default_rng(23)
    gains_sq = sampled_gain_sq(p, rng.random(2_000_000))
    samples = np.log2(1.0 + p.tx_power_w / p.noise_variance * gains_sq)
    mean = float(samples.mean())
    se = float(samples.std(ddof=1)) / math.sqrt(len(samples))
    assert abs(avg_capacity_closed(p) - mean) <= 3.0 * se


# ---------------------------------------------------------------------------
# outage
# ---------------------------------------------------------------------------

def test_outage_clamps():
    p = make_params()
    t_min, t_max = p.law.t_min, p.law.t_max
    rho = p.tx_power_w / p.noise_variance
    assert outage(p, t_max * rho * 1.001) == 1.0
    assert outage(p, t_min * rho * 0.999) == 0.0
    assert outage(p, 0.0) == 0.0


def test_outage_monotone_in_threshold_and_power():
    p = make_params()
    thresholds = np.logspace(-1, 3, 50)
    values = [outage(p, t) for t in thresholds]
    assert all(b >= a for a, b in zip(values, values[1:]))
    powers = [0.05, 0.1, 0.2, 0.4]
    at_fixed_threshold = [outage(make_params(tx_power_w=w), 3.0) for w in powers]
    assert all(b < a for a, b in zip(at_fixed_threshold, at_fixed_threshold[1:]))


def test_outage_matches_sampling():
    p = make_params()
    rng = np.random.default_rng(99)
    gamma = p.tx_power_w / p.noise_variance * sampled_gain_sq(p, rng.random(10_000_000))
    hits = (gamma < 1.0).astype(float)
    mean = float(hits.mean())
    se = float(hits.std(ddof=1)) / math.sqrt(len(hits))
    assert abs(outage(p, 1.0) - mean) <= 3.0 * se
