import dataclasses
import math

import pytest

from plcvlc.config import DEFAULTS, echo_lines, effective_items, load_config, parse_config_text
from plcvlc.errors import ConfigError, ParameterError
from plcvlc.plc_link import snr_scale


def write_config(tmp_path, text):
    path = tmp_path / "link.cfg"
    path.write_text(text)
    return path


def test_empty_file_gives_full_default_set(tmp_path):
    path = write_config(tmp_path, "")
    system, mc = load_config(path)
    default_system, default_mc = load_config(None)
    assert system == default_system
    assert mc == default_mc
    assert system.plc.frequency_hz == 5e5
    assert system.plc.atten_k == 0.7
    assert system.plc.atten_a0 == 2.03e-3
    assert system.plc.atten_a1 == 3.75e-7
    assert system.plc.distance_m == 30.0
    assert system.plc.tx_power_w == 0.1
    assert system.vlc.tx_power_w == 0.1
    assert system.vlc.detector_area == 0.1
    assert system.vlc.filter_gain == pytest.approx(10 ** 0.7, rel=1e-15)
    assert system.vlc.concentrator_gain == pytest.approx(10 ** 0.7, rel=1e-15)
    assert system.vlc.responsivity == 0.4
    assert system.vlc.cell_radius_m == 3.6
    assert system.vlc.height_m == 2.15
    assert system.vlc.semi_angle_rad == pytest.approx(math.pi / 3, rel=1e-15)
    assert system.duplex_factor == 0.5
    assert system.plc.fading_mu_db == 0.0
    assert system.plc.fading_sigma_db == 3.0
    assert mc.trials == 1_000_000


def test_default_noise_pins_median_snr():
    system, _ = load_config(None)
    median = snr_scale(system.plc) * 10.0 ** (system.plc.fading_mu_db / 5.0)
    assert median == pytest.approx(10.0, rel=1e-12)


def test_single_key_override(tmp_path):
    path = write_config(tmp_path, "led_height_m = 3.0\n")
    system, mc = load_config(path)
    default_system, default_mc = load_config(None)
    assert system.vlc.height_m == 3.0
    assert system == dataclasses.replace(
        default_system, vlc=dataclasses.replace(default_system.vlc, height_m=3.0)
    )
    assert mc == default_mc


def test_negative_source_power_names_field(tmp_path):
    path = write_config(tmp_path, "source_power_w = -1\n")
    with pytest.raises(ParameterError) as err:
        load_config(path)
    assert "tx_power" in str(err.value)


def test_explicit_noise_overrides_derivation(tmp_path):
    path = write_config(tmp_path, "plc_noise_variance = 0.5\n")
    system, _ = load_config(path)
    assert system.plc.noise_variance == 0.5


def test_comments_and_blank_lines(tmp_path):
    path = write_config(
        tmp_path,
        "# a comment\n\nfading_sigma_db = 4.5  # inline comment\n   \n",
    )
    system, _ = load_config(path)
    assert system.plc.fading_sigma_db == 4.5


def test_parse_failure_reports_line_and_key():
    with pytest.raises(ConfigError) as err:
        parse_config_text("frequency_hz = 5e5\nled_height 3.0\n")
    assert "line 2" in str(err.value)

    with pytest.raises(ConfigError) as err:
        parse_config_text("led_height = tall\n")
    message = str(err.value)
    assert "line 1" in message and "led_height" in message


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text("beam_width = 2\n")
    assert "beam_width" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text("seed = 1\nseed = 2\n")
    assert "duplicate" in str(err.value)


def test_integer_keys_accept_exponent_notation(tmp_path):
    path = write_config(tmp_path, "trials = 2e4\nseed = 9\n")
    _, mc = load_config(path)
    assert mc.trials == 20_000 and mc.seed == 9


def test_integer_keys_reject_fractions():
    with pytest.raises(ConfigError):
        parse_config_text("trials = 1500.5\n")


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")


def test_echo_covers_every_effective_value():
    system, mc = load_config(None)
    items = dict(effective_items(system, mc))
    # one echoed entry per parameter field, nothing hidden, in this order
    assert list(items) == [
        "plc.frequency_hz",
        "plc.atten_k",
        "plc.atten_a0",
        "plc.atten_a1",
        "plc.distance_m",
        "plc.tx_power_w",
        "plc.noise_variance",
        "plc.fading_mu_db",
        "plc.fading_sigma_db",
        "plc.quadrature_order",
        "vlc.tx_power_w",
        "vlc.noise_variance",
        "vlc.detector_area",
        "vlc.filter_gain",
        "vlc.concentrator_gain",
        "vlc.responsivity",
        "vlc.cell_radius_m",
        "vlc.height_m",
        "vlc.semi_angle_rad",
        "system.duplex_factor",
        "system.rate_threshold_bits",
        "mc.trials",
        "mc.seed",
        "mc.batch_size",
    ]
    assert items["plc.noise_variance"] == system.plc.noise_variance
    assert items["vlc.noise_variance"] == DEFAULTS["vlc_noise_variance"]
    assert items["system.duplex_factor"] == 0.5
    assert items["mc.seed"] == 1
    lines = echo_lines(system, mc)
    assert all(line.startswith("# ") and " = " in line for line in lines)
    assert len(lines) == len(items)
