"""Flat ``key = value`` configuration files and the default parameter set.

Gains and fading spreads are given in dB in the file (keys suffixed ``_db``)
and converted to linear values at load time; powers are in watts.  The relay
noise variance is normally derived from ``plc_median_snr_db`` (the median
relay SNR in dB) but can be pinned directly with ``plc_noise_variance``.
Every effective value can be echoed back so no default stays hidden.
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import ConfigError
from .montecarlo import McConfig
from .plc_link import PlcLinkParams
from .relay import RelaySystemParams
from .vlc_link import VlcLinkParams

__all__ = ["DEFAULTS", "parse_config_text", "load_config", "effective_items", "echo_lines"]

_FLOAT_KEYS = (
    "frequency_hz",
    "atten_k",
    "atten_a0",
    "atten_a1",
    "plc_distance_m",
    "source_power_w",
    "plc_median_snr_db",
    "plc_noise_variance",
    "fading_mu_db",
    "fading_sigma_db",
    "relay_power_w",
    "vlc_noise_variance",
    "detector_area_m2",
    "filter_gain_db",
    "concentrator_gain_db",
    "responsivity_a_per_w",
    "cell_radius_m",
    "led_height_m",
    "semi_angle_deg",
    "duplex_factor",
    "rate_threshold_bits",
)

_INT_KEYS = ("quadrature_order", "trials", "seed", "batch_size")

DEFAULTS: dict[str, float | int | None] = {
    "frequency_hz": 5e5,
    "atten_k": 0.7,
    "atten_a0": 2.03e-3,
    "atten_a1": 3.75e-7,
    "plc_distance_m": 30.0,
    "source_power_w": 0.1,
    "plc_median_snr_db": 10.0,
    "plc_noise_variance": None,  # derived from plc_median_snr_db when absent
    "fading_mu_db": 0.0,
    "fading_sigma_db": 3.0,
    "quadrature_order": 30,
    "relay_power_w": 0.1,
    "vlc_noise_variance": 1e-5,
    "detector_area_m2": 0.1,
    "filter_gain_db": 7.0,
    "concentrator_gain_db": 7.0,
    "responsivity_a_per_w": 0.4,
    "cell_radius_m": 3.6,
    "led_height_m": 2.15,
    "semi_angle_deg": 60.0,
    "duplex_factor": 0.5,
    "rate_threshold_bits": 1.0,
    "trials": 1_000_000,
    "seed": 1,
    "batch_size": 65_536,
}


def _parse_int(key: str, raw: str, line_no: int) -> int:
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"line {line_no}: key '{key}' has non-numeric value {raw!r}") from exc
    if not value.is_integer():
        raise ConfigError(f"line {line_no}: key '{key}' must be an integer, got {raw!r}")
    return int(value)


def parse_config_text(text: str) -> dict[str, float | int]:
    """Parse ``key = value`` lines, ignoring blanks and ``#`` comments."""
    values: dict[str, float | int] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key in _INT_KEYS:
            parsed: float | int = _parse_int(key, raw_value, line_no)
        elif key in _FLOAT_KEYS:
            try:
                parsed = float(raw_value)
            except ValueError as exc:
                raise ConfigError(
                    f"line {line_no}: key '{key}' has non-numeric value {raw_value!r}"
                ) from exc
            if not math.isfinite(parsed):
                raise ConfigError(f"line {line_no}: key '{key}' must be finite, got {raw_value!r}")
        else:
            raise ConfigError(f"line {line_no}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"line {line_no}: duplicate key '{key}'")
        values[key] = parsed
    return values


def _db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def build_params(values: dict[str, float | int]) -> tuple[RelaySystemParams, McConfig]:
    """Build the parameter objects from a fully merged key/value mapping."""
    cfg = dict(DEFAULTS)
    cfg.update(values)

    noise = cfg["plc_noise_variance"]
    if noise is None:
        # Pin the median relay SNR: a * 10**(mu/5) = 10**(snr_db/10).
        alpha = cfg["atten_a0"] + cfg["atten_a1"] * cfg["frequency_hz"] ** cfg["atten_k"]
        noise = (
            cfg["source_power_w"]
            * math.exp(-2.0 * alpha * cfg["plc_distance_m"])
            * 10.0 ** (cfg["fading_mu_db"] / 5.0)
            / _db_to_linear(cfg["plc_median_snr_db"])
        )

    plc = PlcLinkParams(
        frequency_hz=cfg["frequency_hz"],
        atten_k=cfg["atten_k"],
        atten_a0=cfg["atten_a0"],
        atten_a1=cfg["atten_a1"],
        distance_m=cfg["plc_distance_m"],
        tx_power_w=cfg["source_power_w"],
        noise_variance=noise,
        fading_mu_db=cfg["fading_mu_db"],
        fading_sigma_db=cfg["fading_sigma_db"],
        quadrature_order=int(cfg["quadrature_order"]),
    )
    semi_angle_deg = cfg["semi_angle_deg"]
    if not (0.0 < semi_angle_deg < 90.0 and math.cos(math.radians(semi_angle_deg)) < 1.0):
        # A cosine that rounds to 1 makes the Lambertian order infinite.
        raise ConfigError(
            f"key 'semi_angle_deg' must lie strictly in (0, 90) with a cosine below 1, "
            f"got {semi_angle_deg!r}"
        )
    vlc = VlcLinkParams(
        tx_power_w=cfg["relay_power_w"],
        noise_variance=cfg["vlc_noise_variance"],
        detector_area=cfg["detector_area_m2"],
        filter_gain=_db_to_linear(cfg["filter_gain_db"]),
        concentrator_gain=_db_to_linear(cfg["concentrator_gain_db"]),
        responsivity=cfg["responsivity_a_per_w"],
        cell_radius_m=cfg["cell_radius_m"],
        height_m=cfg["led_height_m"],
        semi_angle_rad=math.radians(semi_angle_deg),
    )
    system = RelaySystemParams(
        plc=plc,
        vlc=vlc,
        duplex_factor=cfg["duplex_factor"],
        rate_threshold_bits=cfg["rate_threshold_bits"],
    )
    mc = McConfig(
        trials=int(cfg["trials"]),
        seed=int(cfg["seed"]),
        batch_size=int(cfg["batch_size"]),
    )
    return system, mc


def load_config(path: str | Path | None) -> tuple[RelaySystemParams, McConfig]:
    """Load a config file (or the full default set when path is None)."""
    values: dict[str, float | int] = {}
    if path is not None:
        file_path = Path(path)
        if not file_path.is_file():
            raise ConfigError(f"config file not found: {file_path}")
        values = parse_config_text(file_path.read_text())
    return build_params(values)


def effective_items(system: RelaySystemParams, mc: McConfig) -> list[tuple[str, object]]:
    """The full effective parameter set, in a fixed canonical order."""
    plc, vlc = system.plc, system.vlc
    return [
        ("plc.frequency_hz", plc.frequency_hz),
        ("plc.atten_k", plc.atten_k),
        ("plc.atten_a0", plc.atten_a0),
        ("plc.atten_a1", plc.atten_a1),
        ("plc.distance_m", plc.distance_m),
        ("plc.tx_power_w", plc.tx_power_w),
        ("plc.noise_variance", plc.noise_variance),
        ("plc.fading_mu_db", plc.fading_mu_db),
        ("plc.fading_sigma_db", plc.fading_sigma_db),
        ("plc.quadrature_order", plc.quadrature_order),
        ("vlc.tx_power_w", vlc.tx_power_w),
        ("vlc.noise_variance", vlc.noise_variance),
        ("vlc.detector_area", vlc.detector_area),
        ("vlc.filter_gain", vlc.filter_gain),
        ("vlc.concentrator_gain", vlc.concentrator_gain),
        ("vlc.responsivity", vlc.responsivity),
        ("vlc.cell_radius_m", vlc.cell_radius_m),
        ("vlc.height_m", vlc.height_m),
        ("vlc.semi_angle_rad", vlc.semi_angle_rad),
        ("system.duplex_factor", system.duplex_factor),
        ("system.rate_threshold_bits", system.rate_threshold_bits),
        ("mc.trials", mc.trials),
        ("mc.seed", mc.seed),
        ("mc.batch_size", mc.batch_size),
    ]


def echo_lines(system: RelaySystemParams, mc: McConfig) -> list[str]:
    """Comment lines echoing every effective parameter value."""
    return [f"# {key} = {value!r}" for key, value in effective_items(system, mc)]
