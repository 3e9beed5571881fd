"""Flat ``key = value`` configuration files and the default parameter set.

Gains and fading spreads are given in dB in the file (keys suffixed ``_db``)
and converted to linear values at load time; powers are in watts.  The relay
noise variance is normally derived from ``plc_median_snr_db`` (the median
relay SNR in dB) but can be pinned directly with ``plc_noise_variance``.
Each key's default, the parameter field it sets and its converter are stated
once, in ``_KEYS``; a refusal by a parameter class names the key, with the
field in parentheses.  Every effective value can be echoed back so no
default stays hidden.
"""

from __future__ import annotations

import dataclasses
import math
import re
import sys
from pathlib import Path

from . import plc_link
from .errors import ConfigError, ParameterError
from .montecarlo import McConfig
from .plc_link import PlcLinkParams
from .relay import RelaySystemParams
from .vlc_link import VlcLinkParams

__all__ = ["DEFAULTS", "parse_config_text", "load_config", "effective_items", "echo_lines"]


def _db_to_linear(db: float, db_per_decade: float = 10.0) -> float:
    return 10.0 ** (db / db_per_decade)


# key -> (default, parameter class, field it sets, converter from the file
# value; None keeps the value as given).  A converted value must be a positive
# normal float.  plc_median_snr_db sets no field: it only feeds the derived
# PLC noise variance, which replaces a plc_noise_variance of None.
_KEYS = {
    "frequency_hz": (5e5, PlcLinkParams, "frequency_hz", None),
    "atten_k": (0.7, PlcLinkParams, "atten_k", None),
    "atten_a0": (2.03e-3, PlcLinkParams, "atten_a0", None),
    "atten_a1": (3.75e-7, PlcLinkParams, "atten_a1", None),
    "plc_distance_m": (30.0, PlcLinkParams, "distance_m", None),
    "source_power_w": (0.1, PlcLinkParams, "tx_power_w", None),
    "plc_median_snr_db": (10.0, None, None, None),
    "plc_noise_variance": (None, PlcLinkParams, "noise_variance", None),
    "fading_mu_db": (0.0, PlcLinkParams, "fading_mu_db", None),
    "fading_sigma_db": (3.0, PlcLinkParams, "fading_sigma_db", None),
    "relay_power_w": (0.1, VlcLinkParams, "tx_power_w", None),
    "vlc_noise_variance": (1e-5, VlcLinkParams, "noise_variance", None),
    "detector_area_m2": (0.1, VlcLinkParams, "detector_area", None),
    "filter_gain_db": (7.0, VlcLinkParams, "filter_gain", _db_to_linear),
    "concentrator_gain_db": (7.0, VlcLinkParams, "concentrator_gain", _db_to_linear),
    "responsivity_a_per_w": (0.4, VlcLinkParams, "responsivity", None),
    "cell_radius_m": (3.6, VlcLinkParams, "cell_radius_m", None),
    "led_height_m": (2.15, VlcLinkParams, "height_m", None),
    "semi_angle_deg": (60.0, VlcLinkParams, "semi_angle_rad", math.radians),
    "duplex_factor": (0.5, RelaySystemParams, "duplex_factor", None),
    "rate_threshold_bits": (1.0, RelaySystemParams, "rate_threshold_bits", None),
    "trials": (1_000_000, McConfig, "trials", None),
    "seed": (1, McConfig, "seed", None),
    "batch_size": (65_536, McConfig, "batch_size", None),
}

DEFAULTS: dict[str, float | int | None] = {key: spec[0] for key, spec in _KEYS.items()}

_INT_KEYS = frozenset(key for key, default in DEFAULTS.items() if isinstance(default, int))

# "Class.field" -> the key that sets it.
_KEY_OF_FIELD = {
    f"{cls.__name__}.{field}": key for key, (_, cls, field, _) in _KEYS.items() if cls is not None
}
_FIELD_NAME = re.compile(r"\b\w+\.\w+")


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
        if key not in DEFAULTS:
            raise ConfigError(f"line {line_no}: unknown key '{key}'")
        if key in _INT_KEYS:
            parsed: float | int = _parse_int(key, raw_value, line_no)
        else:
            try:
                parsed = float(raw_value)
            except ValueError as exc:
                raise ConfigError(
                    f"line {line_no}: key '{key}' has non-numeric value {raw_value!r}"
                ) from exc
            if not math.isfinite(parsed):
                raise ConfigError(f"line {line_no}: key '{key}' must be finite, got {raw_value!r}")
        if key in values:
            raise ConfigError(f"line {line_no}: duplicate key '{key}'")
        values[key] = parsed
    return values


# The keys behind the PLC SNR scale a = P_s * exp(-2*alpha*d) / sigma_r^2.
_PLC_SCALE_KEYS = (
    "frequency_hz", "atten_k", "atten_a0", "atten_a1", "plc_distance_m", "source_power_w",
)


def _positive_normal(what: str, compute, values: dict, keys: tuple[str, ...]) -> float:
    """``compute()``, refused unless it is a positive normal float.

    The ConfigError names those of ``keys`` that were set, or all of them.
    """
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not sys.float_info.min <= value < math.inf:
        named = [key for key in keys if key in values] or list(keys)
        raise ConfigError(
            f"{what} = {value!r} is out of range; check key(s) {', '.join(map(repr, named))}"
        )
    return value


def _converted(key: str, convert, cfg: dict, values: dict) -> float:
    """``convert(cfg[key])``, refused unless it is a positive normal float."""
    return _positive_normal(
        f"the converted value of key '{key}'", lambda: convert(cfg[key]), values, (key,)
    )


def _construct(cls, cfg: dict, values: dict, **given):
    """``cls`` from the converted values of its keys (and ``given`` fields).

    A ParameterError is raised again with each ``Class.field`` it names
    replaced by ``key '<key>' (Class.field)``.
    """
    kwargs = {}
    for key, (_, owner, field, convert) in _KEYS.items():
        if owner is cls:
            kwargs[field] = cfg[key] if convert is None else _converted(key, convert, cfg, values)
    kwargs.update(given)
    try:
        return cls(**kwargs)
    except ParameterError as exc:
        raise ParameterError(_FIELD_NAME.sub(_with_key, str(exc))) from exc


def _with_key(match: re.Match) -> str:
    key = _KEY_OF_FIELD.get(match[0])
    return match[0] if key is None else f"key '{key}' ({match[0]})"


def build_params(values: dict[str, float | int]) -> tuple[RelaySystemParams, McConfig]:
    """Build the parameter objects from a fully merged key/value mapping.

    Besides the parameter classes' own checks (the PLC SNR scale and the VLC
    transmit SNR among them), every converted value, the linear fading
    median and the derived PLC noise variance, with the SNR scale it gives,
    must be positive normal floats; otherwise an error names the keys.
    """
    cfg = {**DEFAULTS, **values}

    mu_linear = _converted("fading_mu_db", lambda db: _db_to_linear(db, 5.0), cfg, values)
    pinned_noise = cfg["plc_noise_variance"]
    plc = _construct(
        PlcLinkParams, cfg, values, noise_variance=1.0 if pinned_noise is None else pinned_noise
    )
    if pinned_noise is None:
        # Pin the median relay SNR: a * 10**(mu/5) = 10**(snr_db/10).  With a
        # unit noise variance snr_scale(plc) is P_s * exp(-2*alpha*d) exactly.
        # The SNR scale this noise gives is PlcLinkParams's check, made here so
        # that a refusal names the keys that pin it.
        scale_keys = _PLC_SCALE_KEYS + ("fading_mu_db", "plc_median_snr_db")
        snr_linear = _converted("plc_median_snr_db", _db_to_linear, cfg, values)
        unit_scale = plc_link.snr_scale(plc)
        noise = _positive_normal(
            "the derived PLC noise variance",
            lambda: unit_scale * mu_linear / snr_linear, values, scale_keys,
        )
        _positive_normal("the PLC SNR scale", lambda: unit_scale / noise, values, scale_keys)
        plc = dataclasses.replace(plc, noise_variance=noise)

    vlc = _construct(VlcLinkParams, cfg, values)
    system = _construct(RelaySystemParams, cfg, values, plc=plc, vlc=vlc)
    return system, _construct(McConfig, cfg, values)


def load_config(
    path: str | Path | None, overrides: dict[str, float | int] | None = None
) -> tuple[RelaySystemParams, McConfig]:
    """Load a config file (or the full default set when path is None).

    ``overrides`` (key -> value) take precedence over the file's values and
    pass the same checks.
    """
    values: dict[str, float | int] = {}
    if path is not None:
        file_path = Path(path)
        if not file_path.is_file():
            raise ConfigError(f"config file not found: {file_path}")
        try:
            values = parse_config_text(file_path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {file_path} cannot be read: {exc}") from exc
    return build_params({**values, **(overrides or {})})


def effective_items(system: RelaySystemParams, mc: McConfig) -> list[tuple[str, object]]:
    """The full effective parameter set: every field of each parameter class, in field order."""
    groups = (("plc", system.plc), ("vlc", system.vlc), ("system", system), ("mc", mc))
    return [
        (f"{prefix}.{field.name}", getattr(params, field.name))
        for prefix, params in groups
        for field in dataclasses.fields(params)
        if field.name not in ("plc", "vlc")
    ]


def echo_lines(system: RelaySystemParams, mc: McConfig) -> list[str]:
    """Comment lines echoing every effective parameter value."""
    return [f"# {key} = {value!r}" for key, value in effective_items(system, mc)]
