"""Project configuration: strict schema, loading and object builders."""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .channel import ChannelConfig, DelayDistribution, default_delay_distribution, require_seed
from .errors import ConfigError
from .refplant import DisturbanceScenario, PlantConfig
from .sysid import PrbsConfig

SCHEMA_VERSION = 1

_SCHEMA = {
    "schema_version": None,
    "plant": {
        "mode_freqs_hz": None,
        "damping_ratios": None,
        "p_residue_phases_deg": None,
        "q_residue_phases_deg": None,
        "residual_corner_hz": None,
        "residual_gain": None,
    },
    "channel": {
        "delay": {
            "kind": None, "mean_s": None, "low": None, "high": None,
            "value": None, "mu": None, "sigma": None,
            "bin_edges": None, "bin_probs": None,
        },
        "rate_hz": None,
        "quantization_step": None,
        "emission": None,
        "seed": None,
        "campaign_messages": None,
    },
    "identification": {
        "register_bits": None,
        "chip_period_s": None,
        "amplitude_pu": None,
        "duration_s": None,
        "sample_rate_hz": None,
        "band_hz": None,
        "fit_order": None,
    },
    "design": {
        "band_hz": None,
        "max_pade_order": None,
        "max_phase_err_deg": None,
        "washout_Tw_s": None,
        "limits": {"k": None, "p_R": None, "q_R": None, "S_n": None},
        "gain_grid": {"n": None, "lo": None, "hi": None},
    },
    "simulation": {
        "duration_s": None,
        "dt_s": None,
        "scenario": {
            "kind": None, "magnitude": None, "start_s": None,
            "duration_s": None, "target": None,
        },
        "n_runs": None,
        "base_seed": None,
        "metric_window_s": None,
    },
}


def _check_keys(section: dict, schema: dict, path: str) -> None:
    for key, value in section.items():
        if key not in schema:
            raise ConfigError(f"unknown config key {path}{key!r}")
        sub = schema[key]
        if isinstance(sub, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {path}{key!r} must be a section")
            _check_keys(value, sub, f"{path}{key}.")


def validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    _check_keys(cfg, _SCHEMA, "")
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {cfg.get('schema_version')!r}; "
            f"expected {SCHEMA_VERSION}"
        )
    for section in ("plant", "channel", "identification", "design", "simulation"):
        if section not in cfg:
            raise ConfigError(f"missing config section {section!r}")
    for section, key in (("channel", "seed"), ("simulation", "base_seed")):
        if key in cfg[section]:
            require_seed(cfg[section][key], f"config key '{section}.{key}'", ConfigError)
    return cfg


def load_config(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return validate_config(cfg)


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def default_config() -> dict:
    return {
        "schema_version": 1,
        "plant": {
            "mode_freqs_hz": [0.45, 0.90],
            "damping_ratios": [0.02, 0.03],
            "p_residue_phases_deg": [8.6, 88.0],
            "q_residue_phases_deg": [-10.0, 72.0],
            "residual_corner_hz": 3.0,
            "residual_gain": 0.2,
        },
        "channel": {
            "delay": {"kind": "default-histogram", "mean_s": 0.3},
            "rate_hz": 3.5,
            "quantization_step": 0.0,
            "emission": "jittered-periodic",
            "seed": 1234,
            "campaign_messages": 1200,
        },
        "identification": {
            "register_bits": 10,
            "chip_period_s": 0.1,
            "amplitude_pu": 0.05,
            "duration_s": 600.0,
            "sample_rate_hz": 100.0,
            "band_hz": [0.1, 2.0],
            "fit_order": 6,
        },
        "design": {
            "band_hz": [0.1, 2.0],
            "max_pade_order": 8,
            "max_phase_err_deg": 10.0,
            "washout_Tw_s": 5.0,
            "limits": {"k": 0.1, "p_R": 0.5, "q_R": 0.0, "S_n": 1.0},
            "gain_grid": {"n": 40, "lo": 0.01, "hi": 100.0},
        },
        "simulation": {
            "duration_s": 30.0,
            "dt_s": 0.001,
            "scenario": {
                "kind": "state-impulse",
                "magnitude": 0.05,
                "start_s": 1.0,
                "duration_s": 0.0,
                "target": "mode-states",
            },
            "n_runs": 50,
            "base_seed": 42,
            "metric_window_s": [1.0, 30.0],
        },
    }


def plant_config(cfg: dict) -> PlantConfig:
    p = cfg["plant"]
    return PlantConfig(
        mode_freqs_hz=tuple(p["mode_freqs_hz"]),
        damping_ratios=tuple(p["damping_ratios"]),
        p_residue_phases_deg=tuple(p["p_residue_phases_deg"]),
        q_residue_phases_deg=tuple(p["q_residue_phases_deg"]),
        residual_corner_hz=p["residual_corner_hz"],
        residual_gain=p["residual_gain"],
    )


def delay_distribution(cfg: dict) -> DelayDistribution:
    d = cfg["channel"]["delay"]
    kind = d.get("kind")
    if kind == "default-histogram":
        return default_delay_distribution(mean_s=d.get("mean_s", 0.3))
    if kind == "point-mass":
        return DelayDistribution.point_mass(d["value"])
    if kind == "uniform":
        return DelayDistribution.uniform(d["low"], d["high"])
    if kind == "truncated-normal":
        return DelayDistribution.truncated_normal(d["mu"], d["sigma"], d["low"], d["high"])
    if kind == "empirical-histogram":
        return DelayDistribution.empirical(d["bin_edges"], d["bin_probs"])
    raise ConfigError(f"unknown delay kind {kind!r}")


def channel_config(cfg: dict, seed: int | None = None) -> ChannelConfig:
    c = cfg["channel"]
    return ChannelConfig(
        delay=delay_distribution(cfg),
        rate_hz=c["rate_hz"],
        quantization_step=c.get("quantization_step", 0.0),
        seed=c["seed"] if seed is None else seed,
        emission=c.get("emission", "jittered-periodic"),
    )


def prbs_config(cfg: dict) -> PrbsConfig:
    ident = cfg["identification"]
    return PrbsConfig(
        register_bits=ident["register_bits"],
        chip_period_s=ident["chip_period_s"],
        amplitude_pu=ident["amplitude_pu"],
        duration_s=ident["duration_s"],
    )


def scenario_config(cfg: dict) -> DisturbanceScenario:
    s = cfg["simulation"]["scenario"]
    return DisturbanceScenario(
        kind=s["kind"],
        magnitude=s["magnitude"],
        start_s=s.get("start_s", 0.0),
        duration_s=s.get("duration_s", 0.0),
        target=s.get("target", "mode-states"),
    )
