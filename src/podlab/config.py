"""Project configuration: the packaged default, validation and object builders.

The packaged ``data/default_config.json`` is both the default config and its
key set: a config holds exactly its keys, each with the default's JSON type,
apart from the keys in ``_FALLBACKS`` that it may omit and the keys of its
delay kind in ``_DELAY_KINDS``.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from importlib import resources
from pathlib import Path

from .channel import ChannelConfig, DelayDistribution, default_delay_distribution, require_seed
from .errors import ConfigError
from .refplant import DisturbanceScenario, PlantConfig
from .sysid import PrbsConfig

SCHEMA_VERSION = 1

# the keys a config may omit, and the value each then takes
_FALLBACKS = {
    "channel.campaign_messages": 1200,
    "channel.quantization_step": 0.0,
    "channel.emission": "jittered-periodic",
    "channel.delay.mean_s": 0.3,
    "design.max_phase_err_deg": 10.0,
    "design.max_pade_order": 8,
    "design.washout_Tw_s": 5.0,
    "simulation.scenario.start_s": 0.0,
    "simulation.scenario.duration_s": 0.0,
    "simulation.scenario.target": "mode-states",
}

# each delay kind's builder and keys, in the builder's argument order; a
# key's value here gives only its type, so a list of any length passes
_DELAY_KINDS = {
    "default-histogram": (default_delay_distribution, {"mean_s": 0.0}),
    "point-mass": (DelayDistribution.point_mass, {"value": 0.0}),
    "uniform": (DelayDistribution.uniform, {"low": 0.0, "high": 0.0}),
    "truncated-normal": (
        DelayDistribution.truncated_normal, {"mu": 0.0, "sigma": 0.0, "low": 0.0, "high": 0.0}
    ),
    "empirical-histogram": (DelayDistribution.empirical, {"bin_edges": [0.0], "bin_probs": [0.0]}),
}

_SEEDS = ("channel.seed", "simulation.base_seed")

# what a leaf of each default type accepts; bool is never a number
_ACCEPTS = {int: int, float: (int, float), str: str, list: list, dict: dict}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", list: "a list", dict: "a section"}


@functools.cache
def _default_text() -> str:
    return (resources.files(__package__) / "data" / "default_config.json").read_text()


def default_config() -> dict:
    """A fresh copy of the packaged default config."""
    return json.loads(_default_text())


def _delay_kind(kind) -> tuple:
    if not isinstance(kind, str) or kind not in _DELAY_KINDS:
        raise ConfigError(f"unknown delay kind {kind!r}")
    return _DELAY_KINDS[kind]


def _delay_template(delay: dict) -> dict:
    """The keys of a delay section: its kind and that kind's keys."""
    if "kind" not in delay:
        raise ConfigError("missing config key 'channel.delay.kind'")
    kind = delay["kind"]
    keys = _delay_kind(kind)[1]
    for key in delay:
        if key not in keys and any(key in k for _, k in _DELAY_KINDS.values()):
            raise ConfigError(f"config key 'channel.delay.{key}' does not apply to delay kind {kind!r}")
    return {"kind": kind, **keys}


def _checked(value, default, name: str):
    """``value`` checked against the type of ``default``; a section comes
    back complete, with its omitted keys at their fallbacks."""
    if name in _SEEDS:
        require_seed(value, f"config key {name!r}", ConfigError)
        return value
    if isinstance(value, bool) or not isinstance(value, _ACCEPTS[type(default)]):
        raise ConfigError(f"config key {name!r} must be {_TYPE_NAMES[type(default)]}, got {value!r}")
    # json.loads reads the extensions Infinity and NaN as floats
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"config key {name!r} must be finite, got {value!r}")
    if isinstance(default, list):
        if not name.startswith("channel.delay.") and len(value) != len(default):
            raise ConfigError(f"config key {name!r} must hold {len(default)} items, got {len(value)}")
        for i, item in enumerate(value):
            _checked(item, default[0], f"{name}[{i}]")
    if not isinstance(default, dict):
        return value
    if name == "channel.delay":
        default = _delay_template(value)
    prefix = f"{name}." if name else ""
    for key in value:
        if key not in default:
            raise ConfigError(f"unknown config key '{prefix}{key}'")
    out = {}
    for key, sub in default.items():
        path = prefix + key
        if key in value:
            out[key] = _checked(value[key], sub, path)
        elif path in _FALLBACKS:
            out[key] = _FALLBACKS[path]
        else:
            raise ConfigError(f"missing config key {path!r}")
    return out


def validate_config(cfg: dict) -> dict:
    """A complete copy of ``cfg``: every key the default config has, with
    the omitted optional keys at their fallbacks.  Raises ``ConfigError``
    naming the key for an unknown, missing or mistyped key, or a list of
    another length than the default's."""
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    cfg = _checked(cfg, default_config(), "")
    if cfg["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {cfg['schema_version']!r}; expected {SCHEMA_VERSION}"
        )
    return cfg


def load_config(path: str | Path) -> tuple[dict, str]:
    """The complete config in a JSON file, and the hash of the config as
    written, which artifacts carry."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path} ({exc})") from None
    return validate_config(cfg), config_hash(cfg)


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _filled(cls, section: dict):
    """A ``cls`` dataclass whose every field takes the section's key of its
    name, a list as a tuple."""
    values = {f.name: section[f.name] for f in dataclasses.fields(cls)}
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})


def plant_config(cfg: dict) -> PlantConfig:
    return _filled(PlantConfig, cfg["plant"])


def delay_distribution(cfg: dict) -> DelayDistribution:
    d = cfg["channel"]["delay"]
    build, keys = _delay_kind(d["kind"])
    return build(*(d[key] for key in keys))


def channel_config(cfg: dict) -> ChannelConfig:
    return _filled(ChannelConfig, {**cfg["channel"], "delay": delay_distribution(cfg)})


def prbs_config(cfg: dict) -> PrbsConfig:
    return _filled(PrbsConfig, cfg["identification"])


def scenario_config(cfg: dict) -> DisturbanceScenario:
    return _filled(DisturbanceScenario, cfg["simulation"]["scenario"])
