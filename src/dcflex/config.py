"""Configuration: defaults, INI file, environment and flag overrides.

``load_config`` is the one place a value is resolved. Later sources win:
built-in defaults, config file sections, environment variables named
``DCFLEX_<SECTION>_<KEY>``, then command-line flags, which the CLI passes
in as overrides keyed by their config key. Unknown sections and keys are
rejected. The resolved configuration is what every output artifact echoes.
"""

from __future__ import annotations

import configparser
import copy
import os

from .model import DataCenterSpec, TimeGrid, default_preempt_overhead_min

ENV_PREFIX = "DCFLEX"

DEFAULTS = {
    "grid": {
        "step_minutes": 15.0,
        "horizon_steps": 960,
    },
    "datacenter": {
        "total_resources": 100.0,
        "unit_power_kw": 1.0,       # nominal G
        "fixed_power_kw": 0.0,      # nominal G0
        "device_class": "gpu_ai",
        "preempt_overhead_min": -1.0,  # <0: per-device-class default
        "preempt_budget_frac": 0.01,
    },
    "econ": {
        "price_reduction_coeff": 0.5,
        "hourly_unit_price": 1.0,
        "energy_price": 0.05,
    },
    "campaign": {
        "durations_hours": "0.25,0.5,1,2,4",
        "frequencies": "365,730,1460,2920",
        "delays": "0.1,0.2,0.5",
        "fractions": "none,0.25,0.5,0.75,1.0",  # none: the flexibility cell
        "clusters_per_day": 100,  # 0: no aggregation
        "master_seed": 0,
        "workers": 0,  # 0: one worker per available core
    },
    "dq": {
        "enabled": False,
        "speedup": 0.5,
    },
    "solver": {
        "mip_rel_gap": 1e-4,
        "time_limit_s": 600.0,
    },
    "ingest": {
        "currency_rate": 1.0,
    },
}


def _coerce(default, text: str, source: str):
    """text as the type of default; a ValueError names source, where text came from."""
    try:
        if isinstance(default, bool):
            booleans = configparser.ConfigParser.BOOLEAN_STATES
            word = text.strip().lower()
            if word not in booleans:
                raise ValueError(f"not a boolean: {text!r} (use 1/true/yes/on or 0/false/no/off)")
            return booleans[word]
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return float(text)
        return text
    except ValueError as exc:
        raise ValueError(f"{exc} in {source}") from None


def load_config(path=None, overrides=None) -> dict:
    """Resolve the configuration dictionary.

    overrides maps ("section", "key") to already-typed values; None values
    are skipped, so a flag that was not given leaves the key as resolved.
    """
    config = copy.deepcopy(DEFAULTS)
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(str(path))
        if not read:
            raise FileNotFoundError(f"config file {path} not found")
        for section in parser.sections():
            if section not in config:
                raise ValueError(f"unknown config section [{section}]")
            for key, text in parser.items(section):
                if key not in config[section]:
                    raise ValueError(f"unknown config key {key!r} in [{section}]")
                config[section][key] = _coerce(config[section][key], text,
                                               f"[{section}] {key}")
    for section, keys in config.items():
        for key in keys:
            env_name = f"{ENV_PREFIX}_{section.upper()}_{key.upper()}"
            if env_name in os.environ:
                config[section][key] = _coerce(config[section][key], os.environ[env_name],
                                               env_name)
    for (section, key), value in (overrides or {}).items():
        if value is None:
            continue
        config[section][key] = value
    return config


def parse_float_list(text: str) -> list:
    return [float(part) for part in text.split(",") if part.strip()]


def parse_fractions(text) -> list:
    """Flex fractions from a comma list; `none` is the flexibility cell."""
    return [None if part.strip().lower() == "none" else float(part)
            for part in str(text).split(",") if part.strip()]


def grid_from_config(config: dict) -> TimeGrid:
    g = config["grid"]
    return TimeGrid(step_minutes=g["step_minutes"], steps=int(g["horizon_steps"]))


def spec_from_config(config: dict) -> DataCenterSpec:
    d = config["datacenter"]
    overhead = d["preempt_overhead_min"]
    if overhead < 0:
        overhead = default_preempt_overhead_min(d["device_class"])
    return DataCenterSpec(
        total_resources=d["total_resources"],
        unit_power_kw=d["unit_power_kw"],
        fixed_power_kw=d["fixed_power_kw"],
        preempt_overhead_min=overhead,
        preempt_budget_frac=d["preempt_budget_frac"],
        device_class=d["device_class"],
    )


def resolve_workers(value) -> int:
    value = int(value or 0)
    if value > 0:
        return value
    return os.cpu_count() or 1
