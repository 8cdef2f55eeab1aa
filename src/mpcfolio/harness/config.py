"""Experiment configuration: JSON file in, fully-echoed dict out.

A config is one JSON object with nested sections (data, env, policy, pretrain,
forecast, cheat, mpc, seeds, sweep, output). Every field has a default; the
effective config (defaults included) is echoed into the output directory so a
run is self-describing and reproducible byte-for-byte.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

from ..env import EnvConfig
from ..errors import ConfigError
from ..pilot import MpcConfig
from ..policy import PolicyConfig
from .synthetic import SyntheticMarketSpec

CONFIG_VERSION = 1

DEFAULTS = {
    "version": CONFIG_VERSION,
    "data": {
        "kind": "synthetic",  # synthetic | csv
        "spec": None,          # SyntheticMarketSpec dict when synthetic
        "path": None,          # CSV path when csv
        "schema": None,
        "split_dates": None,
        "split_fracs": [0.8, 0.1],
    },
    "env": {"initial_value": 100000.0, "fee_rate": 0.001},
    "policy": {"hidden": [64, 64], "mode": "stochastic", "shared_trunk": False},
    "pretrain": {"algo": "stochastic-ac", "epochs": 10, "lr": 3e-3,
                 "gamma": 0.99, "value_coef": 0.5, "entropy_coef": 1e-3},
    "forecast": {"kind": "ridge",  # ridge | zero | context | perfect | external
                 "lambda_reg": 1.0, "context_window": 30, "path": None},
    "cheat": {"enabled": False, "target_r2": None, "calibration_split": "test"},
    "mpc": {"horizon": 5, "particles": 1, "epochs": 1, "step_size": 1e-3,
            "discount": 0.99, "risk_lambda": 0.0, "noise_sigma": 0.0,
            "eps_num": 1e-8, "variant": "vanilla", "reset_mode": "persist",
            "value_scale": None},
    "seeds": [0, 1, 2, 3, 4],
    "sweep": {"r2": None, "horizon": None, "variant": None},
    "workers": 1,
    "stream_reports": False,
}


def _merge(defaults: dict, override: dict, path="") -> dict:
    out = copy.deepcopy(defaults)
    for key, val in override.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(defaults[key], dict) and isinstance(val, dict):
            out[key] = _merge(defaults[key], val, path=f"{path}{key}.")
        else:
            out[key] = copy.deepcopy(val)
    return out


def _check_no_repeats(name: str, values: list) -> None:
    """A repeated seed or sweep value would run identical cells into one report path."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"{name} repeats {value!r}")


class ExperimentConfig:
    """Validated experiment description; `raw` is the fully-defaulted dict.

    A caller that edits `raw` after construction calls `validate` again.
    """

    def __init__(self, raw: dict):
        self.raw = _merge(DEFAULTS, raw)
        self.validate()

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        return cls(raw)

    def validate(self) -> None:
        raw = self.raw
        if raw["data"]["kind"] not in ("synthetic", "csv"):
            raise ConfigError(f"data.kind must be synthetic or csv, got {raw['data']['kind']!r}")
        if raw["data"]["kind"] == "csv" and not raw["data"]["path"]:
            raise ConfigError("data.kind=csv requires data.path")
        if raw["forecast"]["kind"] not in ("ridge", "zero", "context", "perfect", "external"):
            raise ConfigError(f"unknown forecast.kind {raw['forecast']['kind']!r}")
        if raw["forecast"]["kind"] == "external" and not raw["forecast"]["path"]:
            raise ConfigError("forecast.kind=external requires forecast.path")
        if not raw["seeds"]:
            raise ConfigError("seeds must be non-empty")
        _check_no_repeats("seeds", raw["seeds"])
        if raw["workers"] < 1:
            raise ConfigError("workers must be >= 1")
        for axis, values in raw["sweep"].items():
            if values is not None and not isinstance(values, list):
                raise ConfigError(f"sweep.{axis} must be a list or null")
            _check_no_repeats(f"sweep.{axis}", values or [])
        if raw["sweep"]["r2"] or raw["cheat"]["enabled"]:
            for r2 in raw["sweep"]["r2"] or [raw["cheat"]["target_r2"]]:
                if r2 is None or not 0.0 <= r2 <= 1.0:
                    raise ConfigError(f"cheat target R2 must be in [0, 1], got {r2}")
        # constructing the typed sub-configs surfaces their own range errors
        self.env_config()
        self.mpc_config()

    # -- typed views ---------------------------------------------------------

    def synthetic_spec(self) -> SyntheticMarketSpec:
        spec = self.raw["data"]["spec"] or {}
        return SyntheticMarketSpec.from_dict(spec)

    def env_config(self, n_assets: int = 1) -> EnvConfig:
        return EnvConfig(n_assets=n_assets, **self.raw["env"])

    def policy_config(self, n_assets: int, seed: int = 0) -> PolicyConfig:
        p = self.raw["policy"]
        return PolicyConfig(n_assets=n_assets, hidden=tuple(p["hidden"]),
                            mode=p["mode"], shared_trunk=p["shared_trunk"],
                            init_seed=seed)

    def mpc_config(self, horizon=None, variant=None, value_scale=None) -> MpcConfig:
        m = dict(self.raw["mpc"])
        if horizon is not None:
            m["horizon"] = horizon
        if variant is not None:
            m["variant"] = variant
            if variant == "vanilla":
                m["particles"], m["noise_sigma"], m["risk_lambda"] = 1, 0.0, 0.0
            elif variant == "noise_only":
                m["risk_lambda"] = 0.0
        if m["value_scale"] is None:
            m["value_scale"] = value_scale if value_scale is not None \
                else self.raw["env"]["initial_value"]
        return MpcConfig(**m)

    def to_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, indent=2)
