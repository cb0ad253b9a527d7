"""Run configuration: schema-validated JSON with all defaults materialized.

Unknown keys are rejected with the offending JSON path.  The resolved config
(including every default) is what gets persisted next to a run, so a run
directory is self-describing.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any

from .fileio import write_atomic
from .hope import CORES
from .tasks import KINDS as TASK_KINDS
from . import optim

_TASK_DEFAULTS = {
    "kind": "parity",
    "seed": 0,
    "bin0": [2, 40],
    "bin1": [41, 80],
    "params": {},
}

_MODEL_DEFAULTS = {
    "vocab": 0,  # 0 -> derived from the task vocabulary
    "dim": 16,
    "blocks": 1,
    "num_classes": 0,
    "core": "srt",
    "objective": "l2",
    "chunk": 1,
    "mem_hidden": 16,
    "retention": True,
    "frozen_slots": [],
    "conv": False,
    "use_cms": True,
    "cms_chunks": [1, 4],
    "cms_variant": "sequential",
    "cms_hidden": 8,
    "cms_lr": 0.05,
    "cms_optimizer": "sgd",
    "eta_bias": -2.0,
    "alpha_bias": 3.0,
    "fixed_eta": None,
    "fixed_alpha": None,
    "fast_weight_penalty": 0.01,
    "tie_readout": False,
}

_TRAIN_DEFAULTS = {
    "optimizer": "adam",
    "opt_hp": {},
    "steps": 1500,
    "batch_size": 4,
    "eval_every": 250,
    "train_samples": 2048,
    "eval_samples": 200,
    "eval_seed": 99,
    "eval_bin1_fraction": 0.5,
    "clip_norm": 1.0,
}

_TOP_DEFAULTS = {
    "version": 1,
    "seed": 0,
    "out_dir": "runs/default",
    "task": _TASK_DEFAULTS,
    "model": _MODEL_DEFAULTS,
    "train": _TRAIN_DEFAULTS,
}


# lower bound of each integer $.train field, and the range of each real one
_TRAIN_INTS = {"steps": 0, "batch_size": 1, "eval_every": 0, "train_samples": 1, "eval_samples": 1, "eval_seed": 0}
_TRAIN_REALS = {"eval_bin1_fraction": (0.0, 1.0), "clip_norm": (0.0, math.inf)}


class ConfigError(ValueError):
    pass


def _check_train(train: dict) -> None:
    if not isinstance(train["opt_hp"], dict):
        raise ConfigError(f"$.train.opt_hp must be an object, got {train['opt_hp']!r}")
    for key, low in _TRAIN_INTS.items():
        value = train[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < low:
            raise ConfigError(f"$.train.{key} must be an integer >= {low}, got {value!r}")
    for key, (low, high) in _TRAIN_REALS.items():
        value = train[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not low <= value <= high:
            raise ConfigError(f"$.train.{key} must be a number in [{low}, {high}], got {value!r}")


def _merge(defaults: dict, given: dict, path: str) -> dict:
    out = {}
    for key, value in given.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key at {path}.{key}")
    for key, default in defaults.items():
        if key in given:
            value = given[key]
            if isinstance(default, dict) and key != "params" and key != "opt_hp":
                if not isinstance(value, dict):
                    raise ConfigError(f"expected an object at {path}.{key}")
                out[key] = _merge(default, value, f"{path}.{key}")
            else:
                out[key] = value
        else:
            out[key] = json.loads(json.dumps(default))  # deep copy
    return out


def resolve(raw: dict) -> dict:
    cfg = _merge(_TOP_DEFAULTS, raw, "$")
    if cfg["version"] != 1:
        raise ConfigError(f"unsupported config version {cfg['version']}")
    if cfg["task"]["kind"] not in TASK_KINDS:
        raise ConfigError(f"unknown task kind {cfg['task']['kind']!r} at $.task.kind")
    if cfg["model"]["core"] not in CORES:
        raise ConfigError(f"unknown core {cfg['model']['core']!r} at $.model.core")
    if cfg["train"]["optimizer"] not in optim.KINDS:
        raise ConfigError(f"unknown optimizer {cfg['train']['optimizer']!r} at $.train.optimizer")
    _check_train(cfg["train"])
    if isinstance(cfg["seed"], bool) or not isinstance(cfg["seed"], int):
        raise ConfigError(f"$.seed must be an integer, got {cfg['seed']!r}")
    if not isinstance(cfg["out_dir"], str):
        raise ConfigError(f"$.out_dir must be a string, got {cfg['out_dir']!r}")
    env_seed = os.environ.get("NLLAB_SEED")
    if env_seed is not None:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"NLLAB_SEED must be an integer, got {env_seed!r}") from None
    return cfg


def load_config(path: str) -> dict:
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return resolve(raw)


def write_json_atomic(path: str, payload: Any) -> None:
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
