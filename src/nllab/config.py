"""Run configuration: schema-validated JSON with all defaults materialized.

Unknown keys are rejected with the offending JSON path.  The resolved config
(including every default) is what gets persisted next to a run, so a run
directory is self-describing.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import fields
from typing import Any

from .cms import VARIANTS as CMS_VARIANTS
from .fileio import write_atomic
from .hope import CORES, HopeConfig
from .optim import KINDS as OPTIMIZER_KINDS
from .srt import OBJECTIVES, SLOTS
from .tasks import KINDS as TASK_KINDS, LANGUAGE_KINDS

# the longest sample a length bin may ask for; every config, check and benchmark stays within 80
MAX_LENGTH = 1024

_TASK_DEFAULTS = {
    "kind": "parity",
    "seed": 0,
    "bin0": [2, 40],
    "bin1": [41, 80],
    "params": {},
}

# HopeConfig's defaults, tuples as JSON lists; a run config has its own for these five
_MODEL_DEFAULTS = {
    **{f.name: list(f.default) if isinstance(f.default, tuple) else f.default for f in fields(HopeConfig)},
    "vocab": 0,  # 0 -> derived from the task vocabulary
    "dim": 16,
    "chunk": 1,
    "mem_hidden": 16,
    "cms_hidden": 8,
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


# the allowed values of each enumerated field, checked whether or not the
# model reads it (the cms_* fields are read only with use_cms)
_CHOICES = {
    ("task", "kind"): TASK_KINDS,
    ("model", "core"): CORES,
    ("model", "objective"): OBJECTIVES,
    ("model", "cms_variant"): CMS_VARIANTS,
    ("model", "cms_optimizer"): OPTIMIZER_KINDS,
    ("train", "optimizer"): OPTIMIZER_KINDS,
}

# lower bound of each integer field, and the range of each real one; a real
# whose default is None may also be null
_TRAIN_INTS = {"steps": 0, "batch_size": 1, "eval_every": 0, "train_samples": 1, "eval_samples": 1, "eval_seed": 0}
_TRAIN_REALS = {"eval_bin1_fraction": (0.0, 1.0), "clip_norm": (0.0, math.inf)}
_MODEL_INTS = {"vocab": 0, "dim": 1, "blocks": 0, "num_classes": 0, "chunk": 1, "mem_hidden": 0, "cms_hidden": 0}
_MODEL_REALS = {
    "cms_lr": (0.0, math.inf),
    "eta_bias": (-math.inf, math.inf),
    "alpha_bias": (-math.inf, math.inf),
    "fixed_eta": (0.0, math.inf),
    "fixed_alpha": (0.0, 1.0),  # a retention gate
    "fast_weight_penalty": (0.0, math.inf),
}
_MODEL_BOOLS = tuple(key for key, value in _MODEL_DEFAULTS.items() if isinstance(value, bool))
# the $.task.params keys each task kind reads; the generator range-checks the integers
_TASK_PARAMS = {**{kind: ("bin1_fraction",) for kind in LANGUAGE_KINDS}, "copy_recall": ("pairs",), "niah_toy": ("length",), "char_lm": ("window",)}


class ConfigError(ValueError):
    pass


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_numbers(section: dict, path: str, ints: dict, reals: dict, defaults: dict) -> None:
    for key, low in ints.items():
        value = section[key]
        if not _is_int(value) or value < low:
            raise ConfigError(f"{path}.{key} must be an integer >= {low}, got {value!r}")
    for key, (low, high) in reals.items():
        value = section[key]
        if value is None and defaults[key] is None:
            continue
        if not (_is_int(value) or isinstance(value, float)) or not (math.isfinite(value) and low <= value <= high):
            raise ConfigError(f"{path}.{key} must be a finite number in [{low}, {high}], got {value!r}")


def _check_train(train: dict) -> None:
    if not isinstance(train["opt_hp"], dict):
        raise ConfigError(f"$.train.opt_hp must be an object, got {train['opt_hp']!r}")
    _check_numbers(train, "$.train", _TRAIN_INTS, _TRAIN_REALS, _TRAIN_DEFAULTS)


def _check_model(model: dict) -> None:
    _check_numbers(model, "$.model", _MODEL_INTS, _MODEL_REALS, _MODEL_DEFAULTS)
    for key in _MODEL_BOOLS:
        if not isinstance(model[key], bool):
            raise ConfigError(f"$.model.{key} must be true or false, got {model[key]!r}")
    slots, known = model["frozen_slots"], (*SLOTS, "q")
    if not isinstance(slots, list) or not all(slot in known for slot in slots):
        raise ConfigError(f"$.model.frozen_slots must be a list of slot names from {known}, got {slots!r}")
    # a null level never ticks
    chunks = model["cms_chunks"]
    if not isinstance(chunks, list) or not all(c is None or (_is_int(c) and c >= 1) for c in chunks):
        raise ConfigError(f"$.model.cms_chunks must be a list of integers >= 1 or nulls, got {chunks!r}")


def _check_task(task: dict) -> None:
    for key in ("bin0", "bin1"):
        lo_hi = task[key]
        pair = isinstance(lo_hi, list) and len(lo_hi) == 2 and all(_is_int(n) and 1 <= n <= MAX_LENGTH for n in lo_hi)
        if not pair or lo_hi[0] > lo_hi[1]:
            raise ConfigError(f"$.task.{key} must be two integers 1 <= lo <= hi <= {MAX_LENGTH}, got {lo_hi!r}")
    if not _is_int(task["seed"]):
        raise ConfigError(f"$.task.seed must be an integer, got {task['seed']!r}")
    params = task["params"]
    if not isinstance(params, dict):
        raise ConfigError(f"$.task.params must be an object, got {params!r}")
    known = _TASK_PARAMS.get(task["kind"], ())
    for key in params:
        if key not in known:
            raise ConfigError(f"unknown key $.task.params.{key} for task {task['kind']!r}, which reads {list(known)}")
    if "bin1_fraction" in params:
        _check_numbers(params, "$.task.params", {}, {"bin1_fraction": (0.0, 1.0)}, {"bin1_fraction": 0.0})


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
    if not _is_int(cfg["version"]) or cfg["version"] != 1:
        raise ConfigError(f"$.version must be the integer 1, got {cfg['version']!r}")
    for (section, key), allowed in _CHOICES.items():
        value = cfg[section][key]
        if value not in allowed:
            raise ConfigError(f"$.{section}.{key} must be one of {list(allowed)}, got {value!r}")
    _check_task(cfg["task"])
    _check_model(cfg["model"])
    _check_train(cfg["train"])
    if not _is_int(cfg["seed"]):
        raise ConfigError(f"$.seed must be an integer, got {cfg['seed']!r}")
    if not isinstance(cfg["out_dir"], str) or not cfg["out_dir"]:
        raise ConfigError(f"$.out_dir must be a non-empty string, got {cfg['out_dir']!r}")
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
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nesting too deep
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return resolve(raw)


def write_json_atomic(path: str, payload: Any) -> None:
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
