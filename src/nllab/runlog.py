"""Run logs: versioned JSONL with strictly increasing step fields."""

from __future__ import annotations

import json
import os

from .fileio import write_atomic


class RunlogError(ValueError):
    pass


def write_runlog(path: str, records: list[dict]) -> None:
    last = 0
    lines = []
    for rec in records:
        if "step" not in rec:
            raise RunlogError("every record needs a step field")
        if rec["step"] <= last and lines:
            raise RunlogError(f"steps must strictly increase, got {rec['step']} after {last}")
        last = rec["step"]
        lines.append(json.dumps({"version": 1, **rec}, sort_keys=True))
    write_atomic(path, "".join(line + "\n" for line in lines))


def read_runlog(path: str) -> list[dict]:
    records = []
    last = None
    with open(path) as f:
        for i, line in enumerate(f):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RunlogError(f"line {i + 1} is not valid JSON") from exc
            if not isinstance(rec, dict):
                raise RunlogError(f"line {i + 1} is not a JSON object")
            version = rec.get("version")
            if not isinstance(version, int) or isinstance(version, bool) or version != 1:
                raise RunlogError(f"line {i + 1} has unsupported version {version!r}")
            if "step" not in rec:
                raise RunlogError(f"line {i + 1} is missing the step field")
            if not isinstance(rec["step"], int) or isinstance(rec["step"], bool):
                raise RunlogError(f"line {i + 1}: step must be an integer, got {rec['step']!r}")
            if last is not None and rec["step"] <= last:
                raise RunlogError(f"line {i + 1}: steps must strictly increase")
            last = rec["step"]
            records.append(rec)
    return records


def emit_plot_series(records: list[dict], out_dir: str) -> list[str]:
    """One CSV per numeric metric: step,value rows for every record carrying it."""
    os.makedirs(out_dir, exist_ok=True)
    metrics = sorted({k for rec in records for k, v in rec.items() if k not in ("step", "version") and isinstance(v, (int, float))})
    written = []
    for metric in metrics:
        path = os.path.join(out_dir, f"{metric}.csv")
        rows = [f"{rec['step']},{rec[metric]}\n" for rec in records if isinstance(rec.get(metric), (int, float))]
        write_atomic(path, "step,value\n" + "".join(rows))
        written.append(path)
    return written
