"""Run logs: versioned JSONL with strictly increasing step fields."""

from __future__ import annotations

import json
import os

from .fileio import write_atomic


class RunlogError(ValueError):
    pass


def _check_record(rec: dict, last, where: str) -> None:
    """Version the integer 1 and an integer step above `last` (None: first record)."""
    version = rec.get("version")
    if type(version) is not int or version != 1:
        raise RunlogError(f"{where} has unsupported version {version!r}")
    if "step" not in rec:
        raise RunlogError(f"{where} is missing the step field")
    if type(rec["step"]) is not int:
        raise RunlogError(f"{where}: step must be an integer, got {rec['step']!r}")
    if last is not None and rec["step"] <= last:
        raise RunlogError(f"{where}: steps must strictly increase, got {rec['step']} after {last}")


def write_runlog(path: str, records: list[dict]) -> None:
    """Write `records` with version 1 added; a record `read_runlog` would reject raises first."""
    last = None
    lines = []
    for i, rec in enumerate(records):
        rec = {"version": 1, **rec}
        _check_record(rec, last, f"record {i}")
        last = rec["step"]
        lines.append(json.dumps(rec, sort_keys=True))
    write_atomic(path, "".join(line + "\n" for line in lines))


def read_runlog(path: str) -> list[dict]:
    records = []
    last = None
    with open(path, "rb") as f:
        for i, raw in enumerate(f):
            try:
                line = raw.decode().strip()
                if not line:
                    continue
                rec = json.loads(line)
            except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nesting too deep
                raise RunlogError(f"line {i + 1} is not valid JSON") from exc
            if not isinstance(rec, dict):
                raise RunlogError(f"line {i + 1} is not a JSON object")
            _check_record(rec, last, f"line {i + 1}")
            last = rec["step"]
            records.append(rec)
    return records


def emit_plot_series(records: list[dict], out_dir: str) -> list[str]:
    """One CSV per numeric metric, `<metric>.csv` in `out_dir`: step,value rows for
    every record carrying it.  A metric name that is not a file name raises
    RunlogError before anything is written."""
    metrics = sorted({k for rec in records for k, v in rec.items() if k not in ("step", "version") and isinstance(v, (int, float))})
    for metric in metrics:
        if os.sep in metric or "\0" in metric:
            raise RunlogError(f"metric name {metric!r} is not a file name")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for metric in metrics:
        path = os.path.join(out_dir, f"{metric}.csv")
        rows = [f"{rec['step']},{rec[metric]}\n" for rec in records if isinstance(rec.get(metric), (int, float))]
        write_atomic(path, "step,value\n" + "".join(rows))
        written.append(path)
    return written
