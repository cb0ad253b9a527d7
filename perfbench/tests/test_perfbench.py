"""Self-test of the benchmark: every workload at tiny size, untraced and traced.

Checks that each run prints every metric of BENCHMARK.json with its unit,
that the output checks pass with no failed operation, and that the traced
run computes exactly what the untraced run computes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(workload: str, trace: int) -> tuple[dict, dict]:
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    detail = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed0-trace{trace}-tiny.json").read_text())
    return result, detail


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_at_tiny_size(workload):
    plain, plain_detail = _result(workload, 0)
    traced, traced_detail = _result(workload, 1)
    for result, detail, spec in ((plain, plain_detail, "end_to_end"), (traced, traced_detail, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], detail["problems"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in BENCH[spec]}
    assert all(plain["metrics"][m["name"]]["value"] > 0 for m in BENCH["end_to_end"])
    # the untraced run timed the reference kernel, to scale its times
    assert plain_detail["speed"]["probes"] >= 1
    # traced and untraced processes computed bit-identical outputs
    assert traced_detail["digest"] == plain_detail["digest"]
    counts = traced_detail["trace_counts"]
    if "tape.backward_nodes" in counts and workload != "verify_fast":
        # every recorded node was counted once, by op tag
        assert sum(v for k, v in counts.items() if k.startswith("nodes.")) == counts["tape.backward_nodes"]
    if workload == "parity_eval":
        assert traced["metrics"]["hope.forwards_per_sample"]["value"] > 0


def test_fails_without_the_program():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(WORKLOADS[0], 0, cwd=bare)
    assert out.returncode != 0
    assert not out.stdout.strip()
    shutil.rmtree(bare)
