"""nllab benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload parity_train --seed 1 --seconds 10 --trace 0

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, with the
operation times scaled to a reference machine speed measured during the run
(speed.py; the measured times are in the detail file).  `--trace 1`
does the workload's fixed work twice, untraced and then traced, checks that
both give bit-identical outputs, and reports the per-layer metrics.  Details
(run metadata, output digests, losses) go to `.perfbench_out/` in the
checkout; the last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_REPEATS = {"full": 9, "tiny": 1}
DEFAULT_SEED = 0

# numpy is imported before the clock starts: its import time is no nllab
# change's to move, and it varied by 2x from one interpreter to the next
IMPORT_PROBE = (
    "import sys, time\n"
    "import numpy\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import importlib\n"
    "for m in sys.argv[2:]:\n"
    "    importlib.import_module(m)\n"
    "print(time.perf_counter() - t)\n"
)


def import_nllab():
    """Import nllab from this checkout's src/; never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import nllab
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import nllab from {src}: {exc}")
    if not Path(nllab.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: nllab resolved to {nllab.__file__}, outside {src}")


def derive_seeds(seed: int) -> dict:
    import numpy as np

    data, model, shuffle, readout = (int(x) for x in np.random.SeedSequence(seed).generate_state(4) % (2**31))
    return {"data": data, "model": model, "shuffle": shuffle, "readout": readout}


def time_import(modules) -> float:
    """Seconds to import `modules` in a fresh interpreter, timed inside it."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), *modules],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def setup(workload, name: str, seeds: dict, size: str):
    """Build the workload several times; set-up time is the median of
    (fresh-interpreter import + input generation + model construction).

    Set-up time is not scaled to reference speed: it is mostly the import in
    a fresh interpreter, whose time the kernel of speed.py did not track
    (scaling widened its spread on three workloads of six)."""
    import workloads

    times = []
    state = None
    for _ in range(SETUP_REPEATS[size]):
        imp = time_import(workloads.IMPORTS[name])
        t0 = time.perf_counter()
        state = workload.build(seeds, size)
        times.append(imp + time.perf_counter() - t0)
    return state, statistics.median(times)


# ---------------------------------------------------------------------------
# output checks


def reference_problems(name: str, size: str, digest: dict) -> list[str]:
    """Compare the default seed's outputs with the stored reference values.

    Training losses are compared over the first `window` steps only; see
    reference.json for why and for the tolerances.
    """
    ref = json.loads(REFERENCE.read_text())
    entry = ref["values"].get(size, {}).get(name)
    if entry is None:
        return [f"no reference values for {name} at size {size}"]
    problems = []
    if "losses" in entry:
        want = entry["losses"]
        got = digest["losses"][: len(want)]
        if len(got) != len(want):
            return [f"{len(got)} losses, reference has {len(want)}"]
        worst = max(abs(a - b) / abs(b) for a, b in zip(got, want))
        if not worst <= ref["rtol"]:
            problems.append(f"losses differ from reference by {worst:.3g} relative (tolerance {ref['rtol']})")
    if "predictions" in entry:
        flips = sum(a != b for a, b in zip(digest["predictions"], entry["predictions"]))
        if flips > ref["max_prediction_flips"]:
            problems.append(f"{flips} eval predictions differ from reference")
    return problems


# ---------------------------------------------------------------------------
# metadata


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports; read, never set."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def metadata(args) -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


# ---------------------------------------------------------------------------
# metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(ops, setup_s: float) -> dict:
    """The end-to-end metrics; times are scaled to reference speed (speed.py)."""
    seconds = ops.speed.scale_ops(ops.seconds, ops.marks)
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "throughput": (sum(ops.work) / sum(seconds), "1/s"),
        "op_ms_p50": (statistics.median(s * 1e3 for s in seconds), "ms"),
    }


def latency(ops) -> dict:
    """Op latency percentiles with their sample count, for the detail file."""
    ms = sorted(s * 1e3 for s in ops.seconds)
    out = {"count": len(ms), "p50": statistics.median(ms)}
    if len(ms) >= 2:
        out["p90"] = statistics.quantiles(ms, n=10, method="inclusive")[8]
    return out


def run(args) -> tuple[dict, dict]:
    import workloads
    from speed import Speed
    from workloads import Ops

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, str(OUT_DIR / "verify"))
    (OUT_DIR / "verify").mkdir(exist_ok=True)
    seeds = derive_seeds(args.seed)
    problems: list[str] = []
    detail: dict = {"meta": metadata(args), "seeds": seeds}

    state, setup_s = setup(workload, args.workload, seeds, args.size)
    speed = Speed()
    # probes run only in untraced runs, whose times are reported
    ops = Ops(speed=None if args.trace else speed)
    t0 = time.perf_counter()
    digest = workload.fixed(state, ops)
    problems += workload.check(digest)
    if args.seed == DEFAULT_SEED:
        problems += reference_problems(args.workload, args.size, digest)

    if not args.trace:
        if not workload.more(state, ops, t0 + args.seconds, digest):
            problems.append("a repeat of the fixed work gave different outputs")
        metrics = end_to_end(ops, setup_s)
        detail["speed"] = {
            "probes": len(speed.samples), "kernel_ms_p50": 1e3 * statistics.median(speed.samples),
            "samples": speed.samples, "op_marks": ops.marks,
        }
    else:
        import spans

        fixed_seconds = sum(ops.seconds)
        tracer = spans.Tracer()
        tracer.install()
        traced_state = workload.build(seeds, args.size)
        traced_ops = Ops(on_op=tracer.new_group)
        traced_digest = workload.fixed(traced_state, traced_ops)
        if traced_digest != digest:
            problems.append("the traced run's outputs differ from the untraced run's")
        tokens = sum(traced_ops.work) if args.workload in workloads.TRAIN else traced_digest.get("tokens", 0)
        check_seconds = traced_state.get("check_seconds", {})
        metrics = spans.layer_metrics(tracer, traced_ops.attempted, tokens, check_seconds, traced_ops.failed)
        metrics["trace.overhead_pct"] = (100.0 * (sum(traced_ops.seconds) / fixed_seconds - 1.0), "%")
        detail["trace_counts"] = dict(tracer.counts)
        tracer.save(str(OUT_DIR / f"trace-{args.workload}-{args.size}.npz"), detail["meta"])
        ops.attempted += traced_ops.attempted
        ops.failed += traced_ops.failed

    detail.update(
        digest=digest, summary=workload.summary(digest), problems=problems,
        latency_ms=latency(ops), op_seconds=ops.seconds, op_work=ops.work,
    )
    result = {
        "correct": not problems and ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: a few steps, for the self-test")
    args = parser.parse_args(argv)

    import_nllab()
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; expected one of {workloads.NAMES}")
    result, detail = run(args)

    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for problem in detail["problems"]:
        print(f"problem: {problem}")
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    path.write_text(json.dumps(detail, indent=1, default=repr))
    print(f"detail {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
