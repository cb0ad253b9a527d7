"""Rewrite reference.json with the default seed's outputs at both sizes.

    python3 perfbench/make_reference.py

Run it only for a change that is meant to alter what nllab computes, and say
so in that change.  The tolerances and their reasons are kept as they are.
"""

import json
import sys

import run


def main() -> int:
    run.import_nllab()
    import workloads

    ref = json.loads(run.REFERENCE.read_text())
    seeds = run.derive_seeds(run.DEFAULT_SEED)
    values = {}
    for size in ("full", "tiny"):
        for name in workloads.NAMES:
            workload = workloads.make(name, str(run.OUT_DIR / "verify"))
            run.OUT_DIR.joinpath("verify").mkdir(parents=True, exist_ok=True)
            digest = workload.fixed(workload.build(seeds, size), workloads.Ops())
            problems = workload.check(digest)
            if problems:
                print(f"{name} ({size}): {problems}", file=sys.stderr)
                return 1
            entry = {k: digest[k] for k in ("losses", "predictions") if k in digest}
            if name in workloads.TRAIN:
                entry["losses"] = entry["losses"][: ref["window"]]
            values.setdefault(size, {})[name] = entry
            print(f"{name} ({size}): {workload.summary(digest)}")
    ref["values"] = values
    run.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
