"""Outside-in span tracer for nllab.

`Tracer.install()` replaces public nllab functions with timing wrappers, from
this file only; nothing in the package changes.  A wrapper records one span
(name, start, end, parent, group) around the original call and returns the
original result untouched, so a traced computation is the untraced one.

Spans live in flat integer arrays while the run lasts and are written out by
`Tracer.save` at the end.  `layer_metrics` turns them into per-layer metrics:
a span's self time is its duration minus the time its direct child spans
cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# op tags reported one by one; every other tag is folded into "other"
OPS = ("matmul", "mul", "add", "sub", "outer", "silu", "l2_normalize", "column", "stack_columns")
OP_GROUPS = OPS + ("other",)

# public functions of nllab.tensor that record no tape node
NOT_PRIMITIVES = frozenset(
    {"set_checked", "checked", "set_default_dtype", "default_dtype", "tensor", "zeros", "eye", "as_array", "finite_diff_grad"}
)

# the fast checks of nllab.verify, each timed as verify.check_s.<name>
VERIFY_CHECKS = (
    "rule-oracle-hebbian", "rule-oracle-delta", "rule-oracle-oja", "dgd-proximal-argmin",
    "adam-am-equivalence", "momentum-ftrl-identity", "newton-schulz-polar", "m3-structure",
    "cms-frequency-and-sgd", "srt-chunked-sequential", "linear-attention-recovery", "hope-gradient-integrity",
    "contribution-curve", "checkpoint-roundtrip", "config-roundtrip", "runlog-schema",
)


def op_group(tag: str) -> str:
    if tag in OPS:
        return tag
    if tag.startswith("l2_normalize"):
        return "l2_normalize"
    return "other"


def _rebind(original, replacement) -> None:
    """Point every nllab module-level name bound to `original` at `replacement`."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "nllab" or mod_name.startswith("nllab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    """Span store plus the wrappers that fill it.  One per process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.group_starts = array("q")  # index of the first span of each group after the first
        self._stack: list[int] = [-1]
        self.counts: dict[str, float] = {}
        self._tapes: list = []  # tapes made since the last flush, counted by op tag
        self._node_keys: dict[str, str] = {}
        self._evaluate_depth = 0
        self.installed = False

    # -- span recording -------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _timed(self, name: str, fn, on_result=None):
        """`fn` wrapped in a span; `on_result(args, result)` runs after it."""
        nid = self._id(name)
        name_id, start, end, parent, stack = self.name_id, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, out)
            return out

        return wrapper

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def flush(self) -> None:
        """Count the nodes of every tape made since the last flush by op tag."""
        keys = self._node_keys
        counts = self.counts
        for tape in self._tapes:
            for node in tape.nodes:
                key = keys.get(node.op)
                if key is None:
                    key = keys[node.op] = "nodes." + op_group(node.op)
                counts[key] = counts.get(key, 0) + 1
        self._tapes.clear()

    def new_group(self) -> None:
        """Start the next step, sample or check: later spans share its id."""
        self.flush()
        self.group_starts.append(len(self.start))

    # -- wrappers ---------------------------------------------------------

    def install(self) -> None:
        """Wrap the public layer functions of an imported nllab package."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        self.installed = True
        from nllab import cms, hope, memory, optim, srt, tasks
        from nllab import tensor as T

        for name, fn in list(vars(T).items()):
            if (
                callable(fn)
                and not isinstance(fn, type)
                and not name.startswith("_")
                and name not in NOT_PRIMITIVES
                and getattr(fn, "__module__", None) == T.__name__
            ):
                on_result = self._on_embedding if name == "embedding" else None
                _rebind(fn, self._timed("tensor." + op_group(name), fn, on_result))
        T.Tape.__init__ = self._tape_init(T.Tape.__init__)
        T.Tape.backward = self._backward(T.Tape.backward)

        for name in ("build_loss", "predict", "loss"):
            setattr(hope.HopeModel, name, self._timed(f"hope.{name}", getattr(hope.HopeModel, name)))

        _rebind(srt.srt_forward_nodes, self._srt_forward(srt.srt_forward_nodes))
        _rebind(cms.forward_with_nodes, self._timed("cms.forward", cms.forward_with_nodes))
        _rebind(cms.cms_accumulate, self._timed("cms.accumulate", cms.cms_accumulate))
        _rebind(cms.cms_tick, self._timed("cms.tick", cms.cms_tick, self._on_tick))
        _rebind(optim.step, self._timed("optim.step", optim.step, lambda args, out: self.count("optim.step_calls")))
        _rebind(memory.rule_step, self._timed("memory.rule_step", memory.rule_step))
        _rebind(memory.gd_oracle_step, self._timed("memory.gd_oracle_step", memory.gd_oracle_step))
        _rebind(tasks.generate, self._timed("tasks.generate", tasks.generate, lambda args, out: self.count("tasks.generate_calls")))
        _rebind(tasks.evaluate, self._evaluate(tasks.evaluate))

    def _on_tick(self, args, applied) -> None:
        self.count("cms.tick_calls")
        self.count("cms.levels_applied", len(applied))

    def _on_embedding(self, args, out) -> None:
        # one embedding lookup per model forward
        if self._evaluate_depth:
            self.count("eval.embedding_calls")

    def _tape_init(self, method):
        @functools.wraps(method)
        def wrapper(tape, *args, **kwargs):
            method(tape, *args, **kwargs)
            self._tapes.append(tape)

        return wrapper

    def _backward(self, method):
        timed = self._timed("tensor.backward", method)
        vjp_ids: dict[str, int] = {}
        name_id, start, end, parent, stack = self.name_id, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter_ns

        def wrap_vjp(nid: int, vjp):
            # lean on purpose: one wrapper per recorded node per backward
            def wrapper(g):
                idx = len(start)
                name_id.append(nid)
                parent.append(stack[-1])
                end.append(0)
                stack.append(idx)
                start.append(clock())
                try:
                    return vjp(g)
                finally:
                    end[idx] = clock()
                    stack.pop()

            return wrapper

        @functools.wraps(method)
        def wrapper(tape, loss):
            self.count("tape.backward_nodes", len(tape.nodes))
            for node in tape.nodes:
                if node.vjp is not None:
                    nid = vjp_ids.get(node.op)
                    if nid is None:
                        nid = vjp_ids[node.op] = self._id("vjp." + op_group(node.op))
                    node.vjp = wrap_vjp(nid, node.vjp)
            return timed(tape, loss)

        return wrapper

    def _srt_forward(self, fn):
        timed = self._timed("srt.forward", fn)

        @functools.wraps(fn)
        def wrapper(tape, cfg, weights, wq, x, *args, **kwargs):
            n0 = len(tape.nodes)
            out = timed(tape, cfg, weights, wq, x, *args, **kwargs)
            self.count("srt.nodes", len(tape.nodes) - n0)
            self.count("srt.tokens", x.value.shape[1])
            return out

        return wrapper

    def _evaluate(self, fn):
        timed = self._timed("tasks.evaluate", fn)

        @functools.wraps(fn)
        def wrapper(model, dataset, *args, **kwargs):
            self._evaluate_depth += 1
            try:
                return timed(model, dataset, *args, **kwargs)
            finally:
                self._evaluate_depth -= 1
                self.count("eval.samples", len(dataset))

        return wrapper

    # -- output -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "group": np.searchsorted(np.frombuffer(self.group_starts, dtype=np.int64), np.arange(len(self.start)), side="right"),
        }

    def self_and_total(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: summed self seconds and summed total seconds."""
        a = self.arrays()
        n = len(a["start_ns"])
        if n == 0:
            return {}, {}
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64) * 1e-9
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        selft = dur - child
        k = len(self.names)
        self_by = np.bincount(a["name_id"], weights=selft, minlength=k)
        total_by = np.bincount(a["name_id"], weights=dur, minlength=k)
        return (
            {nm: float(self_by[i]) for i, nm in enumerate(self.names)},
            {nm: float(total_by[i]) for i, nm in enumerate(self.names)},
        )

    def save(self, path: str, meta: dict) -> None:
        """Write every span and the name table to one .npz file."""
        np.savez(path, names=np.array(self.names, dtype=str), meta=np.array(repr(meta)), **self.arrays())


def layer_metrics(tr: Tracer, ops: int, tokens: int, check_seconds: dict, checks_failed: int) -> dict:
    """Per-layer metrics as {name: (value, unit)}.

    Times are seconds per operation ("s/op"): per training step, eval sample
    or verify check, as the workload counts them.  Node counts are per
    operation or per token.  A layer the workload does not reach reads 0.
    """
    tr.flush()
    self_s, total_s = tr.self_and_total()
    c = tr.counts

    def per_op(x: float) -> float:
        return x / ops if ops else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict = {}
    nodes = sum(c.get("nodes." + g, 0) for g in OP_GROUPS)
    backward = total_s.get("tensor.backward", 0.0)
    vjp = sum(total_s.get("vjp." + g, 0.0) for g in OP_GROUPS)
    m["tensor.nodes_per_token"] = (ratio(nodes, tokens), "count/token")
    m["tensor.backward_s"] = (per_op(backward), "s/op")
    m["tensor.backward_bookkeeping_s"] = (per_op(backward - vjp), "s/op")
    for g in OP_GROUPS:
        m[f"tensor.nodes.{g}"] = (per_op(c.get("nodes." + g, 0)), "count/op")
        m[f"tensor.fwd_s.{g}"] = (per_op(self_s.get("tensor." + g, 0.0)), "s/op")
        m[f"tensor.vjp_s.{g}"] = (per_op(total_s.get("vjp." + g, 0.0)), "s/op")
    m["srt.forward_s"] = (per_op(total_s.get("srt.forward", 0.0)), "s/op")
    m["srt.nodes_per_token"] = (ratio(c.get("srt.nodes", 0), c.get("srt.tokens", 0)), "count/token")
    for name in ("build_loss", "predict", "loss"):
        m[f"hope.{name}_s"] = (per_op(total_s.get(f"hope.{name}", 0.0)), "s/op")
    m["hope.forwards_per_sample"] = (ratio(c.get("eval.embedding_calls", 0), c.get("eval.samples", 0)), "count/sample")
    for name in ("forward", "accumulate", "tick"):
        m[f"cms.{name}_s"] = (per_op(total_s.get(f"cms.{name}", 0.0)), "s/op")
    m["cms.tick_calls"] = (per_op(c.get("cms.tick_calls", 0)), "count/op")
    m["cms.levels_applied"] = (per_op(c.get("cms.levels_applied", 0)), "count/op")
    m["optim.step_s"] = (per_op(total_s.get("optim.step", 0.0)), "s/op")
    m["optim.step_calls"] = (per_op(c.get("optim.step_calls", 0)), "count/op")
    m["memory.rule_step_s"] = (per_op(total_s.get("memory.rule_step", 0.0)), "s/op")
    m["memory.gd_oracle_step_s"] = (per_op(total_s.get("memory.gd_oracle_step", 0.0)), "s/op")
    for name in VERIFY_CHECKS:
        m[f"verify.check_s.{name}"] = (check_seconds.get(name, 0.0), "s")
    m["verify.checks_failed"] = (checks_failed if check_seconds else 0, "count")
    m["tasks.generate_s"] = (ratio(total_s.get("tasks.generate", 0.0), c.get("tasks.generate_calls", 0)), "s/call")
    m["tasks.evaluate_s"] = (per_op(total_s.get("tasks.evaluate", 0.0)), "s/op")
    return m
