import ast
import contextlib
import dataclasses
import io
import json
import os
import struct
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nllab import bench, checkpoint, config, verify
from nllab.cli import build_model, main
from nllab.config import ConfigError, load_config, resolve, write_json_atomic
from nllab.fileio import write_atomic
from nllab.hope import HopeConfig
from nllab.tasks import LANGUAGE_KINDS, RECALL_KINDS, vocabulary
from nllab.runlog import RunlogError, emit_plot_series, read_runlog, write_runlog
from nllab.seeding import derive_seed


def test_package_modules_use_every_name_they_import():
    unused = []
    for path in sorted(Path(config.__file__).parent.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not unused, unused


def _mentioned(statement: ast.AST) -> set:
    """Every name, attribute and from-imported name a statement mentions."""
    out = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _taken_from_tensor(tree: ast.Module) -> set:
    """Names a module imports from `.tensor` or reads as attributes of its tensor module alias."""
    taken, aliases = set(), {"tensor"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == "tensor":
                taken |= {alias.name for alias in node.names}
            elif node.module is None:
                aliases |= {alias.asname or alias.name for alias in node.names if alias.name == "tensor"}
    return taken | {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases
    }


def test_every_public_tensor_function_has_a_caller_in_another_module():
    package = Path(config.__file__).parent
    tree = ast.parse((package / "tensor.py").read_text())
    public = {node.name for node in tree.body if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    referenced = set()
    for path in sorted(package.glob("*.py")):
        if path.name != "tensor.py":
            referenced |= _taken_from_tensor(ast.parse(path.read_text()))
    assert not sorted(public - referenced), sorted(public - referenced)


def _loads(tree: ast.AST) -> Counter:
    """How often each attribute name is read (loaded, not stored) in a tree."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))


def _members(cls: ast.ClassDef) -> dict:
    """Each public method, property and field of a class, and each public
    attribute its `__init__` sets, mapped to the definition a read of it may not
    sit in (None for a field or attribute)."""
    out = {}
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out[node.target.id] = None
        elif isinstance(node, ast.FunctionDef):
            out[node.name] = node
            if node.name == "__init__":
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
                        if isinstance(sub.value, ast.Name) and sub.value.id == "self":
                            out.setdefault(sub.attr, None)
    return {name: own for name, own in out.items() if not name.startswith("_")}


def test_every_public_function_and_class_of_the_package_has_a_program_caller():
    # Programs are the package and the benchmark scripts; a decorated (registered)
    # function counts as called.  A public module-level function or class is
    # called when another top-level statement names it.  A public class member
    # is read when its attribute is loaded outside its own definition (a store is
    # no read) or perfbench/spans.py names it in a string, as it wraps HopeModel
    # methods by name; other scripts' strings are data keys, not member names.
    package = Path(config.__file__).parent
    spans = package.parents[1] / "perfbench" / "spans.py"
    paths = sorted(package.glob("*.py")) + sorted(spans.parent.glob("*.py"))
    public, members, names, loads = [], [], {}, Counter()
    strings = {node.value for node in ast.walk(ast.parse(spans.read_text())) if isinstance(node, ast.Constant)}
    for path in paths:
        tree = ast.parse(path.read_text())
        loads += _loads(tree)
        for statement in tree.body:
            names[statement] = _mentioned(statement)
            if path.parent != package or not isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                continue
            if isinstance(statement, ast.ClassDef):
                members += [(f"{path.stem}.{statement.name}.{name}", name, own) for name, own in _members(statement).items()]
            if not statement.name.startswith("_") and not (isinstance(statement, ast.FunctionDef) and statement.decorator_list):
                public.append((path.stem, statement))
    uncalled = [
        f"{module}.{definition.name}"
        for module, definition in public
        if not any(definition.name in refs for statement, refs in names.items() if statement is not definition)
    ]
    unread = [
        qualified
        for qualified, name, own in members
        if name not in strings and loads[name] <= (0 if own is None else _loads(own)[name])
    ]
    assert not uncalled + unread, uncalled + unread


def test_seed_derivation_is_stable_and_independent():
    a = derive_seed(7, "data")
    assert a == derive_seed(7, "data")
    assert a != derive_seed(7, "init")
    assert a != derive_seed(8, "data")


def test_checkpoint_roundtrip_bytes(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {"emb": rng.normal(size=(5, 3)), "b0.w": rng.normal(size=(2, 2))}
    p1 = tmp_path / "a.nlck"
    p2 = tmp_path / "b.nlck"
    checkpoint.save(str(p1), tensors)
    loaded = checkpoint.load(str(p1))
    for k in tensors:
        assert np.array_equal(loaded[k], tensors[k])
    checkpoint.save(str(p2), loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_corruption(tmp_path):
    p = tmp_path / "c.nlck"
    checkpoint.save(str(p), {"x": np.ones(3)})
    raw = bytearray(p.read_bytes())
    raw[:4] = b"XXXX"
    p.write_bytes(bytes(raw))
    with pytest.raises(checkpoint.CheckpointError):
        checkpoint.load(str(p))


def _container(manifest: bytes, length=None) -> bytes:
    length = len(manifest) if length is None else length
    return checkpoint.MAGIC + struct.pack("<I", checkpoint.VERSION) + struct.pack("<Q", length) + manifest


def _one_tensor(entry: str) -> bytes:
    """A container whose single manifest entry is `entry` (JSON text), followed by 16 blob bytes."""
    return _container(b'{"version": 1, "endianness": "little", "tensors": [' + entry.encode() + b"]}") + bytes(16)


_ENTRY_A = '{"name": "a", "shape": [1], "offset": 0, "nbytes": 8}'


@pytest.mark.parametrize(
    "raw",
    [
        b"NLCK\x01\x00",  # 6 bytes: the version field is cut short
        _container(b'{"version": 1, "tens'),  # corrupt manifest JSON
        _container(b'{"version": 1, "endianness": "little"}'),  # no tensor list
        _container(b'{"version": 1, "endianness": "little", "tensors": [{"name": "x"}]}'),  # entry without fields
        _container(b"{}", length=2**40),  # a manifest length far past the end of the file
        _container(b"{}", length=2**33),
        _one_tensor('{"name": "a", "shape": [1e400], "offset": 0, "nbytes": 8}'),  # JSON reads 1e400 as inf
        _one_tensor('{"name": "a", "shape": [1.7], "offset": 0, "nbytes": 8}'),
        _one_tensor('{"name": "a", "shape": [true], "offset": 0, "nbytes": 8}'),
        _one_tensor('{"name": "a", "shape": [1], "offset": false, "nbytes": 8}'),
        _one_tensor('{"name": "a", "shape": [1], "offset": 0, "nbytes": 8.0}'),
        _one_tensor('{"name": 7, "shape": [1], "offset": 0, "nbytes": 8}'),
        _one_tensor('{"name": "a", "shape": [1], "offset": -8, "nbytes": 8}'),
        _one_tensor(_ENTRY_A + ', {"name": "a", "shape": [1], "offset": 8, "nbytes": 8}'),
        _container(b"[" * 100_000),  # nesting too deep for the JSON parser
    ],
    ids=[
        "truncated", "corrupt-manifest", "no-tensors", "bad-entry", "length-2^40", "length-2^33", "shape-inf",
        "shape-float", "shape-bool", "offset-bool", "nbytes-float", "name-not-string", "offset-negative",
        "duplicate-name", "deep-nesting",
    ],
)
def test_checkpoint_bad_input_raises_checkpoint_error(tmp_path, raw):
    p = tmp_path / "bad.nlck"
    p.write_bytes(raw)
    with pytest.raises(checkpoint.CheckpointError):
        checkpoint.load(str(p))


def test_checkpoint_entry_rows_differ_from_a_loadable_one(tmp_path):
    # the rows above break one field of this entry, which loads
    p = tmp_path / "good.nlck"
    p.write_bytes(_one_tensor(_ENTRY_A))
    assert list(checkpoint.load(str(p))) == ["a"]


def _loads_or_raises_checkpoint_error(path, raw: bytes) -> None:
    path.write_bytes(raw)
    try:
        tensors = checkpoint.load(str(path))
    except checkpoint.CheckpointError:
        return
    assert all(isinstance(name, str) and isinstance(v, np.ndarray) for name, v in tensors.items())


_FIELD = st.one_of(
    st.integers(-1, 24), st.integers(0, 2**70), st.floats(allow_nan=False), st.booleans(), st.none(),
    st.text(max_size=2),
)
_ENTRY = st.fixed_dictionaries(
    {
        "name": st.sampled_from(["a", "b"]) | _FIELD,
        "shape": st.lists(st.integers(0, 2) | _FIELD, max_size=3) | _FIELD,
        "offset": st.sampled_from([0, 8, 16]) | _FIELD,
        "nbytes": st.sampled_from([0, 8, 16]) | _FIELD,
    }
)
_MANIFEST = st.one_of(
    st.binary(max_size=40),
    st.text(max_size=40).map(str.encode),
    st.lists(_ENTRY, max_size=3).map(
        lambda entries: json.dumps({"version": 1, "endianness": "little", "tensors": entries}).encode()
    ),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(manifest=_MANIFEST, length=st.none() | st.integers(0, 2**64 - 1), blob=st.binary(max_size=40))
def test_checkpoint_any_manifest_loads_or_raises_checkpoint_error(tmp_path_factory, manifest, length, blob):
    path = tmp_path_factory.getbasetemp() / "fuzz.nlck"
    _loads_or_raises_checkpoint_error(path, _container(manifest, length) + blob)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(cut=st.integers(0, 10_000))
def test_checkpoint_any_truncation_loads_or_raises_checkpoint_error(tmp_path_factory, cut):
    path = tmp_path_factory.getbasetemp() / "cut.nlck"
    checkpoint.save(str(path), {"a": np.arange(3.0), "b": np.ones((2, 2))})
    raw = path.read_bytes()
    _loads_or_raises_checkpoint_error(path, raw[: cut % len(raw)])


def test_cli_eval_truncated_checkpoint_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"task": {"kind": "parity"}, "model": {"dim": 8}, "out_dir": str(tmp_path / "run")}))
    bad = tmp_path / "truncated.nlck"
    bad.write_bytes(b"NLCK\x01\x00")
    assert main(["eval", str(cfg_path), "--checkpoint", str(bad)]) == 2
    assert "truncated checkpoint" in capsys.readouterr().err


def test_config_defaults_and_unknown_keys(tmp_path):
    cfg = resolve({"task": {"kind": "anbn"}})
    assert cfg["train"]["steps"] == 1500
    assert cfg["model"]["dim"] == 16
    assert resolve({})["model"] == {
        "vocab": 0, "dim": 16, "blocks": 1, "num_classes": 0, "core": "srt", "objective": "l2", "chunk": 1,
        "mem_hidden": 16, "retention": True, "frozen_slots": [], "conv": False, "use_cms": True,
        "cms_chunks": [1, 4], "cms_variant": "sequential", "cms_hidden": 8, "cms_lr": 0.05,
        "cms_optimizer": "sgd", "eta_bias": -2.0, "alpha_bias": 3.0, "fixed_eta": None, "fixed_alpha": None,
        "fast_weight_penalty": 0.01, "tie_readout": False,
    }
    with pytest.raises(ConfigError) as e:
        resolve({"task": {"kind": "anbn", "mystery": 1}})
    assert "$.task.mystery" in str(e.value)
    with pytest.raises(ConfigError):
        resolve({"task": {"kind": "not-a-task"}})

    path = tmp_path / "cfg.json"
    write_json_atomic(str(path), cfg)
    assert load_config(str(path)) == cfg


def test_env_seed_override(tmp_path, monkeypatch):
    monkeypatch.setenv("NLLAB_SEED", "4242")
    cfg = resolve({"seed": 7})
    assert cfg["seed"] == 4242


@pytest.mark.parametrize(
    "records",
    [
        [{"step": 2}, {"step": 2}],
        [{"step": True}],
        [{"step": 1.5}],
        [{"step": 1}, {"step": 2.5}],
        [{"step": 1, "version": 2}],
    ],
    ids=["repeated-step", "bool-step", "real-step", "later-real-step", "own-version"],
)
def test_write_runlog_rejects_what_read_runlog_rejects(tmp_path, records):
    path = tmp_path / "bad.jsonl"
    with pytest.raises(RunlogError):
        write_runlog(str(path), records)
    assert not path.exists()


def test_runlog_roundtrip_and_validation(tmp_path):
    path = tmp_path / "log.jsonl"
    records = [{"step": 1, "loss": 0.5}, {"step": 3, "loss": 0.25, "accuracy": 0.9}]
    write_runlog(str(path), records)
    loaded = read_runlog(str(path))
    assert [r["step"] for r in loaded] == [1, 3]
    assert all(r["version"] == 1 for r in loaded)
    (tmp_path / "corrupt.jsonl").write_text('{"version": 1, "step": 1}\nnot json\n')
    with pytest.raises(RunlogError):
        read_runlog(str(tmp_path / "corrupt.jsonl"))


@pytest.mark.parametrize(
    "line",
    [b"not json", b"[1, 2]", b'{"version": 1, "step": "2"}', b'{"version": true, "step": 2}', b'{"step": "\xff"}', b"[" * 100000],
    ids=["not-json", "not-an-object", "step-not-integer", "version-not-integer", "not-utf8", "too-deep"],
)
def test_cli_emit_plots_rejects_a_malformed_runlog(tmp_path, capsys, line):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"version": 1, "step": 1}\n' + line + b"\n")
    with pytest.raises(RunlogError):
        read_runlog(str(path))
    assert main(["emit-plots", str(path), "--out", str(tmp_path / "plots")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2") and err.count("\n") == 1, err


_RUNLOG = [{"version": 1, "step": step, "loss": 1.0 / (step + 1), "grad_norm": 2.0} for step in range(4)]
# a metric name is a file name: draw some from the characters paths are made of
_KEY = st.sampled_from(["version", "step", "loss"]) | st.text(max_size=6) | st.text(".a/\x00", max_size=6)
_JSON_VALUE = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) | st.lists(st.integers(), max_size=2)
# one line of a valid run log: left alone, deleted, cut short, replaced by bytes, or its record with keys set
_LINE_EDIT = st.one_of(
    st.just(("keep",)),
    st.just(("delete",)),
    st.tuples(st.just("cut"), st.integers(0, 60)),
    st.tuples(st.just("bytes"), st.binary(max_size=12)),
    st.tuples(st.just("set"), st.dictionaries(_KEY, _JSON_VALUE, max_size=3)),
)


def _edited(record: dict, edit: tuple) -> bytes:
    line = json.dumps(record).encode()
    if edit[0] == "delete":
        return b""
    if edit[0] == "cut":
        return line[: edit[1]] + b"\n"
    if edit[0] == "bytes":
        return edit[1] + b"\n"
    if edit[0] == "set":
        line = json.dumps({**record, **edit[1]}).encode()
    return line + b"\n"


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(edits=st.lists(_LINE_EDIT, min_size=len(_RUNLOG), max_size=len(_RUNLOG)))
def test_cli_emit_plots_on_any_edited_runlog_writes_or_prints_one_error(tmp_path_factory, edits):
    root = tmp_path_factory.mktemp("plots")
    path = root / "runlog.jsonl"
    path.write_bytes(b"".join(_edited(record, edit) for record, edit in zip(_RUNLOG, edits)))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["emit-plots", str(path), "--out", str(root / "out")])
    if code == 0:
        assert err.getvalue() == ""
        # every series lands inside the output directory
        assert all(p.parent == root / "out" for p in (root / "out").rglob("*") if p.is_file())
    else:
        assert code == 2 and err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()


def test_emit_plots_per_metric(tmp_path):
    records = [
        {"step": 1, "loss": 1.0, "grad_norm": 2.0, "accuracy": 0.5},
        {"step": 2, "loss": 0.8, "grad_norm": 1.5, "accuracy": 0.6},
        {"step": 3, "loss": 0.7, "grad_norm": 1.2, "accuracy": 0.7},
    ]
    out = tmp_path / "plots"
    written = emit_plot_series(records, str(out))
    assert len(written) == 3
    for path in written:
        lines = open(path).read().strip().split("\n")
        assert lines[0] == "step,value"
        assert len(lines) == 4


def test_cli_train_eval_and_plots(tmp_path, capsys):
    cfg = {
        "task": {"kind": "parity", "bin0": [2, 8], "bin1": [9, 12]},
        "model": {"dim": 8, "mem_hidden": 8, "cms_hidden": 4, "cms_chunks": [1]},
        "train": {"steps": 3, "batch_size": 2, "train_samples": 16, "eval_samples": 8, "eval_every": 2},
        "out_dir": str(tmp_path / "run"),
        "seed": 3,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["train", str(cfg_path)]) == 0
    assert (tmp_path / "run" / "runlog.jsonl").exists()
    assert (tmp_path / "run" / "checkpoint.nlck").exists()
    assert (tmp_path / "run" / "config.json").exists()

    records = read_runlog(str(tmp_path / "run" / "runlog.jsonl"))
    assert records[0]["step"] == 0
    assert len(records) == 4

    assert main(["eval", str(cfg_path), "--checkpoint", str(tmp_path / "run" / "checkpoint.nlck")]) == 0
    out = capsys.readouterr().out
    assert "accuracy" in out

    assert main(["emit-plots", str(tmp_path / "run" / "runlog.jsonl"), "--out", str(tmp_path / "plots")]) == 0
    assert (tmp_path / "plots" / "loss.csv").exists()


def test_cli_train_zero_steps_writes_initial_state(tmp_path):
    cfg = {
        "task": {"kind": "parity", "bin0": [2, 6], "bin1": [7, 9]},
        "model": {"dim": 8, "mem_hidden": 8, "cms_hidden": 4, "cms_chunks": [1]},
        "train": {"steps": 0, "train_samples": 8, "eval_samples": 4},
        "out_dir": str(tmp_path / "run0"),
        "seed": 1,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["train", str(cfg_path)]) == 0
    records = read_runlog(str(tmp_path / "run0" / "runlog.jsonl"))
    assert len(records) == 1 and records[0]["step"] == 0
    tensors = checkpoint.load(str(tmp_path / "run0" / "checkpoint.nlck"))
    assert "emb" in tensors


# an SRT model whose step-0 evaluation overflows to a non-finite value
NONFINITE_EVAL_CONFIG = {
    "task": {"kind": "parity"},
    "model": {"dim": 3, "chunk": 2, "conv": True, "objective": "dot", "retention": False},
    "train": {"steps": 1, "eval_every": 0, "train_samples": 4, "eval_samples": 2},
}


def test_cli_nonfinite_evaluation_is_a_divergence(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**NONFINITE_EVAL_CONFIG, "out_dir": str(tmp_path / "run")}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", str(cfg_path)]) == 1
        out, err = capsys.readouterr()
        records = read_runlog(str(tmp_path / "run" / "runlog.jsonl"))
        assert [(r["step"], r["event"]) for r in records] == [(0, "diverged")]
        assert set(records[0]) == {"step", "event", "detail", "version"}
        assert "non-finite values in the output of srt_core" in records[0]["detail"]
        # the run log, the checkpoint and the wrote line stay; stderr says why, in one line
        assert (tmp_path / "run" / "checkpoint.nlck").exists() and out.startswith("wrote ")
        assert err == f"error: training diverged at step 0: {records[0]['detail']}\n"

        assert main(["eval", str(cfg_path), "--checkpoint", str(tmp_path / "run" / "checkpoint.nlck")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert caught == []  # no numpy warning reaches the user ahead of the report


def test_cli_nonfinite_optimizer_step_is_a_divergence(tmp_path, capsys):
    # the first momentum step is finite; the second overflows in some parameter
    train = {"optimizer": "momentum", "opt_hp": {"eta": 1e10, "beta": 1e300}, "eval_every": 0, "train_samples": 64, "eval_samples": 8}
    for name, steps in (("run", 5), ("one", 1)):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps({"train": {**train, "steps": steps}, "out_dir": str(tmp_path / name)}))
        assert main(["train", str(cfg_path)]) == (1 if steps > 1 else 0)
    err = capsys.readouterr().err
    records = read_runlog(str(tmp_path / "run" / "runlog.jsonl"))
    assert [(r["step"], r.get("event")) for r in records] == [(0, None), (1, None), (2, "diverged")]
    assert records[-1]["detail"].startswith("non-finite values in the momentum step of '")
    assert err == f"error: training diverged at step 2: {records[-1]['detail']}\n"
    # no update of the diverged step is committed: the checkpoint is the one-step run's
    got = checkpoint.load(str(tmp_path / "run" / "checkpoint.nlck"))
    want = checkpoint.load(str(tmp_path / "one" / "checkpoint.nlck"))
    assert got.keys() == want.keys() and all(np.array_equal(got[k], want[k]) for k in want)


@pytest.mark.parametrize("optimizer", ["muon", "m3"])
def test_cli_train_with_a_tiny_clip_norm(tmp_path, optimizer):
    # clipping to 1e-200 leaves momentum whose Frobenius norm underflows to 0
    train = {"optimizer": optimizer, "clip_norm": 1e-200, "steps": 1, "eval_every": 0, "train_samples": 8, "eval_samples": 4}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": {"blocks": 0}, "train": train, "out_dir": str(tmp_path / "run")}))
    assert main(["train", str(cfg_path)]) == 0
    assert [r["step"] for r in read_runlog(str(tmp_path / "run" / "runlog.jsonl"))] == [0, 1]
    assert all(np.isfinite(v).all() for v in checkpoint.load(str(tmp_path / "run" / "checkpoint.nlck")).values())


def _train_in(root: Path, task: dict, **train) -> tuple:
    """Exit code and stderr of `nllab train` on a blocks-0 model for one step on `task`."""
    train = {"steps": 1, "eval_every": 0, "train_samples": 8, "eval_samples": 4, **train}
    (root / "cfg.json").write_text(json.dumps({"task": task, "model": {"blocks": 0}, "train": train, "out_dir": str(root / "run")}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["train", str(root / "cfg.json")])
    return code, err.getvalue()


def test_cli_train_on_a_bin_without_negatives(tmp_path):
    # [2, 2] admits only "aa", which is in (aa)*
    code, err = _train_in(tmp_path, {"kind": "aa_star", "bin0": [2, 2], "bin1": [3, 4]})
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, err
    assert "$.task" in err and "aa_star" in err and "[2, 2]" in err


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(config._CHOICES[("task", "kind")]),
    # four sorted ends make bin0 = [a, b] and bin1 = [c, d]: mostly ordered bins, often one length wide
    ends=st.lists(st.integers(1, 90), min_size=4, max_size=4).map(sorted),
    fractions=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
def test_cli_train_on_any_task_bins_runs_or_prints_one_error(tmp_path_factory, kind, ends, fractions):
    params = {"bin1_fraction": fractions[0]} if kind in LANGUAGE_KINDS else {}
    task = {"kind": kind, "bin0": ends[:2], "bin1": ends[2:], "params": params}
    code, err = _train_in(tmp_path_factory.mktemp("task"), task, eval_bin1_fraction=fractions[1])
    assert (code, err) == (0, "") or code == 2 and err.startswith("error: ") and err.count("\n") == 1, (code, err)


def test_cli_partial_adam_hyperparameters_keep_the_other_defaults(tmp_path):
    logs = []
    for i, opt_hp in enumerate([{"eta": 0.01}, {}]):
        cfg = {
            "task": {"kind": "parity", "bin0": [2, 6], "bin1": [7, 9]},
            "model": {"dim": 8, "mem_hidden": 8, "cms_hidden": 4, "cms_chunks": [1]},
            "train": {"steps": 3, "eval_every": 0, "train_samples": 8, "eval_samples": 4, "opt_hp": opt_hp},
            "out_dir": str(tmp_path / f"run{i}"),
        }
        cfg_path = tmp_path / f"cfg{i}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", str(cfg_path)]) == 0
        logs.append((tmp_path / f"run{i}" / "runlog.jsonl").read_bytes())
    assert logs[0] == logs[1]


def test_cli_rejects_invalid_config(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"task": {"kind": "parity", "oops": True}}))
    assert main(["train", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "$.task.oops" in err

    # values the schema accepts but the model or task constructors reject
    cases = [
        ({"model": {"cms_chunks": [4, 1]}}, "$.model", "ascending"),
        ({"model": {"dim": "16"}}, "$.model", ""),
        ({"task": {"kind": "parity", "bin0": [2, 40], "bin1": [30, 80]}}, "$.task", "bin1"),
        ({"task": {"kind": "toy_psi"}}, "$.task", "not a token-dataset task"),
        # a model too small for the task's token ids or labels
        ({"model": {"vocab": 1}}, "$.model.vocab", "fewer than the 2 token ids"),
        ({"model": {"num_classes": 1}}, "$.model.num_classes", "fewer than the 2 labels"),
        # a classifier head on a next-token task
        ({"task": {"kind": "char_lm"}, "model": {"num_classes": 3}}, "$.model.num_classes", "takes 0"),
        # $.train values of the wrong type or range
        ({"train": {"steps": "3"}}, "$.train.steps", "integer"),
        ({"train": {"batch_size": "2"}}, "$.train.batch_size", "integer"),
        ({"train": {"batch_size": 0}}, "$.train.batch_size", ">= 1"),
        ({"train": {"eval_every": 2.5}}, "$.train.eval_every", "integer"),
        ({"train": {"train_samples": True}}, "$.train.train_samples", "integer"),
        ({"train": {"eval_samples": -1}}, "$.train.eval_samples", ">= 1"),
        ({"train": {"eval_samples": 0}}, "$.train.eval_samples", ">= 1"),
        ({"train": {"eval_seed": None}}, "$.train.eval_seed", "integer"),
        ({"train": {"eval_bin1_fraction": 1.5}}, "$.train.eval_bin1_fraction", "[0.0, 1.0]"),
        ({"train": {"clip_norm": -1.0}}, "$.train.clip_norm", "number"),
        ({"train": {"clip_norm": "1"}}, "$.train.clip_norm", "number"),
        # optimizer settings train() would fail on at its first step
        ({"train": {"optimizer": "muon"}}, "$.train.optimizer", "matrix-shaped"),
        ({"train": {"optimizer": "m3"}}, "$.train.optimizer", "matrix-shaped"),
        ({"train": {"optimizer": "dgd_trainer"}}, "$.train.optimizer", "must be one of"),
        ({"train": {"optimizer": "adagrad_m"}}, "$.train.optimizer", "> 64"),
        ({"model": {"cms_optimizer": "dgd_trainer"}}, "$.model.cms_optimizer", "must be one of"),
        ({"train": {"opt_hp": 5}}, "$.train.opt_hp", "object"),
        ({"train": {"opt_hp": {"foo": 1}}}, "$.train.opt_hp", "foo"),
        ({"train": {"opt_hp": {"eta": "big"}}}, "$.train.opt_hp", ""),
        ({"train": {"optimizer": "sgd", "opt_hp": {"eta": "big"}}}, "$.train.opt_hp", ""),
        # read only when the gradient is non-zero
        ({"train": {"optimizer": "delta_momentum", "opt_hp": {"eta_inner": "x"}}}, "$.train.opt_hp", ""),
        # a first step that overflows: the norm gains of 1 step to -2e308
        ({"train": {"opt_hp": {"eta": 1e308, "weight_decay": 1.0}}}, "$.train.opt_hp", "non-finite values in the adam step"),
        # $.task and $.model values that failed late, with a traceback, or were read wrongly
        ({"task": {"kind": "parity", "bin0": [2]}}, "$.task.bin0", "two integers"),
        ({"task": {"kind": "parity", "bin1": [90, 80]}}, "$.task.bin1", "lo <= hi"),
        ({"task": {"kind": "copy_recall", "params": {"pairs": 20}}}, "$.task", "params.pairs"),
        ({"task": {"kind": "char_lm", "params": {"window": 0}}}, "$.task", "params.window"),
        ({"task": {"kind": "parity", "seed": "x"}}, "$.task.seed", "integer"),
        ({"task": {"kind": "parity", "seed": 1.5}}, "$.task.seed", "integer"),
        ({"task": {"kind": "parity", "seed": True}}, "$.task.seed", "integer"),
        ({"task": {"kind": "copy_recall", "params": {"pairz": 2}}}, "$.task.params.pairz", "pairs"),
        ({"task": {"kind": "parity", "params": {"bin1_fraction": 2}}}, "$.task.params.bin1_fraction", "[0.0, 1.0]"),
        ({"model": {"chunk": 0}}, "$.model.chunk", ">= 1"),
        ({"model": {"dim": 0}}, "$.model.dim", ">= 1"),
        ({"model": {"fixed_eta": "x"}}, "$.model.fixed_eta", "number"),
        ({"model": {"cms_lr": "x"}}, "$.model.cms_lr", "number"),
        ({"model": {"eta_bias": 1e400}}, "$.model.eta_bias", "finite"),
        ({"model": {"frozen_slots": ["zz"]}}, "$.model.frozen_slots", "slot names"),
        ({"model": {"frozen_slots": "mem"}}, "$.model.frozen_slots", "list"),
        ({"model": {"fixed_alpha": 2.0}}, "$.model.fixed_alpha", "[0.0, 1.0]"),
        ({"model": {"retention": "no"}}, "$.model.retention", "true or false"),
        # enumerated $.model values, checked even where use_cms leaves them unread
        ({"model": {"core": "rnn"}}, "$.model.core", "must be one of"),
        ({"model": {"objective": "oja"}}, "$.model.objective", "must be one of"),
        ({"model": {"cms_optimizer": "bogus"}}, "$.model.cms_optimizer", "must be one of"),
        ({"model": {"use_cms": False, "cms_optimizer": "bogus"}}, "$.model.cms_optimizer", "must be one of"),
        ({"model": {"use_cms": False, "cms_variant": "bogus"}}, "$.model.cms_variant", "must be one of"),
        ({"model": {"cms_chunks": [1.5]}}, "$.model.cms_chunks", "integers >= 1"),
        ({"model": {"cms_chunks": [True, 2]}}, "$.model.cms_chunks", "integers >= 1"),
        ({"model": {"cms_chunks": [0, 2]}}, "$.model.cms_chunks", "integers >= 1"),
        ({"model": {"cms_chunks": "x"}}, "$.model.cms_chunks", "list"),
        # top-level values of the wrong type
        ({"seed": "x"}, "$.seed", "integer"),
        ({"seed": 1.5}, "$.seed", "integer"),
        ({"seed": True}, "$.seed", "integer"),
        ({"out_dir": 5}, "$.out_dir", "string"),
        # an empty out_dir would put the run's files in the working directory
        ({"out_dir": ""}, "$.out_dir", "non-empty"),
        ({"version": True}, "$.version", "integer 1"),
        ({"version": 1.0}, "$.version", "integer 1"),
    ]
    env_cases = [("x", "NLLAB_SEED", "integer"), ("1.5", "NLLAB_SEED", "integer")]
    for i, (raw, path, detail) in enumerate(cases + env_cases):
        out_dir = tmp_path / f"run{i}"
        sizes = {"train_samples": 4, "eval_samples": 4}
        if isinstance(raw, str):
            monkeypatch.setenv("NLLAB_SEED", raw)
            raw = {}
        raw = {**raw, "train": {**sizes, **raw.get("train", {})}}
        bad.write_text(json.dumps({"out_dir": str(out_dir), **raw}))
        assert main(["train", str(bad)]) == 2, raw
        err = capsys.readouterr().err
        assert err.startswith("error: ") and path in err and detail in err, err
        assert "Traceback" not in err
        assert not (out_dir / "config.json").exists()
    assert not (tmp_path / "5").exists() and not os.path.exists("5") and not os.path.exists("config.json")
    # a null level never ticks and stays accepted
    monkeypatch.delenv("NLLAB_SEED")
    cfg = resolve({"model": {"cms_chunks": [1, None]}})
    assert [lv.chunk for lv in build_model(cfg).chains[0].levels] == [1, None]


def test_a_length_bin_beyond_the_cap_is_refused_before_any_data_is_made(tmp_path, capsys, monkeypatch):
    from nllab import cli

    monkeypatch.setattr(cli, "generate", lambda *args: pytest.fail("task data made for a refused config"))
    for key, bins in (("bin1", [41, 10**9]), ("bin0", [config.MAX_LENGTH + 1, config.MAX_LENGTH + 1])):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({"task": {key: bins}, "out_dir": str(tmp_path / key)}))
        assert main(["train", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"$.task.{key}" in err and f"<= {config.MAX_LENGTH}" in err, err
        assert not (tmp_path / key).exists()
    assert resolve({"task": {"bin1": [41, config.MAX_LENGTH]}})["task"]["bin1"] == [41, config.MAX_LENGTH]


def _bad_path_args(tmp_path) -> dict:
    cfg = {"task": {"kind": "parity"}, "model": {"dim": 8}, "train": {"train_samples": 4, "eval_samples": 4}}
    good = tmp_path / "cfg.json"
    good.write_text(json.dumps({**cfg, "out_dir": str(tmp_path / "run")}))
    (tmp_path / "file").write_text("")
    under_file = tmp_path / "under_file.json"
    under_file.write_text(json.dumps({**cfg, "out_dir": str(tmp_path / "file" / "run")}))
    not_utf8, too_deep = tmp_path / "not_utf8.json", tmp_path / "too_deep.json"
    not_utf8.write_bytes(b'{"out_dir": "\xff"}')
    too_deep.write_bytes(b"[" * 100000)
    return {
        "train-dir": ["train", str(tmp_path)],
        "eval-checkpoint-dir": ["eval", str(good), "--checkpoint", str(tmp_path)],
        "emit-plots-dir": ["emit-plots", str(tmp_path), "--out", str(tmp_path / "plots")],
        "out-dir-under-file": ["train", str(under_file)],
        "train-config-not-utf8": ["train", str(not_utf8)],
        "eval-config-not-utf8": ["eval", str(not_utf8), "--checkpoint", str(tmp_path / "none.nlck")],
        "train-config-too-deep": ["train", str(too_deep)],
        "eval-config-too-deep": ["eval", str(too_deep), "--checkpoint", str(tmp_path / "none.nlck")],
    }


@pytest.mark.parametrize(
    "case",
    [
        "train-dir", "eval-checkpoint-dir", "emit-plots-dir", "out-dir-under-file", "train-config-not-utf8",
        "eval-config-not-utf8", "train-config-too-deep", "eval-config-too-deep",
    ],
)
def test_cli_bad_path_exits_2(tmp_path, capsys, case):
    assert main(_bad_path_args(tmp_path)[case]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err, err


def _eval_checkpoint(tmp_path, edit, core="srt") -> tuple[int, str]:
    cfg = {"task": {"kind": "parity"}, "model": {"dim": 8, "core": core}, "train": {"eval_samples": 4}, "out_dir": str(tmp_path / "run")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    tensors = build_model(resolve(cfg)).named_parameters()
    edit(tensors)
    ckpt = tmp_path / "edited.nlck"
    checkpoint.save(str(ckpt), tensors)
    return main(["eval", str(cfg_path), "--checkpoint", str(ckpt)])


@pytest.mark.parametrize(
    "edit",
    [
        lambda t: t.update({"b0.norm1": np.ones(3)}),
        lambda t: t.update({"b0.cms.level0.w1": np.ones((7, 7))}),
        lambda t: t.update({"zzz": np.ones(2)}),
        lambda t: t.pop("readout"),
        lambda t: t.update({"b0.cms.level0.w1": np.full_like(t["b0.cms.level0.w1"], np.nan)}),
    ],
    ids=["param-shape", "cms-shape", "unknown-name", "missing-tensor", "non-finite"],
)
def test_cli_eval_mismatched_checkpoint_exits_2(tmp_path, capsys, edit):
    assert _eval_checkpoint(tmp_path, edit) == 2
    assert "error: " in capsys.readouterr().err


def test_cli_eval_fitting_checkpoint_exits_0(tmp_path, capsys):
    assert _eval_checkpoint(tmp_path, lambda t: None) == 0
    assert "accuracy" in capsys.readouterr().out


@pytest.mark.parametrize("core", ["srt", "attention", "linear_attention"])
def test_cli_eval_zero_gain_checkpoint_exits_0(tmp_path, capsys, core):
    # a zero RMS gain zeroes every query and key column, which stay zero when normalized
    assert _eval_checkpoint(tmp_path, lambda t: t.update({"b0.norm1": np.zeros_like(t["b0.norm1"])}), core) == 0
    assert "accuracy" in capsys.readouterr().out


def test_model_defaults_cover_every_model_field():
    assert set(config._MODEL_DEFAULTS) == {f.name for f in dataclasses.fields(HopeConfig)}


def _hand_copied_config(cfg: dict) -> HopeConfig:
    """The field-by-field copy `build_model` used to make; the derived config must equal it."""
    task_kind, m = cfg["task"]["kind"], cfg["model"]
    vocab = m["vocab"] or len(vocabulary(task_kind))
    if task_kind in LANGUAGE_KINDS:
        num_classes = m["num_classes"] or 2
    elif task_kind in RECALL_KINDS:
        num_classes = m["num_classes"] or vocab
    else:
        num_classes = m["num_classes"]
    return HopeConfig(
        vocab=vocab, dim=m["dim"], blocks=m["blocks"], num_classes=num_classes, core=m["core"],
        objective=m["objective"], chunk=m["chunk"], mem_hidden=m["mem_hidden"], retention=m["retention"],
        frozen_slots=tuple(m["frozen_slots"]), conv=m["conv"], use_cms=m["use_cms"],
        cms_chunks=tuple(m["cms_chunks"]), cms_variant=m["cms_variant"], cms_hidden=m["cms_hidden"],
        cms_lr=m["cms_lr"], cms_optimizer=m["cms_optimizer"], eta_bias=m["eta_bias"],
        alpha_bias=m["alpha_bias"], fixed_eta=m["fixed_eta"], fixed_alpha=m["fixed_alpha"],
        fast_weight_penalty=m["fast_weight_penalty"], tie_readout=m["tie_readout"],
    )


@pytest.mark.parametrize("kind", ["parity", "copy_recall", "char_lm"])
def test_build_model_config_matches_hand_copy(kind):
    cfg = resolve({"task": {"kind": kind}, "model": {"frozen_slots": ["q"]}})
    built = build_model(cfg).config
    expect = _hand_copied_config(cfg)
    for f in dataclasses.fields(HopeConfig):
        assert getattr(built, f.name) == getattr(expect, f.name), f.name
    assert type(built.cms_chunks) is tuple and type(built.frozen_slots) is tuple


def _fail_replace(src, dst):
    raise OSError("rename refused")


@pytest.mark.parametrize(
    "write, target",
    [
        (lambda d: write_atomic(str(d / "out.bin"), b"new bytes"), "out.bin"),
        (lambda d: write_atomic(str(d / "out.txt"), "new text"), "out.txt"),
        (lambda d: emit_plot_series([{"step": 1, "loss": 0.5}], str(d)), "loss.csv"),
        (lambda d: bench.run_contribution_report(str(d)), "contribution_curve.csv"),
    ],
    ids=["bytes", "text", "emit-plots", "bench-csv"],
)
def test_failed_atomic_write_leaves_no_temp_and_keeps_target(tmp_path, monkeypatch, write, target):
    (tmp_path / target).write_text("old\n")
    monkeypatch.setattr(os, "replace", _fail_replace)
    with pytest.raises(OSError, match="rename refused"):
        write(tmp_path)
    assert (tmp_path / target).read_text() == "old\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_write_atomic_creates_directory_and_round_trips(tmp_path):
    path = tmp_path / "a" / "b" / "blob"
    write_atomic(str(path), b"\x00\x01")
    assert path.read_bytes() == b"\x00\x01"
    write_atomic(str(path), "text\n")
    assert path.read_text() == "text\n"
    assert sorted(p.name for p in path.parent.iterdir()) == ["blob"]


def test_cli_verify_filter_and_fault_injection(tmp_path, capsys):
    assert main(["verify", "--filter", "runlog", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "runlog-schema" in out

    for fault, (check, *_patch) in verify.FAULTS.items():
        assert main(["verify", "--filter", check, "--out", str(tmp_path), "--inject-fault", fault]) == 1, fault
        assert f"FAIL  {check}  " in capsys.readouterr().out, fault


def test_verify_refuses_an_unknown_fault():
    with pytest.raises(ValueError, match="hebbian-sing.*hebbian-sign"):
        verify.run_checks(pattern="hebbian", faults={"hebbian-sing"})


def test_verify_refuses_a_fault_whose_check_the_filter_leaves_out(tmp_path, capsys):
    # a negative control that cannot fail would read as a pass
    with pytest.raises(ValueError, match=r"hebbian-sign.*'runlog'"):
        verify.run_checks(pattern="runlog", faults=["hebbian-sign"])
    assert main(["verify", "--filter", "runlog", "--out", str(tmp_path), "--inject-fault", "hebbian-sign"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("fault", [fault for fault in verify.FAULTS if fault != "hebbian-sign"], ids=lambda fault: verify.FAULTS[fault][0])
def test_per_token_oracles_catch_a_small_fault_in_the_fast_route(fault):
    check = verify.FAULTS[fault][0]
    (clean,) = verify.run_checks(pattern=check)
    assert clean.passed, clean
    (result,) = verify.run_checks(pattern=check, faults=[fault])
    # the oracle error, not a crash or the finite differences, fails the check
    assert not result.passed and 1e-12 < result.measured < 1e-6, result


@pytest.mark.parametrize("name", [name for name, slow in verify.registered_checks() if not slow])
def test_every_fast_verify_check_passes(tmp_path, name):
    (result,) = [r for r in verify.run_checks(pattern=name, out_dir=str(tmp_path)) if r.name == name]
    assert result.passed, result
    assert type(result.passed) is bool and type(result.measured) is float, result


def test_verify_without_an_out_dir_leaves_no_directory_behind(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    (result,) = verify.run_checks(pattern="checkpoint-roundtrip")
    assert result.passed, result
    assert list(tmp_path.iterdir()) == []


def test_cli_bench_optim_psi(tmp_path, capsys):
    cfg = {"task": {"kind": "toy_psi"}, "out_dir": str(tmp_path / "bench")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["bench-optim", str(cfg_path)]) == 0
    assert (tmp_path / "bench" / "psi_momentum.csv").exists()
    assert (tmp_path / "bench" / "psi_delta_momentum.csv").exists()
    assert (tmp_path / "bench" / "psi_summary.csv").exists()
    assert (tmp_path / "bench" / "contribution_crossings.csv").exists()
    header = open(tmp_path / "bench" / "psi_summary.csv").readline().strip()
    assert header == "optimizer,experiment,steps_to_threshold,final_value,forgetting"


def test_cli_bench_optim_rejects_other_task_kinds_before_writing(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"task": {"kind": "parity"}, "out_dir": str(tmp_path / "bench")}))
    assert main(["bench-optim", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "$.task.kind" in err and "Traceback" not in err
    assert not (tmp_path / "bench").exists()
