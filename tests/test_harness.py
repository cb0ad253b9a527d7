import json
import os
import struct

import numpy as np
import pytest

from nllab import checkpoint
from nllab.cli import main
from nllab.config import ConfigError, load_config, resolve, write_json_atomic
from nllab.runlog import RunlogError, emit_plot_series, read_runlog, write_runlog
from nllab.seeding import derive_seed, rng_for


def test_seed_derivation_is_stable_and_independent():
    a = derive_seed(7, "data")
    assert a == derive_seed(7, "data")
    assert a != derive_seed(7, "init")
    assert a != derive_seed(8, "data")
    # adding a consumer never perturbs others
    r1 = rng_for(7, "data").normal(size=4)
    rng_for(7, "new-consumer")
    assert np.array_equal(r1, rng_for(7, "data").normal(size=4))


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


def _container(manifest: bytes) -> bytes:
    return checkpoint.MAGIC + struct.pack("<I", checkpoint.VERSION) + struct.pack("<Q", len(manifest)) + manifest


@pytest.mark.parametrize(
    "raw",
    [
        b"NLCK\x01\x00",  # 6 bytes: the version field is cut short
        _container(b'{"version": 1, "tens'),  # corrupt manifest JSON
        _container(b'{"version": 1, "endianness": "little"}'),  # no tensor list
        _container(b'{"version": 1, "endianness": "little", "tensors": [{"name": "x"}]}'),  # entry without fields
    ],
    ids=["truncated", "corrupt-manifest", "no-tensors", "bad-entry"],
)
def test_checkpoint_bad_input_raises_checkpoint_error(tmp_path, raw):
    p = tmp_path / "bad.nlck"
    p.write_bytes(raw)
    with pytest.raises(checkpoint.CheckpointError):
        checkpoint.load(str(p))


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


def test_runlog_roundtrip_and_validation(tmp_path):
    path = tmp_path / "log.jsonl"
    records = [{"step": 1, "loss": 0.5}, {"step": 3, "loss": 0.25, "accuracy": 0.9}]
    write_runlog(str(path), records)
    loaded = read_runlog(str(path))
    assert [r["step"] for r in loaded] == [1, 3]
    assert all(r["version"] == 1 for r in loaded)
    with pytest.raises(RunlogError):
        write_runlog(str(tmp_path / "bad.jsonl"), [{"step": 2}, {"step": 2}])
    (tmp_path / "corrupt.jsonl").write_text('{"version": 1, "step": 1}\nnot json\n')
    with pytest.raises(RunlogError):
        read_runlog(str(tmp_path / "corrupt.jsonl"))


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


def test_cli_rejects_invalid_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"task": {"kind": "parity", "oops": True}}))
    assert main(["train", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "$.task.oops" in err


def test_cli_verify_filter_and_fault_injection(tmp_path, capsys):
    assert main(["verify", "--filter", "runlog", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "runlog-schema" in out

    assert main(["verify", "--filter", "hebbian", "--out", str(tmp_path), "--inject-fault", "hebbian-sign"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


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
