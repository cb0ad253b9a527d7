"""Acceptance gate: every criterion as a test, each printing its PASS/FAIL line.

The checks live in nllab.verify so `nllab verify` runs the same code.  Slow
criteria (model training) sit at the end; tolerances are pinned in the check
implementations.
"""

import time

from nllab import verify


def _run(check_fn, tmp_path, budget_seconds=None):
    start = time.time()
    result = check_fn(str(tmp_path))
    elapsed = time.time() - start
    status = "PASS" if result.passed else "FAIL"
    print(f"\n[acceptance] {status} {result.name} measured={result.measured:.3e} ({elapsed:.1f}s) {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"{result.name} exceeded its runtime budget ({elapsed:.1f}s)"
    return result


def test_criterion_01_rule_oracle_equivalence(tmp_path):
    start = time.time()
    _run(verify.check_hebbian, tmp_path)
    _run(verify.check_delta, tmp_path)
    _run(verify.check_oja, tmp_path)
    assert time.time() - start < 5.0, "rule/oracle equivalence exceeded 5 s"


def test_criterion_02_dgd_proximal(tmp_path):
    _run(verify.check_dgd, tmp_path, budget_seconds=5.0)


def test_criterion_03_adam_am_equivalence(tmp_path):
    _run(verify.check_adam_am, tmp_path)


def test_criterion_04_momentum_ftrl(tmp_path):
    _run(verify.check_ftrl, tmp_path)


def test_criterion_05_newton_schulz(tmp_path):
    _run(verify.check_ns, tmp_path)


def test_criterion_06_m3_structure(tmp_path):
    _run(verify.check_m3, tmp_path)


def test_criterion_07_cms_frequency(tmp_path):
    _run(verify.check_cms, tmp_path)


def test_criterion_08_srt_chunked(tmp_path):
    # chunk 1 is token stepping and chunk order is free: srt-fused-core's carry and order rows
    _run(verify.check_fused_core, tmp_path)


def test_criterion_09_linear_attention_recovery(tmp_path):
    _run(verify.check_linear_attention, tmp_path)


def test_criterion_10_gradient_integrity(tmp_path):
    _run(verify.check_hope_gradients, tmp_path)


def test_criterion_14_contribution_curve(tmp_path):
    result = _run(verify.check_contribution, tmp_path)
    assert (tmp_path / "contribution_crossings.csv").exists()


def test_criterion_12_psi_toy(tmp_path):
    _run(verify.check_psi, tmp_path)
    assert (tmp_path / "psi_momentum.csv").exists()
    assert (tmp_path / "psi_delta_momentum.csv").exists()


def test_criterion_13_orthogonal_continual(tmp_path):
    _run(verify.check_orthogonal, tmp_path)
    assert (tmp_path / "orthogonal_summary.csv").exists()


def test_criterion_11_formal_language_parity(tmp_path):
    _run(verify.check_parity, tmp_path, budget_seconds=900.0)


def test_criterion_11_formal_language_anbn(tmp_path):
    _run(verify.check_anbn, tmp_path, budget_seconds=900.0)


def test_criterion_15_char_lm_smoke(tmp_path):
    _run(verify.check_smoke, tmp_path)
