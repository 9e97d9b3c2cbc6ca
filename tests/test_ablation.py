"""Ablation suite wiring (cheap settings; metric behavior is in acceptance)."""

import pytest

from hazeflow import ablation
from hazeflow.ablation import (AblationConfig, format_report, grid_checksum,
                               run_suite)
from hazeflow.lut import fixed_contrast_saturation_lut, identity_lut
from hazeflow.training import make_toy_dataset


def cheap_config():
    return AblationConfig(seed=3, n_pairs=4, size=16, epochs=2, width=4,
                          lut_size=5, steps=1, solver="euler")


def test_solver_suite_has_exactly_three_rows():
    rows = run_suite("solver", cheap_config())
    assert [r.setting for r in rows] == ["euler", "midpoint", "rk4"]


def test_lut_suite_settings_and_checksums():
    rows = run_suite("lut", cheap_config())
    assert [r.setting for r in rows] == ["removed", "fixed", "learnable"]
    removed, fixed, learnable = rows
    assert removed.grid_checksum_before is None
    assert fixed.grid_checksum_before == fixed.grid_checksum_after
    assert learnable.grid_checksum_before != learnable.grid_checksum_after


def test_lambda_suite_rows():
    rows = run_suite("lambda", cheap_config())
    assert [r.setting for r in rows] == ["0.1", "0.5", "1"]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("windows", cheap_config())


def test_unknown_lut_setting_rejected_before_any_row_trains(monkeypatch):
    monkeypatch.setattr(ablation, "train_loop",
                        lambda *a, **k: pytest.fail("a row trained before the check"))
    with pytest.raises(ValueError, match="bogus"):
        run_suite("lut", cheap_config(), lut_settings=("removed", "bogus"))


def test_rows_of_a_suite_share_one_dataset(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return make_toy_dataset(*args)
    monkeypatch.setattr(ablation, "make_toy_dataset", counted)
    run_suite("lut", cheap_config())
    assert len(calls) == 1


def test_fixed_lut_differs_from_identity():
    fixed = fixed_contrast_saturation_lut(5)
    ident = identity_lut(5)
    assert grid_checksum(fixed) != grid_checksum(ident)


def test_report_contains_three_blocks_and_note():
    acfg = cheap_config()
    results = {suite: run_suite(suite, acfg)
               for suite in ("lut", "lambda", "solver")}
    text = format_report(results)
    for label in ("Haze-LUT", "lambda", "ODE solver", "note:"):
        assert label in text
