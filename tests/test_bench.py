"""MAC accounting and the benchmark report."""

import pytest

from hazeflow.bench import conv_macs, purifier_macs, run_bench
from hazeflow.flow import FIELD_EVALS, FlowConfig
from hazeflow.lut import identity_lut
from hazeflow.purifier import PurifierNet
from hazeflow.tiling import TilePlan, tile_spans


def model(width):
    return PurifierNet(width=width), identity_lut(3)


def test_single_conv_mac_formula():
    # 3x3 conv, 16 -> 16 channels, on a 32x32 map
    assert conv_macs(16, 16, 3, 32, 32) == 2_359_296


def test_rk4_doubles_evals_with_steps():
    cfg4 = FlowConfig(solver="rk4", steps=4)
    cfg8 = FlowConfig(solver="rk4", steps=8)
    evals4 = FIELD_EVALS[cfg4.solver] * cfg4.steps
    evals8 = FIELD_EVALS[cfg8.solver] * cfg8.steps
    assert (evals4, evals8) == (16, 32)
    report4 = run_bench(16, 16, *model(2), cfg4)
    report8 = run_bench(16, 16, *model(2), cfg8)
    assert report8.total_macs == 2 * report4.total_macs


def test_euler_uses_one_eval_per_step_vs_rk4_four():
    assert FIELD_EVALS["euler"] == 1
    assert FIELD_EVALS["rk4"] == 4


def test_purifier_macs_accounts_every_conv():
    macs = purifier_macs(16, 32, 32)
    assert set(macs) == {"enc1", "enc2", "enc3", "attn",
                         "dec1", "dec2", "dec3", "head"}
    # encoder stage 1: 3 -> 16 channels on the 16x16 pooled map
    assert macs["enc1"] == conv_macs(3, 16, 3, 16, 16)
    # head: 16 -> 3 at full resolution
    assert macs["head"] == conv_macs(16, 3, 3, 32, 32)


def test_odd_sizes_round_up_before_pooling():
    macs = purifier_macs(4, 33, 47)
    assert macs["enc1"] == conv_macs(3, 4, 3, 17, 24)


def test_run_bench_smoke():
    cfg = FlowConfig(solver="euler", steps=2)
    report = run_bench(48, 64, *model(4), cfg)
    assert report.total_seconds > 0
    assert report.seconds_per_step == pytest.approx(report.total_seconds / 2)
    assert report.field_evals == 2
    assert report.peak_rss_mb > 0
    assert not report.tiled
    text = report.format()
    assert "MACs" in text and "peak RSS" in text


def test_run_bench_tiled_smoke():
    cfg = FlowConfig(solver="euler", steps=1)
    report = run_bench(70, 90, *model(4), cfg, TilePlan(tile=48, overlap=8))
    assert report.tiled
    assert "total_macs" in report.key_value_lines()


def test_tiled_only_when_the_plan_splits_the_image():
    cfg = FlowConfig(solver="euler", steps=1)
    fits = run_bench(40, 48, *model(4), cfg, TilePlan(tile=48, overlap=8))
    splits = run_bench(40, 56, *model(4), cfg, TilePlan(tile=48, overlap=8))
    assert not fits.tiled
    assert fits.macs_per_eval == sum(purifier_macs(4, 40, 48).values())
    assert splits.tiled


def test_tiled_macs_count_every_tile_with_overlap():
    cfg = FlowConfig(solver="euler", steps=2)
    plan = TilePlan(tile=48, overlap=8)
    report = run_bench(70, 90, *model(4), cfg, plan)
    # rows (0, 48), (22, 70) and columns (0, 48), (40, 88), (42, 90):
    # six full 48x48 tiles
    assert tile_spans(70, plan) == [(0, 48), (22, 70)]
    assert tile_spans(90, plan) == [(0, 48), (40, 88), (42, 90)]
    per_eval = 6 * sum(purifier_macs(4, 48, 48).values())
    assert report.macs_per_eval == per_eval
    assert report.total_macs == per_eval * 2
    untiled = sum(purifier_macs(4, 70, 90).values()) * 2
    assert report.total_macs > untiled
