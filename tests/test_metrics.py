"""PSNR/SSIM against closed forms and a naive windowed SSIM oracle."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hazeflow.errors import ShapeError
from hazeflow.metrics import (MetricReport, evaluate_pairs, gaussian_window,
                              psnr, ssim)

C1 = (0.01 * 1.0) ** 2
C2 = (0.03 * 1.0) ** 2


def naive_ssim(x: np.ndarray, y: np.ndarray) -> float:
    """Straightforward per-window SSIM, written independently of metrics.ssim.

    Loops over every valid 11x11 window position, computes weighted
    moments explicitly, and averages channels at the end.
    """
    k1d = gaussian_window()
    w = np.outer(k1d, k1d)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    values = []
    for c in range(x.shape[0]):
        xc, yc = x[c], y[c]
        h, wd = xc.shape
        for i in range(h - 10):
            for j in range(wd - 10):
                wx = xc[i:i + 11, j:j + 11]
                wy = yc[i:i + 11, j:j + 11]
                mx = (w * wx).sum()
                my = (w * wy).sum()
                sx = (w * wx * wx).sum() - mx * mx
                sy = (w * wy * wy).sum() - my * my
                sxy = (w * wx * wy).sum() - mx * my
                values.append(((2 * mx * my + C1) * (2 * sxy + C2))
                              / ((mx * mx + my * my + C1) * (sx + sy + C2)))
    return float(np.mean(values))


class TestPsnr:
    def test_identical_images_hit_cap(self, rng):
        x = rng.uniform(0, 1, (3, 16, 16)).astype(np.float32)
        assert psnr(x, x) == 100.0

    def test_offset_point_one_is_twenty_db(self):
        x = np.zeros((3, 16, 16))
        assert psnr(x, x + 0.1) == pytest.approx(20.0, abs=1e-6)

    def test_full_scale_error_is_zero_db(self):
        x = np.zeros((3, 8, 8))
        y = np.ones((3, 8, 8))
        assert psnr(x, y) == pytest.approx(0.0, abs=1e-9)

    def test_symmetry(self, rng):
        x = rng.uniform(0, 1, (3, 12, 12))
        y = rng.uniform(0, 1, (3, 12, 12))
        assert psnr(x, y) == psnr(y, x)

    def test_monotone_decreasing_in_mse(self):
        x = np.zeros((3, 8, 8))
        values = [psnr(x, x + off) for off in (0.05, 0.1, 0.2, 0.4)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            psnr(np.zeros((3, 8, 8)), np.zeros((3, 8, 9)))


class TestSsim:
    def test_self_similarity_is_one(self, rng):
        x = rng.uniform(0, 1, (3, 16, 16))
        assert ssim(x, x) == pytest.approx(1.0, abs=1e-9)

    def test_identical_constants(self):
        x = np.full((3, 12, 12), 0.37)
        assert ssim(x, x.copy()) == pytest.approx(1.0, abs=1e-9)

    def test_matches_naive_oracle(self, rng):
        for _ in range(20):
            x = rng.uniform(0, 1, (3, 14, 14))
            y = rng.uniform(0, 1, (3, 14, 14))
            assert ssim(x, y) == pytest.approx(naive_ssim(x, y), abs=1e-6)

    def test_window_size_guard(self):
        with pytest.raises(ShapeError):
            ssim(np.zeros((3, 10, 10)), np.zeros((3, 10, 10)))

    def test_symmetry(self, rng):
        x = rng.uniform(0, 1, (3, 13, 13))
        y = rng.uniform(0, 1, (3, 13, 13))
        assert ssim(x, y) == pytest.approx(ssim(y, x), abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_bounded(self, seed):
        r = np.random.default_rng(seed)
        x = r.uniform(0, 1, (3, 12, 12))
        y = r.uniform(0, 1, (3, 12, 12))
        assert -1.0 <= ssim(x, y) <= 1.0


class TestReport:
    def test_table_and_key_values(self, rng):
        preds = [rng.uniform(0, 1, (3, 16, 16)) for _ in range(3)]
        refs = [p + 0.05 for p in preds]
        report = evaluate_pairs(preds, refs)
        table = report.format_table()
        assert "mean" in table and "psnr_db" in table
        kv = dict(line.split("=") for line in
                  report.key_value_lines().splitlines())
        assert float(kv["mean_psnr"]) == pytest.approx(report.mean_psnr)
        assert int(kv["count"]) == 3

    def test_generator_predictions_match_a_list(self, rng):
        preds = [rng.uniform(0, 1, (3, 16, 16)) for _ in range(3)]
        refs = [p * 0.9 for p in preds]
        names = ["a", "b", "c"]
        assert evaluate_pairs((p for p in preds), refs, names) == \
            evaluate_pairs(preds, refs, names)

    def test_generated_predictions_are_freed_one_by_one(self, rng):
        refs = [rng.uniform(0, 1, (3, 16, 16)) for _ in range(4)]
        drawn = []

        def predictions():
            for ref in refs:
                # only the prediction being scored may still be alive
                assert sum(w() is not None for w in drawn) <= 1
                pred = ref * 0.9
                drawn.append(weakref.ref(pred))
                yield pred
                del pred

        assert evaluate_pairs(predictions(), refs).names[-1] == "img003"

    def test_count_mismatch_raises(self, rng):
        imgs = [rng.uniform(0, 1, (3, 16, 16)) for _ in range(3)]
        for preds, refs in ((imgs, imgs[:2]), (imgs[:2], imgs),
                            (iter(imgs), imgs[:2]), (iter(imgs[:2]), imgs)):
            with pytest.raises(ShapeError, match="counts differ"):
                evaluate_pairs(preds, refs)

    def test_report_mean(self):
        report = MetricReport()
        report.add("a", 20.0, 0.8)
        report.add("b", 30.0, 0.9)
        assert report.mean_psnr == pytest.approx(25.0)
        assert report.mean_ssim == pytest.approx(0.85)
