"""Full-reference image quality metrics: PSNR and single-scale SSIM.

SSIM follows the standard recipe: 11x11 Gaussian window (sigma 1.5),
K1=0.01, K2=0.03, statistics over valid window positions only, computed
per channel and averaged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from .errors import DataError, ShapeError

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
_C1, _C2 = SSIM_K1 ** 2, SSIM_K2 ** 2  # (K * peak)^2, images in [0, 1]
PSNR_CAP_DB = 100.0
_PSNR_MSE_FLOOR = 1e-10


def psnr(x, y) -> float:
    """PSNR in dB for peak 1, capped at 100 for near-identical pairs."""
    xa, ya = np.asarray(x, np.float64), np.asarray(y, np.float64)
    if xa.shape != ya.shape:
        raise ShapeError(f"shape mismatch: {xa.shape} vs {ya.shape}")
    mse = float(np.mean((xa - ya) ** 2))
    if mse < _PSNR_MSE_FLOOR:
        return PSNR_CAP_DB
    return min(10.0 * np.log10(1.0 / mse), PSNR_CAP_DB)


def gaussian_window() -> np.ndarray:
    """1d Gaussian taps of the SSIM window, normalized to sum 1."""
    offsets = np.arange(SSIM_WINDOW, dtype=np.float64) - (SSIM_WINDOW - 1) / 2.0
    k = np.exp(-0.5 * (offsets / SSIM_SIGMA) ** 2)
    return k / k.sum()


def _filter_valid(img: np.ndarray, k: np.ndarray) -> np.ndarray:
    # separable valid-mode correlation of a 2d image with a 1d kernel
    n = k.size
    win = np.lib.stride_tricks.sliding_window_view(img, n, axis=1)
    img = win @ k
    win = np.lib.stride_tricks.sliding_window_view(img, n, axis=0)
    return win @ k


def _ssim_channel(x: np.ndarray, y: np.ndarray, k: np.ndarray) -> float:
    mu_x = _filter_valid(x, k)
    mu_y = _filter_valid(y, k)
    xx = _filter_valid(x * x, k) - mu_x * mu_x
    yy = _filter_valid(y * y, k) - mu_y * mu_y
    xy = _filter_valid(x * y, k) - mu_x * mu_y
    lum = (2.0 * mu_x * mu_y + _C1) / (mu_x ** 2 + mu_y ** 2 + _C1)
    cs = (2.0 * xy + _C2) / (xx + yy + _C2)
    return float(np.mean(lum * cs))


def ssim(x, y) -> float:
    """Mean local SSIM (peak 1) over valid windows, averaged over channels."""
    xa, ya = np.asarray(x, np.float64), np.asarray(y, np.float64)
    if xa.shape != ya.shape:
        raise ShapeError(f"shape mismatch: {xa.shape} vs {ya.shape}")
    if xa.ndim == 4:
        if xa.shape[0] != 1:
            raise ShapeError("ssim expects a single image, not a batch")
        xa, ya = xa[0], ya[0]
    if xa.shape[1] < SSIM_WINDOW or xa.shape[2] < SSIM_WINDOW:
        raise ShapeError(
            f"image {xa.shape[1]}x{xa.shape[2]} smaller than the "
            f"{SSIM_WINDOW}x{SSIM_WINDOW} window")
    k = gaussian_window()
    return float(np.mean([_ssim_channel(xc, yc, k) for xc, yc in zip(xa, ya)]))


@dataclass
class MetricReport:
    """Per-image PSNR/SSIM values plus their means."""
    names: list = field(default_factory=list)
    psnr_values: list = field(default_factory=list)
    ssim_values: list = field(default_factory=list)

    def add(self, name: str, psnr_db: float, ssim_value: float) -> None:
        self.names.append(name)
        self.psnr_values.append(float(psnr_db))
        self.ssim_values.append(float(ssim_value))

    @property
    def mean_psnr(self) -> float:
        return float(np.mean(self.psnr_values)) if self.psnr_values else float("nan")

    @property
    def mean_ssim(self) -> float:
        return float(np.mean(self.ssim_values)) if self.ssim_values else float("nan")

    def format_table(self) -> str:
        width = max([len(n) for n in self.names] + [5])
        lines = [f"{'image':<{width}}  {'psnr_db':>9}  {'ssim':>7}"]
        for name, p, s in zip(self.names, self.psnr_values, self.ssim_values):
            lines.append(f"{name:<{width}}  {p:>9.4f}  {s:>7.4f}")
        lines.append(f"{'mean':<{width}}  {self.mean_psnr:>9.4f}  {self.mean_ssim:>7.4f}")
        return "\n".join(lines)

    def key_value_lines(self, prefix: str = "") -> str:
        return "\n".join([f"{prefix}mean_psnr={self.mean_psnr:.6f}",
                          f"{prefix}mean_ssim={self.mean_ssim:.6f}",
                          f"{prefix}count={len(self.psnr_values)}"])


def evaluate_pairs(predictions, references, names=None) -> MetricReport:
    """PSNR/SSIM report over matched images, each pair scored as it is drawn."""
    report = MetricReport()
    # not enumerate(): zip_longest's cached tuple would then pin an old prediction
    for pred, ref in zip_longest(predictions, references):
        if pred is None or ref is None:
            raise ShapeError("prediction and reference counts differ")
        name = names[len(report.names)] if names else f"img{len(report.names):03d}"
        try:
            report.add(name, psnr(pred, ref), ssim(pred, ref))
        except ShapeError as exc:  # a pair that cannot be scored, named
            raise DataError(f"{name}: {exc}") from exc
    return report
