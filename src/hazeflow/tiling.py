"""Overlap-blended tiled processing, and `dehaze`, the one inference path.

Tiles cover the image with a fixed overlap; the last tile in each axis is
right-aligned. Complementary raised-cosine ramps over each shared overlap
band make the per-pixel blend weights a partition of unity, and the
accumulated weight is divided out to keep that exact at corners.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .flow import FlowConfig, integrate
from .lut import Lut3D
from .purifier import PurifierNet
from .tensor import Tensor, no_grad


@dataclass
class TilePlan:
    tile: int = 512
    overlap: int = 32

    def __post_init__(self):
        if self.tile < 1:
            raise ConfigError("tile size must be positive")
        if not 0 <= self.overlap < self.tile:
            raise ConfigError("overlap must satisfy 0 <= overlap < tile")


def tile_spans(length: int, plan: TilePlan) -> list[tuple[int, int]]:
    """Start/stop spans along one axis; the final span is right-aligned."""
    if length <= plan.tile:
        return [(0, length)]
    stride = plan.tile - plan.overlap
    spans = []
    start = 0
    while start + plan.tile < length:
        spans.append((start, start + plan.tile))
        start += stride
    spans.append((length - plan.tile, length))
    return spans


def _ramp_in(n: int) -> np.ndarray:
    # entering half of a raised-cosine crossfade over n overlapping pixels
    u = np.arange(1, n + 1, dtype=np.float64)
    return 0.5 * (1.0 - np.cos(np.pi * u / (n + 1)))


def _axis_weights(spans: list[tuple[int, int]], idx: int) -> np.ndarray:
    start, stop = spans[idx]
    w = np.ones(stop - start, dtype=np.float64)
    if idx > 0:
        left = spans[idx - 1][1] - start  # actual overlap with previous tile
        if left > 0:
            w[:left] = _ramp_in(left)
    if idx < len(spans) - 1:
        right = stop - spans[idx + 1][0]
        if right > 0:
            w[-right:] = _ramp_in(right)[::-1]
    return w


def _tile_weights(height: int, width: int, plan: TilePlan):
    """Yield (y span, x span, raw weight map) for every tile, row-major."""
    spans_y = tile_spans(height, plan)
    spans_x = tile_spans(width, plan)
    for iy, span_y in enumerate(spans_y):
        wy = _axis_weights(spans_y, iy)
        for ix, span_x in enumerate(spans_x):
            yield span_y, span_x, np.outer(wy, _axis_weights(spans_x, ix))


def blend_weight_maps(height: int, width: int, plan: TilePlan):
    """Per-tile normalized weight maps: list of (y span, x span, map).

    The maps sum to exactly 1 at every covered pixel.
    """
    raw = list(_tile_weights(height, width, plan))
    acc = np.zeros((height, width), dtype=np.float64)
    for (y0, y1), (x0, x1), wmap in raw:
        acc[y0:y1, x0:x1] += wmap
    return [((y0, y1), (x0, x1), wmap / acc[y0:y1, x0:x1])
            for (y0, y1), (x0, x1), wmap in raw]


def process_tiled(data: np.ndarray, fn, plan: TilePlan) -> np.ndarray:
    """Apply fn((N, C, th, tw) array) per tile and blend the overlaps.

    fn may return any number K of images per tile, (K, C', th, tw); each is
    blended on its own, and the result is (K, C', H, W) in data's dtype.
    An image that fits a single tile bypasses blending entirely, so the
    result is bit-identical to fn on the whole image. Float64 sums are kept
    for one tile row; the rows above the next one are divided out as it starts.
    """
    h, w = data.shape[2:]
    if h <= plan.tile and w <= plan.tile:
        return fn(data)

    rows = min(plan.tile, h)
    out = sums = None  # sized from the first tile's result
    wsum = np.zeros((rows, w))
    top = 0  # the image row held in buffer row 0
    for (y0, y1), (x0, x1), wmap in _tile_weights(h, w, plan):
        if y0 > top:  # a new tile row
            done = y0 - top
            np.divide(sums[:, :, :done], wsum[:done], out=out[:, :, top:y0])
            for buf in (sums, wsum):
                buf[..., :rows - done, :] = buf[..., done:, :]
                buf[..., rows - done:, :] = 0.0
            top = y0
        result = fn(np.ascontiguousarray(data[:, :, y0:y1, x0:x1]))
        if out is None:
            out = np.empty(result.shape[:2] + (h, w), dtype=data.dtype)
            sums = np.zeros(result.shape[:2] + (rows, w))
        sums[:, :, y0 - top:y1 - top, x0:x1] += result * wmap
        wsum[y0 - top:y1 - top, x0:x1] += wmap
    np.divide(sums, wsum, out=out[:, :, top:])
    return out


def dehaze(x, net: PurifierNet, lut: Lut3D | None, cfg: FlowConfig,
           plan: TilePlan | None = None, trajectory: bool = False) -> np.ndarray:
    """Integrate the flow without gradients; clamped (N, 3, H, W) output.

    With a plan the image is processed tile by tile and the tiles blended.
    With trajectory the result holds the clamped state after every solver
    step instead, step-major: (steps * N, 3, H, W), the last N of which are
    the output.
    """
    data = np.asarray(x)

    def run(tile: np.ndarray) -> np.ndarray:
        with no_grad():
            result = integrate(Tensor(tile), net, lut, cfg)
            if not trajectory:
                return result.output.data
            return np.concatenate([s.clamp(0.0, 1.0).data for s in result.trajectory])

    return run(data) if plan is None else process_tiled(data, run, plan)
