"""Timing, memory, and analytic MAC accounting for the dehazing pipeline."""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .flow import FIELD_EVALS, FlowConfig
from .lut import Lut3D
from .purifier import KERNEL, PurifierNet, conv_plan
from .tiling import TilePlan, dehaze, tile_spans


def conv_macs(c_in: int, c_out: int, kernel: int, h_out: int, w_out: int) -> int:
    """Multiply-accumulate count of one conv layer."""
    return c_in * c_out * kernel * kernel * h_out * w_out


def purifier_macs(width: int, height: int, w: int) -> dict[str, int]:
    """Per-layer conv MACs of one purifier forward pass at the given size,
    from the purifier's layer plan; each max-pool rounds odd sizes up."""
    return {name: conv_macs(c_in, c_out, KERNEL, -(-height // 2 ** pools),
                            -(-w // 2 ** pools))
            for name, c_in, c_out, pools in conv_plan(width)}


def peak_rss_bytes() -> int:
    """Peak resident set size of this process so far (Linux: ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


@dataclass
class BenchReport:
    height: int
    width: int
    net_width: int
    solver: str
    steps: int
    field_evals: int
    macs_per_eval: int
    total_macs: int
    total_seconds: float
    seconds_per_step: float
    peak_rss_mb: float
    tiled: bool

    def format(self) -> str:
        lines = [
            f"image               {self.width}x{self.height}",
            f"network width       {self.net_width}",
            f"solver              {self.solver} ({self.steps} steps, "
            f"{self.field_evals} field evaluations)",
            f"conv MACs per eval  {self.macs_per_eval:,}",
            f"conv MACs total     {self.total_macs:,}",
            f"per field eval      {self.total_seconds / self.field_evals:.4f} s",
            f"full integration    {self.total_seconds:.4f} s"
            f" ({'tiled' if self.tiled else 'untiled'})",
            f"per solver step     {self.seconds_per_step:.4f} s",
            f"peak RSS            {self.peak_rss_mb:.1f} MB",
        ]
        return "\n".join(lines)

    def key_value_lines(self) -> str:
        return "\n".join([
            f"total_seconds={self.total_seconds:.6f}",
            f"seconds_per_step={self.seconds_per_step:.6f}",
            f"field_evals={self.field_evals}",
            f"macs_per_eval={self.macs_per_eval}",
            f"total_macs={self.total_macs}",
            f"peak_rss_mb={self.peak_rss_mb:.1f}",
        ])


def run_bench(height: int, width: int, net: PurifierNet, lut: Optional[Lut3D],
              cfg: FlowConfig, plan: Optional[TilePlan] = None) -> BenchReport:
    """Time one full dehazing pass of the given model on a synthetic image."""
    if height < 1 or width < 1:
        raise ConfigError(f"bench image size {width}x{height} must be at least 1x1")
    rng = np.random.default_rng(0)  # the same image on every run
    image = rng.uniform(0.2, 0.9, size=(1, 3, height, width)).astype(np.float32)

    t0 = time.perf_counter()
    dehaze(image, net, lut, cfg, plan)
    total = time.perf_counter() - t0

    # every tile runs the whole flow, overlaps included
    spans_y, spans_x = [(0, height)], [(0, width)]
    if plan is not None:
        spans_y, spans_x = tile_spans(height, plan), tile_spans(width, plan)

    per_eval = sum(sum(purifier_macs(net.width, y1 - y0, x1 - x0).values())
                   for y0, y1 in spans_y for x0, x1 in spans_x)
    evals = FIELD_EVALS[cfg.solver] * cfg.steps
    return BenchReport(
        height=height, width=width, net_width=net.width, solver=cfg.solver,
        steps=cfg.steps, field_evals=evals, macs_per_eval=per_eval,
        total_macs=per_eval * evals, total_seconds=total,
        seconds_per_step=total / cfg.steps,
        peak_rss_mb=peak_rss_bytes() / 1e6,
        tiled=len(spans_y) * len(spans_x) > 1)
