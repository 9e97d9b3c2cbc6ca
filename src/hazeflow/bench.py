"""Timing, memory, and analytic MAC accounting for the dehazing pipeline."""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .flow import FIELD_EVALS, FlowConfig
from .lut import lut_from_size
from .purifier import N_STAGES, PurifierNet, param_shapes
from .tiling import TilePlan, dehaze, tile_spans


def conv_macs(c_in: int, c_out: int, kernel: int, h_out: int, w_out: int) -> int:
    """Multiply-accumulate count of one conv layer."""
    return c_in * c_out * kernel * kernel * h_out * w_out


def purifier_macs(width: int, height: int, w: int) -> dict[str, int]:
    """Per-layer conv MACs of one purifier forward pass at the given size.

    Channel counts and kernel sizes are read from the purifier's layer plan.
    """
    # sizes[s]: feature map after s max-pools, odd sizes rounded up
    sizes = [(height, w)]
    for _ in range(N_STAGES):
        sizes.append(((sizes[-1][0] + 1) // 2, (sizes[-1][1] + 1) // 2))
    at = {"attn": sizes[N_STAGES], "head": sizes[0]}
    for i in range(1, N_STAGES + 1):
        at[f"enc{i}"], at[f"dec{i}"] = sizes[i], sizes[N_STAGES - i]
    kernels = {name[:-2]: shape for name, shape in param_shapes(width).items()
               if name.endswith(".w")}
    return {name: conv_macs(c_in, c_out, k, *at[name])
            for name, (c_out, c_in, k, _) in kernels.items()}


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


def run_bench(height: int, width: int, cfg: FlowConfig, net_width: int = 16,
              lut_size: int = 33, plan: Optional[TilePlan] = None,
              seed: int = 0) -> BenchReport:
    """Time one full dehazing pass on a synthetic image of the given size."""
    if height < 1 or width < 1:
        raise ConfigError(f"bench image size {width}x{height} must be at least 1x1")
    net = PurifierNet(width=net_width, seed=seed)
    lut = lut_from_size(lut_size)
    rng = np.random.default_rng(seed)
    image = rng.uniform(0.2, 0.9, size=(1, 3, height, width)).astype(np.float32)

    t0 = time.perf_counter()
    dehaze(image, net, lut, cfg, plan)
    total = time.perf_counter() - t0

    # every tile runs the whole flow, overlaps included
    spans_y, spans_x = [(0, height)], [(0, width)]
    if plan is not None:
        spans_y, spans_x = tile_spans(height, plan), tile_spans(width, plan)

    per_eval = sum(sum(purifier_macs(net_width, y1 - y0, x1 - x0).values())
                   for y0, y1 in spans_y for x0, x1 in spans_x)
    evals = FIELD_EVALS[cfg.solver] * cfg.steps
    return BenchReport(
        height=height, width=width, net_width=net_width, solver=cfg.solver,
        steps=cfg.steps, field_evals=evals, macs_per_eval=per_eval,
        total_macs=per_eval * evals, total_seconds=total,
        seconds_per_step=total / cfg.steps,
        peak_rss_mb=peak_rss_bytes() / 1e6,
        tiled=len(spans_y) * len(spans_x) > 1)
