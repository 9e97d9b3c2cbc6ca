"""Ablation suites: LUT variant, lambda weight, and ODE solver.

Each suite trains the same toy configuration from the same seed, varying
one component, and reports PSNR/SSIM per setting in a three-block table.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError
from .flow import SOLVERS, FlowConfig
from .lut import Lut3D, fixed_contrast_saturation_lut, identity_lut
from .metrics import SSIM_WINDOW, evaluate_pairs
from .tiling import dehaze
from .training import TrainConfig, make_toy_dataset, train_loop

SUITES = {"lut": "Haze-LUT", "lambda": "lambda", "solver": "ODE solver"}  # name -> block title
# each row's LUT, built just before it trains: training changes a learnable grid in place
_LUT_BUILDERS = {"removed": lambda size: None, "fixed": fixed_contrast_saturation_lut,
                 "learnable": identity_lut}
LUT_SETTINGS = tuple(_LUT_BUILDERS)
LAMBDA_SETTINGS = (0.1, 0.5, 1.0)
LAMBDA, LR, BATCH_SIZE = 0.5, 3e-3, 4  # shared by every row; LAMBDA outside the lambda suite


@dataclass
class AblationConfig:
    """Toy-scale training shared by every ablation row."""
    seed: int = 7
    n_pairs: int = 8
    size: int = 16
    epochs: int = 25
    width: int = 4
    lut_size: int = 9
    steps: int = 2
    solver: str = "rk4"

    def __post_init__(self):
        if self.size < SSIM_WINDOW:  # every row is scored by SSIM
            raise ConfigError(f"size {self.size} is below the {SSIM_WINDOW}-pixel SSIM window")
        identity_lut(self.lut_size)  # the 2-bin rule, before any row trains


@dataclass
class AblationRow:
    suite: str
    setting: str
    mean_psnr: float
    mean_ssim: float
    final_val_l1: float
    grid_checksum_before: Optional[int] = None
    grid_checksum_after: Optional[int] = None


def grid_checksum(lut: Lut3D) -> int:
    return zlib.crc32(np.ascontiguousarray(lut.grid.data).tobytes())


def _run_one(acfg: AblationConfig, pairs: tuple[np.ndarray, np.ndarray], suite: str,
             setting: str, lam: float, solver: str, lut: Optional[Lut3D]) -> AblationRow:
    hazy, clean = pairs
    cfg = TrainConfig(lr=LR, batch_size=BATCH_SIZE, epochs=acfg.epochs,
                      seed=acfg.seed)
    flow_cfg = FlowConfig(solver=solver, steps=acfg.steps, lam=lam)
    before = None if lut is None else grid_checksum(lut)
    result = train_loop(pairs, cfg, flow_cfg, lut=lut, width=acfg.width)
    result.restore_best()
    after = None if result.lut is None else grid_checksum(result.lut)
    report = evaluate_pairs((dehaze(h[None], result.net, result.lut, flow_cfg)
                             for h in hazy), clean[:, None])
    return AblationRow(suite=suite, setting=setting, mean_psnr=report.mean_psnr,
                       mean_ssim=report.mean_ssim, final_val_l1=result.best_val,
                       grid_checksum_before=before, grid_checksum_after=after)


def run_suite(suite: str, acfg: Optional[AblationConfig] = None,
              lut_settings: Sequence[str] = LUT_SETTINGS,
              lambdas: Sequence[float] = LAMBDA_SETTINGS) -> list[AblationRow]:
    """Run one ablation suite; rows share data, seed, and base config."""
    if suite not in SUITES:
        raise ValueError(f"unknown ablation suite {suite!r}, expected one of {tuple(SUITES)}")
    acfg = acfg or AblationConfig()
    # one (setting, lam, solver, LUT kind) per row
    if suite == "lut":
        rows = [(s, 0.0 if s == "removed" else LAMBDA, acfg.solver, s) for s in lut_settings]
    elif suite == "lambda":
        rows = [(f"{lam:g}", float(lam), acfg.solver, "learnable" if lam > 0 else "removed")
                for lam in lambdas]
    else:
        rows = [(solver, LAMBDA, solver, "learnable") for solver in SOLVERS]
    for *_, kind in rows:  # before any row trains
        if kind not in _LUT_BUILDERS:
            raise ValueError(f"unknown LUT setting {kind!r}")
    pairs = make_toy_dataset(acfg.n_pairs, acfg.size, acfg.seed)
    return [_run_one(acfg, pairs, suite, setting, lam, solver, _LUT_BUILDERS[kind](acfg.lut_size))
            for setting, lam, solver, kind in rows]


def run_all(acfg: Optional[AblationConfig] = None) -> dict[str, list[AblationRow]]:
    acfg = acfg or AblationConfig()
    return {suite: run_suite(suite, acfg) for suite in SUITES}


def format_report(results: dict[str, list[AblationRow]]) -> str:
    """Three-block table (one per suite) with PSNR/SSIM columns."""
    lines = [f"{'ablation':<12} {'setting':<10} {'psnr_db':>9} {'ssim':>7} {'val_l1':>9}"]
    for suite, rows in results.items():
        title = SUITES.get(suite, suite)
        for i, row in enumerate(rows):
            label = title if i == 0 else ""
            lines.append(f"{label:<12} {row.setting:<10} {row.mean_psnr:>9.3f} "
                         f"{row.mean_ssim:>7.4f} {row.final_val_l1:>9.5f}")
    solver_rows = {r.setting: r for r in results.get("solver", [])}
    if "rk4" in solver_rows and "euler" in solver_rows:
        better = solver_rows["rk4"].final_val_l1 <= solver_rows["euler"].final_val_l1
        lines.append(f"note: rk4 {'<=' if better else '>'} euler "
                     "on final validation L1 (reported, not asserted)")
    return "\n".join(lines)


def write_reports(results: dict[str, list[AblationRow]], out_dir: str) -> list[str]:
    """One report per suite, then the combined one; returns their paths."""
    files = {f"ablation_{suite}.txt": {suite: rows} for suite, rows in results.items()}
    files["ablation_report.txt"] = results
    paths = []
    for name, subset in files.items():
        paths.append(os.path.join(out_dir, name))
        with open(paths[-1], "w", encoding="ascii") as fh:
            fh.write(format_report(subset) + "\n")
    return paths
