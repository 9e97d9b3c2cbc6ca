"""hazeflow: image dehazing as ODE integration of a haze-aware vector field.

A CNN purifier and a learnable 3D LUT define a per-pixel vector field;
fixed-step solvers (Euler, midpoint, RK4) carry the hazy image to the
clear one, and training differentiates through the unrolled solver.
"""

from .errors import (ConfigError, DataError, DivergenceError, GraphError,
                     HazeflowError, LatticeRangeError, ShapeError)
from .flow import (FIELD_EVALS, SOLVERS, FlowConfig, IntegrationResult,
                   integrate, integrate_field, solver_step, vector_field)
from .lut import (Lut3D, export_cube, fixed_contrast_saturation_lut,
                  identity_lut, lattice_coords, trilinear_apply)
from .metrics import MetricReport, evaluate_pairs, psnr, ssim
from .purifier import PurifierNet, cnn_forward, purify
from .tensor import (Tensor, concat_channels, conv2d, crop2d, gelu, instance_norm,
                     maxpool2d, no_grad, spatial_attention, upsample_bilinear2x)
from .tiling import TilePlan, blend_weight_maps, dehaze, tile_spans
from .training import (AdamW, OptState, ReduceLROnPlateau, TrainConfig,
                       TrainResult, l1_loss, make_toy_dataset, synth_haze,
                       train_loop)

__version__ = "0.1.0"

__all__ = [
    "AdamW", "ConfigError", "DataError", "DivergenceError", "FIELD_EVALS",
    "FlowConfig", "GraphError", "HazeflowError", "IntegrationResult",
    "LatticeRangeError", "Lut3D", "MetricReport", "OptState", "PurifierNet",
    "ReduceLROnPlateau", "SOLVERS", "ShapeError", "Tensor", "TilePlan",
    "TrainConfig", "TrainResult", "blend_weight_maps", "cnn_forward",
    "concat_channels", "conv2d", "crop2d", "dehaze", "evaluate_pairs",
    "export_cube", "fixed_contrast_saturation_lut", "gelu", "identity_lut",
    "instance_norm", "integrate", "integrate_field", "l1_loss",
    "lattice_coords", "make_toy_dataset", "maxpool2d", "no_grad", "psnr",
    "purify", "solver_step", "spatial_attention", "ssim", "synth_haze",
    "tile_spans", "train_loop", "trilinear_apply", "upsample_bilinear2x",
    "vector_field",
]
