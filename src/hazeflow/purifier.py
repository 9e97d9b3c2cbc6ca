"""Atmospheric scattering purifier.

A small encoder/attention/decoder CNN estimates a per-pixel coefficient
map K from the hazy image; the dehazed estimate is then K*x - K + b with
a single learnable scalar b (initialized to 1, so K == 1 reproduces the
input exactly).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import (Tensor, concat_channels, conv2d, crop2d, gelu,
                     instance_norm, maxpool2d, spatial_attention,
                     upsample_bilinear2x)

N_STAGES = 3
KERNEL = 3


def conv_plan(width: int) -> list[tuple[str, int, int, int]]:
    """(conv, input channels, output channels, max-pools before it) per conv."""
    w = width
    # decoder stage d concatenates the input of encoder stage (4 - d)
    return [("enc1", 3, w, 1), ("enc2", w, 2 * w, 2), ("enc3", 2 * w, 4 * w, 3),
            ("attn", 4 * w, 1, 3), ("dec1", 4 * w + 2 * w, 2 * w, 2),
            ("dec2", 2 * w + w, w, 1), ("dec3", w + 3, w, 0), ("head", w, 3, 0)]


def param_shapes(width: int) -> dict[str, tuple]:
    """Parameter name -> shape of a purifier of this width, in creation order."""
    shapes = {}
    for name, c_in, c_out, _ in conv_plan(width):
        shapes[f"{name}.w"], shapes[f"{name}.b"] = (c_out, c_in, KERNEL, KERNEL), (c_out,)
        if name[:3] in ("enc", "dec"):  # instance-norm affine
            shapes[f"{name}.gain"] = shapes[f"{name}.bias"] = (c_out,)
    shapes["b"] = ()
    return shapes


class PurifierNet:
    """Encoder(3) -> spatial attention -> decoder(3) with skip concatenation.

    Each encoder stage runs maxpool, 3x3 conv, instance norm, GELU; each
    decoder stage runs bilinear 2x upsampling, concatenation with the
    matching encoder-stage input, 3x3 conv, instance norm, GELU. A final
    3x3 head maps back to 3 channels and the input is added globally.
    """

    def __init__(self, width: int = 16, seed: int = 0, dtype=np.float32):
        if width < 1:
            raise ConfigError("width must be positive")
        if seed < 0:  # numpy seeds from non-negative integers only
            raise ConfigError("seed must be non-negative")
        self.width = int(width)
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(seed)
        self.params: dict[str, Tensor] = {}
        for name, shape in param_shapes(self.width).items():
            if len(shape) == 4:  # He-normal conv kernel
                _, c_in, kh, kw = shape
                array = rng.normal(0.0, np.sqrt(2.0 / (c_in * kh * kw)), size=shape)
            elif name == "b" or name.endswith(".gain"):
                array = np.ones(shape)
            else:
                array = np.zeros(shape)
            self.params[name] = Tensor(array.astype(dtype), requires_grad=True, dtype=dtype)

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    @property
    def b(self) -> Tensor:
        return self.params["b"]

    def state(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        missing = set(self.params) - set(state)
        if missing:
            raise ShapeError(f"state is missing parameters: {sorted(missing)}")
        for name, p in self.params.items():
            arr = np.asarray(state[name], dtype=p.data.dtype)
            if arr.shape != p.data.shape:
                raise ShapeError(
                    f"parameter {name}: expected shape {p.data.shape}, got {arr.shape}")
            p.data = arr.copy()


def cnn_forward(x: Tensor, net: PurifierNet) -> Tensor:
    """K map D(Attn(E(x))) + x; same spatial size and 3 channels as x."""
    if x.data.ndim != 4 or x.data.shape[1] != 3:
        raise ShapeError(f"expected a (B, 3, H, W) image, got {x.shape}")
    p = net.params

    skips = []
    feat = x
    for i in range(1, N_STAGES + 1):
        skips.append(feat)
        feat = maxpool2d(feat)
        feat = conv2d(feat, p[f"enc{i}.w"], p[f"enc{i}.b"])
        feat = instance_norm(feat, p[f"enc{i}.gain"], p[f"enc{i}.bias"])
        feat = gelu(feat)  # its own statement: no_grad frees the conv output first

    feat = spatial_attention(feat, p["attn.w"], p["attn.b"])

    for i in range(1, N_STAGES + 1):
        skip = skips[N_STAGES - i]
        feat = upsample_bilinear2x(feat)
        feat = crop2d(feat, skip.shape[2], skip.shape[3])
        feat = concat_channels([feat, skip])
        feat = conv2d(feat, p[f"dec{i}.w"], p[f"dec{i}.b"])
        feat = instance_norm(feat, p[f"dec{i}.gain"], p[f"dec{i}.bias"])
        feat = gelu(feat)  # its own statement: no_grad frees the conv output first

    head = conv2d(feat, p["head.w"], p["head.b"])
    return head + x


def scattering_transform(k: Tensor, x: Tensor, b: Tensor) -> Tensor:
    """K*x - K + b, associated as K*x - (K - b) so K == 1, b == 1 is an
    exact fixed point in floating point."""
    return k * x - (k - b)


def purify(x: Tensor, net: PurifierNet) -> Tensor:
    """Dehazed estimate K*x - K + b (no clamping; that happens at pipeline end)."""
    return scattering_transform(cnn_forward(x, net), x, net.b)
