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


def _conv_init(rng: np.random.Generator, c_out: int, c_in: int, k: int, dtype):
    fan_in = c_in * k * k
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=(c_out, c_in, k, k)).astype(dtype)


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
        self.width = int(width)
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(seed)
        w = self.width
        enc_channels = [(3, w), (w, 2 * w), (2 * w, 4 * w)]
        # decoder stage d concatenates the input of encoder stage (4 - d)
        dec_channels = [(4 * w + 2 * w, 2 * w), (2 * w + w, w), (w + 3, w)]

        self.params: dict[str, Tensor] = {}

        def add(name, array):
            self.params[name] = Tensor(array, requires_grad=True, dtype=dtype)

        for i, (cin, cout) in enumerate(enc_channels, start=1):
            add(f"enc{i}.w", _conv_init(rng, cout, cin, 3, dtype))
            add(f"enc{i}.b", np.zeros(cout, dtype=dtype))
            add(f"enc{i}.gain", np.ones(cout, dtype=dtype))
            add(f"enc{i}.bias", np.zeros(cout, dtype=dtype))
        add("attn.w", _conv_init(rng, 1, 4 * w, 3, dtype))
        add("attn.b", np.zeros(1, dtype=dtype))
        for i, (cin, cout) in enumerate(dec_channels, start=1):
            add(f"dec{i}.w", _conv_init(rng, cout, cin, 3, dtype))
            add(f"dec{i}.b", np.zeros(cout, dtype=dtype))
            add(f"dec{i}.gain", np.ones(cout, dtype=dtype))
            add(f"dec{i}.bias", np.zeros(cout, dtype=dtype))
        add("head.w", _conv_init(rng, 3, w, 3, dtype))
        add("head.b", np.zeros(3, dtype=dtype))
        add("b", np.asarray(1.0, dtype=dtype))

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    @property
    def b(self) -> Tensor:
        return self.params["b"]

    def param_count(self) -> int:
        return sum(p.data.size for p in self.params.values())

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

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


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
        feat = conv2d(feat, p[f"enc{i}.w"], p[f"enc{i}.b"], padding=1)
        feat = gelu(instance_norm(feat, p[f"enc{i}.gain"], p[f"enc{i}.bias"]))

    feat = spatial_attention(feat, p["attn.w"], p["attn.b"])

    for i in range(1, N_STAGES + 1):
        skip = skips[N_STAGES - i]
        feat = upsample_bilinear2x(feat)
        feat = crop2d(feat, skip.shape[2], skip.shape[3])
        feat = concat_channels([feat, skip])
        feat = conv2d(feat, p[f"dec{i}.w"], p[f"dec{i}.b"], padding=1)
        feat = gelu(instance_norm(feat, p[f"dec{i}.gain"], p[f"dec{i}.bias"]))

    head = conv2d(feat, p["head.w"], p["head.b"], padding=1)
    return head + x


def scattering_transform(k: Tensor, x: Tensor, b: Tensor) -> Tensor:
    """K*x - K + b, associated as K*x - (K - b) so K == 1, b == 1 is an
    exact fixed point in floating point."""
    return k * x - (k - b)


def purify(x: Tensor, net: PurifierNet) -> Tensor:
    """Dehazed estimate K*x - K + b (no clamping; that happens at pipeline end)."""
    return scattering_transform(cnn_forward(x, net), x, net.b)
