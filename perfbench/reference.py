"""Float64 reference model, written with plain numpy and independent of the
hazeflow tensor engine, solver and tiler.

It re-implements the documented forward semantics (purifier, LUT, vector
field, Euler/midpoint/RK4 steps, raised-cosine tile blending) so the
benchmark can check the program's float32 outputs against an oracle that
a change to hazeflow's own ops cannot silently alter.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erfc

N_STAGES = 3
_EPS = 1e-5
_BAND = 64  # output rows per conv matmul, to bound the im2col buffer


def _conv3x3(x, w, b):
    # stride 1, padding 1, as one matmul per band of output rows
    bsz, c, h, wd = x.shape
    o = w.shape[0]
    w_mat = w.transpose(0, 2, 3, 1).reshape(o, 9 * c)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.empty((bsz, o, h, wd))
    for n in range(bsz):
        for r0 in range(0, h, _BAND):
            r1 = min(r0 + _BAND, h)
            cols = np.empty((3, 3, c, r1 - r0, wd))
            for i in range(3):
                for j in range(3):
                    cols[i, j] = xp[n, :, r0 + i:r1 + i, j:j + wd]
            out[n, :, r0:r1] = (w_mat @ cols.reshape(9 * c, -1)).reshape(o, r1 - r0, wd)
    return out + b.reshape(1, o, 1, 1)


def _maxpool2x2(x):
    bsz, c, h, w = x.shape
    if h % 2 or w % 2:
        x = np.pad(x, ((0, 0), (0, 0), (0, h % 2), (0, w % 2)), mode="edge")
        h, w = x.shape[2], x.shape[3]
    return x.reshape(bsz, c, h // 2, 2, w // 2, 2).max(axis=(3, 5))


def _instance_norm(x, gain, bias):
    mu = x.mean(axis=(2, 3), keepdims=True)
    var = x.var(axis=(2, 3), keepdims=True)
    y = (x - mu) / np.sqrt(var + _EPS)
    return y * gain.reshape(1, -1, 1, 1) + bias.reshape(1, -1, 1, 1)


def _gelu(x):
    return x * (0.5 * erfc(-x / np.sqrt(2.0)))


def _upsample2x_axis(x, axis):
    # align_corners=False 2x: fixed 1/4-3/4 taps, edges replicated
    n = x.shape[axis]
    xp = np.concatenate([x.take([0], axis), x, x.take([n - 1], axis)], axis)
    mid = 0.75 * xp.take(range(1, n + 1), axis)
    even = mid + 0.25 * xp.take(range(0, n), axis)
    odd = mid + 0.25 * xp.take(range(2, n + 2), axis)
    out = np.stack([even, odd], axis + 1)
    shape = list(x.shape)
    shape[axis] = 2 * n
    return out.reshape(shape)


def _upsample2x(x):
    return _upsample2x_axis(_upsample2x_axis(x, 2), 3)


def purify(x, p):
    """K*x - K + b with K the encoder/attention/decoder output plus x."""
    skips = []
    feat = x
    for i in range(1, N_STAGES + 1):
        skips.append(feat)
        feat = _conv3x3(_maxpool2x2(feat), p[f"enc{i}.w"], p[f"enc{i}.b"])
        feat = _gelu(_instance_norm(feat, p[f"enc{i}.gain"], p[f"enc{i}.bias"]))
    gate = _conv3x3(feat, p["attn.w"], p["attn.b"])
    feat = feat / (1.0 + np.exp(-gate))
    for i in range(1, N_STAGES + 1):
        skip = skips[N_STAGES - i]
        feat = _upsample2x(feat)[:, :, :skip.shape[2], :skip.shape[3]]
        feat = np.concatenate([feat, skip], axis=1)
        feat = _conv3x3(feat, p[f"dec{i}.w"], p[f"dec{i}.b"])
        feat = _gelu(_instance_norm(feat, p[f"dec{i}.gain"], p[f"dec{i}.bias"]))
    k = _conv3x3(feat, p["head.w"], p["head.b"]) + x
    return k * x - (k - p["b"])


def lut_apply(x, grid, c_max):
    """Trilinear lookup of a (B, 3, H, W) image in an (M, M, M, 3) lattice."""
    m = grid.shape[0]
    pos = np.clip(x * ((m - 1) / c_max), 0.0, m - 1)
    cell = np.minimum(pos.astype(np.int64), m - 2)
    frac = pos - cell
    out = 0.0
    for di in (0, 1):
        wr = frac[:, 0] if di else 1.0 - frac[:, 0]
        for dj in (0, 1):
            wg = frac[:, 1] if dj else 1.0 - frac[:, 1]
            for dk in (0, 1):
                wb = frac[:, 2] if dk else 1.0 - frac[:, 2]
                val = grid[cell[:, 0] + di, cell[:, 1] + dj, cell[:, 2] + dk]
                out = out + (wr * wg * wb)[..., None] * val
    return np.moveaxis(out, 3, 1)


class Reference:
    """The checkpoint's model in float64: params dict, LUT grid, flow."""

    def __init__(self, params, grid, c_max, solver, steps, lam):
        self.p = {n: np.asarray(a, dtype=np.float64) for n, a in params.items()}
        self.grid = None if grid is None else np.asarray(grid, dtype=np.float64)
        self.c_max = float(c_max)
        self.solver, self.steps, self.lam = solver, int(steps), float(lam)

    def field(self, x):
        out = purify(x, self.p)
        if self.lam == 0 or self.grid is None:
            return out
        return out + self.lam * lut_apply(np.clip(x, 0.0, self.c_max),
                                          self.grid, self.c_max)

    def integrate_raw(self, x):
        """Unclamped final state after `steps` solver steps over [0, 1]."""
        dt = 1.0 / self.steps
        f = self.field
        for _ in range(self.steps):
            if self.solver == "euler":
                x = x + f(x) * dt
            elif self.solver == "midpoint":
                x = x + f(x + f(x) * (dt / 2.0)) * dt
            else:
                k1 = f(x)
                k2 = f(x + k1 * (dt / 2.0))
                k3 = f(x + k2 * (dt / 2.0))
                k4 = f(x + k3 * dt)
                x = x + (k1 + 2.0 * k2 + 2.0 * k3 + k4) * (dt / 6.0)
        return x

    def dehaze(self, x):
        return np.clip(self.integrate_raw(x), 0.0, 1.0)

    def dehaze_tiled(self, x, tile, overlap):
        """Tile, integrate and blend with complementary raised-cosine ramps."""
        _, _, h, w = x.shape
        if h <= tile and w <= tile:
            return self.dehaze(x)
        out = np.zeros_like(x)
        acc = np.zeros((h, w))
        ys, xs = tile_spans(h, tile, overlap), tile_spans(w, tile, overlap)
        for iy, (y0, y1) in enumerate(ys):
            for ix, (x0, x1) in enumerate(xs):
                wmap = np.outer(_axis_weights(ys, iy), _axis_weights(xs, ix))
                out[:, :, y0:y1, x0:x1] += self.dehaze(x[:, :, y0:y1, x0:x1]) * wmap
                acc[y0:y1, x0:x1] += wmap
        return out / acc


def tile_spans(length, tile, overlap):
    """Tiles at stride tile - overlap; the last one is right-aligned."""
    if length <= tile:
        return [(0, length)]
    starts = list(range(0, length - tile, tile - overlap)) + [length - tile]
    return [(s, s + tile) for s in starts]


def _axis_weights(spans, idx):
    start, stop = spans[idx]
    w = np.ones(stop - start)
    if idx > 0:
        n = spans[idx - 1][1] - start
        if n > 0:
            w[:n] = 0.5 * (1.0 - np.cos(np.pi * np.arange(1, n + 1) / (n + 1)))
    if idx < len(spans) - 1:
        n = stop - spans[idx + 1][0]
        if n > 0:
            w[-n:] = 0.5 * (1.0 + np.cos(np.pi * np.arange(1, n + 1) / (n + 1)))
    return w
