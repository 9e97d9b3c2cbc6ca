"""Learnable 3D lookup table for adaptive color correction.

The table is an MxMxM lattice of output RGB triples. Applying it looks up
each pixel's cell and blends the 8 surrounding vertices with trilinear
weights; both the input image and the lattice receive gradients.

Two index conventions coexist deliberately. `lattice_coords` exposes the
raw coordinate map value/(C_max/M), clamped into [0, M-1] so the top cell
exists. `trilinear_apply` indexes with scale (M-1)/C_max, which is the
convention under which an identity-initialized lattice reproduces its
input exactly (including at value C_max) and any lattice linear in the
index is interpolated exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, LatticeRangeError, ShapeError
from .tensor import Tensor

_RANGE_TOL = 1e-6
_LUMA = (0.299, 0.587, 0.114)


class Lut3D:
    """MxMxM lattice of output RGB values, learnable via its grid tensor."""

    def __init__(self, grid: Tensor, c_max: float = 1.0):
        data = grid.data
        if data.ndim != 4 or data.shape[3] != 3 or not (
                data.shape[0] == data.shape[1] == data.shape[2]):
            raise ShapeError(f"LUT grid must be (M, M, M, 3), got {data.shape}")
        if data.shape[0] < 2:
            raise ShapeError("LUT needs at least 2 bins per channel")
        if c_max != 1.0:  # every LUT spans [0, 1]; c_max stays for format 1's header
            raise ConfigError(f"LUT range c_max {c_max} is not 1.0")
        self.grid = grid
        self.c_max = float(c_max)

    @property
    def m(self) -> int:
        return self.grid.data.shape[0]


def identity_lut(m: int = 33, dtype=np.float32, requires_grad: bool = True) -> Lut3D:
    """Lattice over [0, 1] whose vertex (i, j, k) stores (i, j, k) / (M - 1)."""
    if m < 2:
        raise ConfigError("a LUT needs at least 2 bins per channel")
    axis = np.arange(m, dtype=dtype) * (1.0 / (m - 1))
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    return Lut3D(Tensor(grid.astype(dtype), requires_grad=requires_grad))


def fixed_contrast_saturation_lut(m: int = 33, alpha: float = 1.2,
                                  beta: float = 1.2) -> Lut3D:
    """Non-learnable float32 lattice applying contrast then saturation enhancement.

    On normalized colors: c <- clamp((c - 0.5) * alpha + 0.5), then
    c <- clamp(L + beta * (c - L)) with L the Rec.601 luma.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    colors = identity_lut(m, dtype=np.float64, requires_grad=False).grid.data
    colors = np.clip((colors - 0.5) * alpha + 0.5, 0.0, 1.0)
    luma = (_LUMA[0] * colors[..., 0] + _LUMA[1] * colors[..., 1]
            + _LUMA[2] * colors[..., 2])[..., None]
    colors = np.clip(luma + beta * (colors - luma), 0.0, 1.0)
    return Lut3D(Tensor(colors.astype(np.float32), requires_grad=False))


def lattice_coords(rgb, lut: Lut3D) -> tuple[float, float, float]:
    """Continuous lattice coordinates of one RGB triple: value / (C_max / M).

    Raw coordinates reach M at value C_max; they are clamped into
    [0, M-1] so the enclosing interpolation cell always exists.
    """
    rgb = np.asarray(rgb, dtype=np.float64)
    if rgb.shape != (3,):
        raise ShapeError(f"expected an RGB triple, got shape {rgb.shape}")
    if np.any(rgb < -_RANGE_TOL) or np.any(rgb > lut.c_max + _RANGE_TOL):
        raise LatticeRangeError(
            f"components {rgb} outside [0, {lut.c_max}]; clamp the image first")
    coords = np.clip(rgb * (lut.m / lut.c_max), 0.0, lut.m - 1)
    return float(coords[0]), float(coords[1]), float(coords[2])


# the 8 cell corners in row-major (di, dj, dk) order: the order of the sum
_CORNERS = [(di, dj, dk) for di in (0, 1) for dj in (0, 1) for dk in (0, 1)]
_SIGN = (-1.0, 1.0)


def _axis_weights(frac):
    # per colour axis: (weight of the low corner, weight of the high corner)
    return [(1.0 - f, f) for f in (frac[:, 0], frac[:, 1], frac[:, 2])]


def trilinear_apply(x: Tensor, lut: Lut3D) -> Tensor:
    """Map every pixel through the lattice with trilinear interpolation.

    Differentiable with respect to both the image and the grid; grid
    gradients scatter onto the 8 cell corners with the interpolation
    weights. A corner is one flat index, the cell's base index plus a
    constant offset, gathered by `np.take` from a channel-major (3, M^3)
    copy of the grid and accumulated in place into the (B, 3, H, W) output.
    """
    if x.data.ndim != 4 or x.data.shape[1] != 3:
        raise ShapeError(f"expected a (B, 3, H, W) image, got {x.shape}")
    data = x.data
    # NaN fails both comparisons and is rejected with the out-of-range values
    if not (data.min() >= -_RANGE_TOL and data.max() <= lut.c_max + _RANGE_TOL):
        raise LatticeRangeError(
            f"image values [{data.min():.4g}, {data.max():.4g}] outside "
            f"[0, {lut.c_max}]; clamp before applying the LUT")

    m = lut.m
    grid = lut.grid
    scale = (m - 1) / lut.c_max
    pos = np.clip(data.astype(np.float64) * scale, 0.0, m - 1)  # (B, 3, H, W)
    cell = np.minimum(pos.astype(np.int64), m - 2)
    frac = (pos - cell).astype(data.dtype)
    base = (cell[:, 0] * m + cell[:, 1]) * m + cell[:, 2]  # (B, H, W)
    offsets = [(di * m + dj) * m + dk for di, dj, dk in _CORNERS]
    # in the dtype of weight * value, so each term is the same product
    table = np.moveaxis(grid.data, 3, 0).reshape(3, m ** 3).astype(
        np.result_type(frac, grid.data))

    lo_hi = _axis_weights(frac)
    out_data = np.empty(data.shape, dtype=table.dtype)
    acc = out_data.transpose(1, 0, 2, 3)  # (3, B, H, W) view
    vals = np.empty(acc.shape, dtype=table.dtype)
    for n, ((di, dj, dk), off) in enumerate(zip(_CORNERS, offsets)):
        np.take(table, base + off, axis=1, out=vals, mode="clip")
        w = lo_hi[0][di] * lo_hi[1][dj] * lo_hi[2][dk]
        if n == 0:
            np.multiply(vals, w, out=acc)
        else:
            acc += np.multiply(vals, w, out=vals)

    def _bwd(g, nx=x._node, ng=grid._node, grid_dtype=grid.data.dtype):
        lo_hi = _axis_weights(frac)
        if ng is not None:
            # one float64 bincount per colour channel over all 8 corners
            lins = np.concatenate([(base + off).ravel() for off in offsets])
            ws = np.stack([lo_hi[0][di] * lo_hi[1][dj] * lo_hi[2][dk]
                           for di, dj, dk in _CORNERS])  # (8, B, H, W)
            gg = np.stack([np.bincount(lins, (ws * g[:, ch]).ravel(), m ** 3)
                           for ch in range(3)], axis=-1)
            ng._accumulate(gg.astype(grid_dtype).reshape(m, m, m, 3))
        if nx is not None:
            # a corner's weight has partial +-wg*wb in r (likewise g, b);
            # each weighs the corner's value dotted with the output grad
            gc = g.transpose(1, 0, 2, 3)
            gx = np.zeros(g.shape, dtype=np.float64)
            gxc = gx.transpose(1, 0, 2, 3)  # (3, B, H, W) view
            for (di, dj, dk), off in zip(_CORNERS, offsets):
                s = (np.take(table, base + off, axis=1, mode="clip") * gc).sum(axis=0)
                wr, wg, wb = lo_hi[0][di], lo_hi[1][dj], lo_hi[2][dk]
                gxc[0] += _SIGN[di] * wg * wb * s
                gxc[1] += wr * _SIGN[dj] * wb * s
                gxc[2] += wr * wg * _SIGN[dk] * s
            nx._accumulate((gx * scale).astype(frac.dtype, copy=False))
    return Tensor._result(out_data.astype(data.dtype, copy=False), (x, grid),
                          "trilinear_apply", _bwd)


def export_cube(lut: Lut3D, path) -> None:
    """Write the lattice as a plain-text table, blue index varying fastest."""
    m = lut.m
    grid = lut.grid.data
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"LUT_3D_SIZE {m}\n")
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    r, g, b = grid[i, j, k]
                    fh.write(f"{r:.8f} {g:.8f} {b:.8f}\n")
