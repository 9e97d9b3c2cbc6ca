"""Dense-tensor engine with reverse-mode differentiation.

Tensors wrap numpy arrays (float32 by default, float64 for high-precision
gradient checks) and record a computation graph when gradients are enabled.
The operation set is exactly what the dehazing pipeline needs: elementwise
arithmetic, reductions, size-preserving 2d convolution, pooling, bilinear
upsampling, instance normalization, and a sigmoid-gated spatial attention.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .errors import GraphError, ShapeError

ArrayLike = Union[np.ndarray, float, int, Sequence]

_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))

_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording (inference mode)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev


def _as_array(data: ArrayLike, dtype=None) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is not None:
        return arr.astype(dtype, copy=False)
    if arr.dtype not in (np.float32, np.float64):
        return arr.astype(np.float32)
    return arr


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Node:
    """One vertex of the recorded graph: the gradient arriving at it, its
    parents' nodes (None for a parent that takes no gradient), the backward
    closure and the op name. A leaf's node has no parents and no op."""

    __slots__ = ("grad", "_parents", "_backward", "_op")

    def __init__(self, parents: tuple = (), backward=None, op: Optional[str] = None):
        self.grad: Optional[np.ndarray] = None
        self._parents, self._backward, self._op = parents, backward, op

    def _accumulate(self, grad: np.ndarray) -> None:
        # grads are never mutated in place after creation, so the first
        # contribution can be stored by reference
        if self.grad is None:
            self.grad = grad
        else:
            self.grad = self.grad + grad


def _on_node(name: str) -> property:
    # a Tensor attribute kept on its node, None when it has none
    def put(t, value):
        if t._node is not None:
            setattr(t._node, name, value)
        elif value is not None:
            raise GraphError(f"cannot set {name} of a tensor that takes no gradient")
    return property(lambda t: None if t._node is None else getattr(t._node, name), put)


class Tensor:
    """A numpy array and, when it takes a gradient, its graph node."""

    __slots__ = ("data", "_node")

    def __init__(self, data: ArrayLike, requires_grad: bool = False, dtype=None):
        self.data = _as_array(data, dtype)
        self._node: Optional[Node] = Node() if requires_grad else None

    grad = _on_node("grad")
    _backward = _on_node("_backward")  # settable: a tracer may wrap it

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @requires_grad.setter
    def requires_grad(self, flag: bool) -> None:
        self._node = (self._node or Node()) if flag else None

    # -- construction of graph nodes -------------------------------------

    @staticmethod
    def _result(data: np.ndarray, parents: Iterable["Tensor"], op: str,
                backward: Callable[[np.ndarray], None]) -> "Tensor":
        # the one recording rule: the result gets a node, holding its
        # parents' nodes and `backward`, iff gradients are enabled and a
        # parent requires grad. `backward` closes over nodes and the arrays
        # it reads, never a Tensor, so a dropped result's data is freed
        out = Tensor.__new__(Tensor)
        out.data = data
        nodes = tuple(p._node for p in parents)
        recorded = _grad_enabled and any(n is not None for n in nodes)
        out._node = Node(nodes, backward, op) if recorded else None
        return out

    # -- basic properties --------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"

    def zero_grad(self) -> None:
        self.grad = None

    # -- autodiff ----------------------------------------------------------

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode differentiation from this node.

        Each interior node is released once its gradient has been passed
        on: its grad, closure and parent links are dropped, so the step
        holds only what is still ahead of the walk. Leaves keep `.grad`.

        Raises GraphError when the tensor was not produced by a recorded
        computation, when no seed gradient is given for a non-scalar, or
        when the graph reaches a node an earlier backward() released.
        """
        root = self._node
        if root is None or root._op is None:
            raise GraphError(
                "backward() called on a tensor that is not connected to a "
                "recorded computation"
            )
        if grad is None:
            if self.data.size != 1:
                raise GraphError("backward() on a non-scalar requires an explicit gradient")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        # Iterative DFS: unrolled solver graphs get deep enough to overflow
        # Python's recursion limit.
        topo: list[Node] = []
        visited: set[int] = set()
        stack: list[tuple[Node, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._op is not None and node._backward is None:
                raise GraphError("backward() through a graph already used by "
                                 "an earlier backward()")
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent is not None and id(parent) not in visited:
                    stack.append((parent, False))

        root._accumulate(grad)
        while topo:
            node = topo.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._op is not None:
                node.grad = node._backward = None
                node._parents = ()

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other: ArrayLike) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def _binary(self, other, op: str, fwd, grad_a, grad_b):
        # grad_a / grad_b map (g, a, b) to each operand's gradient before it
        # is summed down to the operand's shape; a and b are None unless a
        # gradient reads them (mul's: a's gradient reads b, and b's reads a)
        other = self._coerce(other)
        na, nb = self._node, other._node
        sa, sb = self.data.shape, other.data.shape
        a = self.data if op == "mul" and nb is not None else None
        b = other.data if op == "mul" and na is not None else None

        def _bwd(g):
            if na is not None:
                na._accumulate(_unbroadcast(grad_a(g, a, b), sa))
            if nb is not None:
                nb._accumulate(_unbroadcast(grad_b(g, a, b), sb))
        return Tensor._result(fwd(self.data, other.data), (self, other), op, _bwd)

    def __add__(self, other):
        return self._binary(other, "add", operator.add,
                            lambda g, a, b: g, lambda g, a, b: g)

    def __sub__(self, other):
        return self._binary(other, "sub", operator.sub,
                            lambda g, a, b: g, lambda g, a, b: -g)

    def __mul__(self, other):
        return self._binary(other, "mul", operator.mul,
                            lambda g, a, b: g * b, lambda g, a, b: g * a)

    # -- elementwise nonlinearities ------------------------------------------

    def abs(self):
        n, d = self._node, self.data
        return Tensor._result(np.abs(d), (self,), "abs",
                              lambda g: n._accumulate(g * np.sign(d)))

    def clamp(self, lo: float, hi: float):
        def _bwd(g, n=self._node, d=self.data):
            inside = (d >= lo) & (d <= hi)
            n._accumulate(g * inside.astype(d.dtype))
        return Tensor._result(np.clip(self.data, lo, hi), (self,), "clamp", _bwd)

    def sigmoid(self):
        x = self.data
        e = np.exp(-np.abs(x))
        d = 1.0 + e
        s = np.where(x >= 0, 1.0 / d, e / d)
        s, n = s.astype(x.dtype, copy=False), self._node
        return Tensor._result(s, (self,), "sigmoid",
                              lambda g: n._accumulate(g * s * (1.0 - s)))

    # -- reductions ------------------------------------------------------------

    def sum(self):
        n, shape, dtype = self._node, self.data.shape, self.data.dtype
        return Tensor._result(np.asarray(self.data.sum(), dtype=dtype), (self,), "sum",
                              lambda g: n._accumulate(np.broadcast_to(
                                  g, shape).astype(dtype, copy=False)))

    def mean(self):
        n, shape, dtype, size = self._node, self.data.shape, self.data.dtype, self.data.size
        return Tensor._result(np.asarray(self.data.mean(), dtype=dtype), (self,), "mean",
                              lambda g: n._accumulate(np.broadcast_to(
                                  g / size, shape).astype(dtype, copy=False)))


# ---------------------------------------------------------------------------
# neural-network operations
# ---------------------------------------------------------------------------


def gelu(x: Tensor) -> Tensor:
    """GELU: x * Phi(x), the Gaussian CDF Phi from erfc, which keeps the far
    negative tail where 1 + erf(x) would cancel to zero. Float64, the gradient
    checks' oracle, uses scipy's erfc; float32 is within 4e-7 * |x| of it."""
    d = x.data
    if d.dtype == np.float32:
        out, cdf = _gelu32(d, _grad_enabled and x._node is not None)
    else:
        from scipy.special import erfc  # only here: float32 runs never load scipy
        cdf = 0.5 * erfc(d * -_INV_SQRT2)
        out = d * cdf

    def _bwd(g, n=x._node):
        with np.errstate(over="ignore"):  # d*d is inf past |x| ~ 1.8e19 in float32: pdf 0
            pdf = _INV_SQRT_2PI * np.exp(-0.5 * d * d)
        n._accumulate(g * (cdf + d * pdf.astype(d.dtype, copy=False)))
    return Tensor._result(out, (x,), "gelu", _bwd)


# Element budget of one strip's column buffer: 1 MB of float32, so a
# strip stays in one core's L2 cache between its copy and its GEMM.
_STRIP_ELEMS = 1 << 18

# Numerical Recipes' erfcc (section 6.2): erfc(z) = t exp(-z*z + P(t)) to 1.2e-7,
# t = 1 / (1 + z/2). P highest power first, scaled so that h = u exp(-z*z + P(u))
# is erfc(z) / 2 for u = t / 2
_ERFCC = tuple(c * 2.0 ** (9 - i) for i, c in enumerate((
    0.17087277, -0.82215223, 1.48851587, -1.13520398, 0.27886807, -0.18628806,
    0.09678418, 0.37409196, 1.00002368, -1.26551223)))


@np.errstate(over="ignore")  # x*x is inf past |x| ~ 1.8e19, and then h = 0
def _gelu32(d: np.ndarray, keep_cdf: bool):
    # x * Phi(x), and Phi or None; Phi = 1 - h where x's sign bit is clear, else h
    flat, out = d.reshape(-1), np.empty(d.size, np.float32)
    cdf = np.empty_like(out) if keep_cdf else None
    bufs = np.empty((4, min(flat.size, _STRIP_ELEMS // 4) or 1), np.float32)  # 1 MB
    for i in range(0, flat.size, bufs.shape[1]):
        x = flat[i:i + bufs.shape[1]]
        s, z, u, h = bufs[:, :x.size]
        np.multiply(x, -_INV_SQRT2, out=s)  # erfc's argument
        np.divide(1.0, np.add(np.abs(s, out=u), 2.0, out=u), out=u)
        h[:] = _ERFCC[0]
        for c in _ERFCC[1:]:
            h *= u
            h += c
        h -= np.multiply(np.square(x, out=z), 0.5, out=z)  # z*z, one rounding
        np.multiply(np.exp(h, out=h), u, out=h)
        phi = h if cdf is None else cdf[i:i + x.size]
        np.add(np.copysign(h, s, out=h), np.signbit(s, out=z), out=phi)
        np.multiply(x, phi, out=out[i:i + x.size])
    return out.reshape(d.shape), None if cdf is None else cdf.reshape(d.shape)


def _column_blocks(x: np.ndarray, k: int):
    # im2col of a (B, C, H, W) input zero-padded by k // 2 on each side, in
    # strips of output rows: yields (r0, r1, cols) with cols the
    # (B, C*k*k, (r1-r0)*W) columns of output rows r0:r1 (odd k: the output
    # is H x W). A strip's padded rows are staged in a slab that rolls down
    # the image, so no padded copy of the input is made; the slab and the
    # column buffer are reused, so each strip must be consumed before the next.
    b, c, h, w = x.shape
    pad, n_col = k // 2, c * k * k
    rows = max(1, min(h, _STRIP_ELEMS // (b * n_col * w)))
    # slab row i holds input row r0 + i - pad; rows above the image are
    # only ever zero, rows below it are zeroed as the slab reaches them
    slab = np.zeros((b, c, rows + k - 1, w + 2 * pad), dtype=x.dtype)
    s0, s1, s2, s3 = slab.strides
    win = np.lib.stride_tricks.as_strided(
        slab, (b, c, k, k, rows, w), (s0, s1, s2, s3, s2, s3), writeable=False)
    buf = np.empty(b * n_col * rows * w, dtype=x.dtype)
    for r0 in range(0, h, rows):
        r1 = min(r0 + rows, h)
        n, top = r1 - r0 + k - 1, 0
        if r0:  # the k-1 rows shared with the last strip move up
            slab[:, :, :k - 1] = slab[:, :, rows:rows + k - 1]
            top = k - 1
        i0 = max(r0 + top - pad, 0)
        i1 = max(min(r0 + n - pad, h), i0)
        slab[:, :, i0 - r0 + pad:i1 - r0 + pad, pad:pad + w] = x[:, :, i0:i1]
        slab[:, :, max(i1 - r0 + pad, top):n] = 0
        cols = buf[:b * n_col * (r1 - r0) * w].reshape(b, c, k, k, r1 - r0, w)
        np.copyto(cols, win[:, :, :, :, :r1 - r0])
        yield r0, r1, cols.reshape(b, n_col, (r1 - r0) * w)


def _correlate(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    # stride-1 "same" cross-correlation of (B, C, H, W) with (O, C, k, k):
    # one BLAS gemm per strip and batch item, into the output
    b, _, h, w = x.shape
    c_out, _, k, _ = kernel.shape
    out = np.empty((b, c_out, h * w), dtype=np.result_type(x, kernel))
    w2 = kernel.reshape(c_out, -1)
    for r0, r1, cols in _column_blocks(x, k):
        np.matmul(w2, cols, out=out[:, :, r0 * w:r1 * w])
    return out.reshape(b, c_out, h, w)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """2d cross-correlation plus a per-channel bias, stride 1, with a square
    odd-sided kernel zero-padded by k // 2, so the output keeps the input's size.

    The input gradient is the transposed convolution: the output gradient,
    padded by k // 2 as well, correlated with the flipped, channel-swapped
    kernel. No padded copy of an array is made: the strips pad as they go.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d expects a rank-4 input, got shape {x.shape}")
    kshape = weight.data.shape
    if len(kshape) != 4 or kshape[2] != kshape[3] or kshape[2] % 2 == 0:
        raise ShapeError(f"conv2d expects a square odd-sided rank-4 kernel, got shape {kshape}")
    b, c_in, h, w = x.data.shape
    c_out, c_k, k, _ = kshape
    if c_k != c_in:
        raise ShapeError(
            f"kernel expects {c_k} input channels, input has {c_in}")
    if h < 1 or w < 1:
        raise ShapeError(f"conv2d input has an empty spatial axis: {h}x{w}")

    out_data = _correlate(x.data, weight.data)
    out_data += bias.data.reshape(1, c_out, 1, 1)

    def _bwd(g, xd=x.data, wd=weight.data, nx=x._node, nw=weight._node, nb=bias._node):
        if nw is not None:
            # the same strips as the forward, built again: the graph keeps
            # neither the columns nor a padded copy of the input
            g2 = g.reshape(b, c_out, -1)
            gw = np.zeros((c_out, c_in * k * k), dtype=g.dtype)
            for r0, r1, cols in _column_blocks(xd, k):
                gs = g2[:, :, r0 * w:r1 * w]
                gw += np.matmul(gs, cols.transpose(0, 2, 1)).sum(axis=0)
            nw._accumulate(gw.reshape(kshape))
        if nb is not None:
            nb._accumulate(g.sum(axis=(0, 2, 3)))
        if nx is not None:
            nx._accumulate(_correlate(g, wd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)))

    return Tensor._result(out_data, (x, weight, bias), "conv2d", _bwd)


# the positions of a 2x2 pooling window, in row-major (tie-breaking) order
_WINDOW = ((0, 0), (0, 1), (1, 0), (1, 1))


def maxpool2d(x: Tensor) -> Tensor:
    """2x2/stride-2 max pooling.

    Odd spatial sizes are replication-padded to even first; gradient goes
    to the first maximal element of each window in row-major order.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2d expects a rank-4 input, got shape {x.shape}")
    h, w = x.data.shape[2:]
    pad_h, pad_w = h % 2, w % 2
    xp = np.pad(x.data, ((0, 0), (0, 0), (0, pad_h), (0, pad_w)), mode="edge") \
        if (pad_h or pad_w) else x.data
    quads = [xp[:, :, r::2, s::2] for r, s in _WINDOW]
    out_data = np.maximum(quads[0], quads[1])
    np.maximum(out_data, quads[2], out=out_data)
    np.maximum(out_data, quads[3], out=out_data)

    def _bwd(g, n=x._node):
        # the first maximal element of each window takes the gradient
        gp = np.zeros(xp.shape, dtype=g.dtype)
        free = np.ones(g.shape, dtype=bool)
        for (r, s), q in zip(_WINDOW, quads):
            hit = (q == out_data) & free
            gp[:, :, r::2, s::2] = np.where(hit, g, 0)
            free &= ~hit
        if pad_h:
            gp[:, :, h - 1, :] += gp[:, :, h, :]
        if pad_w:
            gp[:, :, :, w - 1] += gp[:, :, :, w]
        n._accumulate(np.ascontiguousarray(gp[:, :, :h, :w]))
    return Tensor._result(out_data, (x,), "maxpool2d", _bwd)


def _upsample2x_axis(x: np.ndarray, axis: int) -> np.ndarray:
    # align_corners=False at scale 2 has fixed taps: out[2i] =
    # x[i-1]/4 + 3x[i]/4, out[2i+1] = 3x[i]/4 + x[i+1]/4; the first and
    # last outputs copy the edge samples
    shape = list(x.shape)
    shape[axis] *= 2
    out = np.empty(shape, dtype=x.dtype)
    src, dst = np.moveaxis(x, axis, 0), np.moveaxis(out, axis, 0)
    q, t = x.dtype.type(0.25), x.dtype.type(0.75)
    dst[0], dst[-1] = src[0], src[-1]
    dst[2::2] = src[:-1] * q + src[1:] * t
    dst[1:-1:2] = src[:-1] * t + src[1:] * q
    return out


def _upsample2x_axis_adjoint(g: np.ndarray, axis: int) -> np.ndarray:
    # transpose of _upsample2x_axis: input i takes 3/4 of outputs 2i, 2i+1
    # and 1/4 of outputs 2i-1, 2i+2, the edge outputs standing in for those
    # past the ends
    src = np.moveaxis(g, axis, 0)
    q, t = g.dtype.type(0.25), g.dtype.type(0.75)
    gx = (src[0::2] + src[1::2]) * t
    gx[1:] += src[1:-1:2] * q
    gx[:-1] += src[2::2] * q
    gx[0] += src[0] * q
    gx[-1] += src[-1] * q
    return np.ascontiguousarray(np.moveaxis(gx, 0, axis))


def upsample_bilinear2x(x: Tensor) -> Tensor:
    """Bilinear 2x spatial upsampling, align_corners=False."""
    if x.data.ndim != 4:
        raise ShapeError(f"upsample expects a rank-4 input, got shape {x.shape}")
    out_data, n = _upsample2x_axis(_upsample2x_axis(x.data, 2), 3), x._node
    return Tensor._result(out_data, (x,), "upsample_bilinear2x", lambda g: n._accumulate(
        _upsample2x_axis_adjoint(_upsample2x_axis_adjoint(g, 3), 2)))


def instance_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-(batch, channel) normalization with learnable per-channel affine.

    Zero-variance channels (including the degenerate 1x1 spatial case) are
    guarded by an eps of 1e-5 and normalize to zero, so the output
    collapses to the affine bias there.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"instance_norm expects a rank-4 input, got shape {x.shape}")
    b, c, h, w = x.data.shape
    if gain.data.shape != (c,) or bias.data.shape != (c,):
        raise ShapeError(f"gain/bias must have shape ({c},)")

    mu = x.data.mean(axis=(2, 3), keepdims=True)
    var = x.data.var(axis=(2, 3), keepdims=True, mean=mu)
    inv = 1.0 / np.sqrt(var + 1e-5)
    inv = inv.astype(x.data.dtype, copy=False)
    out_data = x.data - mu  # ((x - mu) * inv) * gain + bias, in one buffer
    out_data *= inv
    out_data *= gain.data.reshape(1, c, 1, 1)
    out_data += bias.data.reshape(1, c, 1, 1)

    def _bwd(g, xd=x.data, gd=gain.data, nx=x._node, ng=gain._node, nb=bias._node):
        # the normalised input again, from the (B, C, 1, 1) statistics
        yv = (xd - mu) * inv
        if ng is not None:
            ng._accumulate((g * yv).sum(axis=(0, 2, 3)))
        if nb is not None:
            nb._accumulate(g.sum(axis=(0, 2, 3)))
        if nx is not None:
            gy = g * gd.reshape(1, c, 1, 1)
            m1 = gy.mean(axis=(2, 3), keepdims=True)
            m2 = (gy * yv).mean(axis=(2, 3), keepdims=True)
            nx._accumulate(inv * (gy - m1 - yv * m2))
    return Tensor._result(out_data, (x, gain, bias), "instance_norm", _bwd)


def concat_channels(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate rank-4 tensors along the channel axis."""
    for t in tensors:
        if t.data.ndim != 4:
            raise ShapeError("concat_channels expects rank-4 tensors")
    out_data = np.concatenate([t.data for t in tensors], axis=1)
    nodes, widths = [t._node for t in tensors], [t.data.shape[1] for t in tensors]

    def _bwd(g):
        offs = np.cumsum([0] + widths)
        for n, o0, o1 in zip(nodes, offs[:-1], offs[1:]):
            if n is not None:
                n._accumulate(np.ascontiguousarray(g[:, o0:o1]))
    return Tensor._result(out_data, tensors, "concat", _bwd)


def crop2d(x: Tensor, height: int, width: int) -> Tensor:
    """Crop the trailing spatial rows/columns down to (height, width)."""
    b, c, h, w = x.data.shape
    if height > h or width > w:
        raise ShapeError(f"cannot crop {h}x{w} up to {height}x{width}")
    if height == h and width == w:
        return x

    def _bwd(g, n=x._node, dtype=x.data.dtype):
        gx = np.zeros((b, c, h, w), dtype=dtype)
        gx[:, :, :height, :width] = g
        n._accumulate(gx)
    return Tensor._result(np.ascontiguousarray(x.data[:, :, :height, :width]), (x,),
                          "crop2d", _bwd)


def spatial_attention(features: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Sigmoid gate from a 3x3 conv, broadcast-multiplied onto the features."""
    gate = conv2d(features, weight, bias)
    if gate.shape[1] != 1:
        raise ShapeError("attention conv must produce a single-channel map")
    return features * gate.sigmoid()
