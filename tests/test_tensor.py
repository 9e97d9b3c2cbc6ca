"""Tensor engine: forward semantics of every op plus gradient fidelity."""

import operator
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hazeflow.errors import GraphError, ShapeError
from hazeflow import tensor as tensor_mod
from hazeflow.gradcheck import check_gradients
from hazeflow.lut import Lut3D, trilinear_apply
from hazeflow.tensor import (Tensor, concat_channels, conv2d, crop2d, gelu,
                             instance_norm, maxpool2d, no_grad,
                             spatial_attention, upsample_bilinear2x)


def tensor(rng, shape, lo=-1.0, hi=1.0, requires_grad=True):
    return Tensor(rng.uniform(lo, hi, shape).astype(np.float32),
                  requires_grad=requires_grad)


def zero_bias(c_out):
    return Tensor(np.zeros(c_out, dtype=np.float32))


class TestConv2d:
    def test_1x1_identity(self, rng):
        x = tensor(rng, (2, 3, 5, 7))
        w = Tensor(np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1))
        out = conv2d(x, w, zero_bias(3))
        np.testing.assert_array_equal(out.data, x.data)

    def test_3x3_ones_kernel_center_sum(self):
        # zero padding: the centre sees all nine ones, a corner four
        x = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        out = conv2d(x, w, zero_bias(1))
        assert out.shape == (1, 1, 3, 3)
        assert out.data[0, 0, 1, 1] == pytest.approx(9.0)
        assert out.data[0, 0, 0, 0] == pytest.approx(4.0)

    def test_zero_kernel_bias_only(self, rng):
        x = tensor(rng, (1, 3, 4, 4))
        w = Tensor(np.zeros((2, 3, 3, 3), dtype=np.float32))
        b = Tensor(np.array([0.25, -1.5], dtype=np.float32))
        out = conv2d(x, w, b)
        assert np.all(out.data[0, 0] == np.float32(0.25))
        assert np.all(out.data[0, 1] == np.float32(-1.5))

    def test_channel_mismatch_raises(self, rng):
        x = tensor(rng, (1, 3, 4, 4))
        w = tensor(rng, (2, 4, 3, 3))
        with pytest.raises(ShapeError):
            conv2d(x, w, zero_bias(2))

    def test_non_square_kernel_raises(self, rng):
        # the padding k // 2 keeps the size only for square odd-sided kernels
        for kshape in [(2, 3, 3, 1), (2, 3, 2, 2), (2, 3, 3)]:
            with pytest.raises(ShapeError, match="square odd-sided"):
                conv2d(tensor(rng, (1, 3, 4, 4)), tensor(rng, kshape), zero_bias(2))

    def test_empty_spatial_axis_raises(self, rng):
        with pytest.raises(ShapeError, match="empty"):
            conv2d(tensor(rng, (1, 3, 0, 4)), tensor(rng, (2, 3, 3, 3)), zero_bias(2))

    def test_same_padding_preserves_size(self, rng):
        x = tensor(rng, (1, 3, 11, 13))
        for k in (1, 3, 5):
            assert conv2d(x, tensor(rng, (5, 3, k, k)), zero_bias(5)).shape == (1, 5, 11, 13)


class TestGelu:
    def test_zero(self):
        out = gelu(Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32)))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_one(self):
        # x * Phi(x) at 1, via an independent erf evaluation
        out = gelu(Tensor(np.full((1,), 1.0, dtype=np.float64)))
        assert out.data[0] == pytest.approx(0.8413447460685429, abs=1e-9)

    def test_far_negative_tail(self):
        out = gelu(Tensor(np.full((1,), -10.0, dtype=np.float64)))
        assert -1e-3 < float(out.data[0]) < 0.0

    @staticmethod
    def _erfc_gelu(d):
        # the float64 path's expression, and the float32 path's before the
        # erfcc polynomial: x * erfc(-x / sqrt 2) / 2 in d's dtype
        from scipy.special import erfc
        cdf = np.multiply(d, -float(1.0 / np.sqrt(2.0)))
        erfc(cdf, out=cdf)
        cdf *= 0.5
        return d * cdf

    def test_float32_within_4e7_of_float64(self, rng):
        # 2^22 + 7 sweep points: the last block is a partial one
        x = np.concatenate([np.linspace(-20, 20, (1 << 22) + 7),
                            rng.standard_normal(1 << 20)]).astype(np.float32)
        assert x.size % (tensor_mod._STRIP_ELEMS // 4)
        want = self._erfc_gelu(x.astype(np.float64))
        out = gelu(Tensor(x)).data
        assert out.dtype == np.float32
        assert np.all(np.abs(out - want) <= 4e-7 * np.abs(x.astype(np.float64)))

    def test_float32_recorded_and_unrecorded_agree(self, rng):
        # the recorded path keeps Phi for the backward: g * (Phi + x * pdf)
        x = Tensor(rng.standard_normal((3, 5, 7, 11)).astype(np.float32) * 3,
                   requires_grad=True)
        with no_grad():
            plain = gelu(x).data
        out = gelu(x)
        np.testing.assert_array_equal(out.data, plain)
        out.backward(np.ones_like(out.data))
        d = x.data.astype(np.float64)
        cdf = self._erfc_gelu(d) / np.where(d == 0, 1, d)
        want = cdf + d * np.exp(-0.5 * d * d) / np.sqrt(2 * np.pi)
        np.testing.assert_allclose(x.grad, want, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_special_values_are_unchanged(self, dtype):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype=dtype)
        with np.errstate(invalid="ignore"):  # -inf * 0
            out, want = gelu(Tensor(x)).data, self._erfc_gelu(x)
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(np.signbit(out), np.signbit(want))

    def test_float64_is_scipy_erfc_bit_for_bit(self, rng):
        x = np.concatenate([rng.standard_normal(1 << 16) * 4,
                            np.linspace(-40, 40, 1001), [1e300, -1e300]])
        np.testing.assert_array_equal(gelu(Tensor(x)).data, self._erfc_gelu(x))

    def test_float32_finite_range_warns_nothing(self):
        mags = np.geomspace(1e-45, np.finfo(np.float32).max, 4001, dtype=np.float64)
        x = np.concatenate([mags, -mags, [np.finfo(np.float32).max,
                                          -np.finfo(np.float32).max]]).astype(np.float32)
        assert np.all(np.isfinite(x))
        with np.errstate(over="warn", invalid="warn", divide="warn"), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            out = gelu(Tensor(x)).data
        assert np.all(np.isfinite(out))

    def test_float32_backward_past_the_square_overflow_warns_nothing(self):
        # 3e19 squared overflows float32, so the pdf's exponent is -inf
        grads = []
        for dtype in (np.float32, np.float64):
            x = Tensor(np.array([3e19, -1.0], dtype=dtype), requires_grad=True)
            with np.errstate(over="warn", invalid="warn", divide="warn"), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")
                gelu(x).backward(np.ones(2, dtype=dtype))
            grads.append(x.grad)
        assert grads[0][0] == grads[1][0] == 1.0
        np.testing.assert_allclose(grads[0], grads[1], rtol=0, atol=1e-6)


class TestMaxpool:
    def test_constant(self):
        x = Tensor(np.full((1, 2, 6, 6), 0.7, dtype=np.float32))
        out = maxpool2d(x)
        assert out.shape == (1, 2, 3, 3)
        assert np.all(out.data == np.float32(0.7))

    def test_window_max(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32),
                   requires_grad=True)
        out = maxpool2d(x)
        assert out.data[0, 0, 0, 0] == 4.0

    def test_tie_gradient_goes_to_first_element(self):
        # row-major order: (0,0), (0,1), (1,0), (1,1)
        for window, taker in (([[5.0, 5.0], [5.0, 5.0]], (0, 0)),
                              ([[1.0, 5.0], [5.0, 2.0]], (0, 1)),
                              ([[3.0, 1.0], [3.0, 3.0]], (0, 0)),
                              ([[0.0, 1.0], [4.0, 4.0]], (1, 0)),
                              ([[2.0, 1.0], [0.0, 3.0]], (1, 1))):
            x = Tensor(np.array(window, dtype=np.float32).reshape(1, 1, 2, 2),
                       requires_grad=True)
            maxpool2d(x).sum().backward()
            expected = np.zeros((2, 2), dtype=np.float32)
            expected[taker] = 1.0
            np.testing.assert_array_equal(x.grad[0, 0], expected)

    def test_tie_on_replicated_edge(self):
        # 3x3: the last row and column are replicated, so every edge window
        # ties a pixel with its copy (the corner window is four copies of
        # x[2, 2]); each window still passes its gradient back once
        x = Tensor(np.array([[1.0, 0.0, 7.0],
                             [0.0, 2.0, 1.0],
                             [9.0, 3.0, 8.0]],
                            dtype=np.float32).reshape(1, 1, 3, 3),
                   requires_grad=True)
        out = maxpool2d(x)
        np.testing.assert_array_equal(out.data[0, 0], [[2.0, 7.0], [9.0, 8.0]])
        out.backward(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32))
        np.testing.assert_array_equal(
            x.grad[0, 0], [[0.0, 0.0, 2.0], [0.0, 1.0, 0.0], [3.0, 0.0, 4.0]])

    def test_odd_size_replication(self):
        x = Tensor(np.arange(15, dtype=np.float32).reshape(1, 1, 3, 5))
        out = maxpool2d(x)
        assert out.shape == (1, 1, 2, 3)
        # bottom-right window consists of replicated last row/column
        assert out.data[0, 0, 1, 2] == 14.0


class TestUpsample:
    def test_constant(self):
        x = Tensor(np.full((1, 3, 2, 2), 0.3, dtype=np.float32))
        out = upsample_bilinear2x(x)
        assert out.shape == (1, 3, 4, 4)
        np.testing.assert_allclose(out.data, 0.3, rtol=1e-6)

    def test_interior_sample_positions(self):
        x = Tensor(np.array([[[[0.0, 1.0]]]], dtype=np.float32))
        out = upsample_bilinear2x(x)
        np.testing.assert_allclose(out.data[0, 0, :, :],
                                   [[0.0, 0.25, 0.75, 1.0]] * 2, atol=1e-7)

    def test_roundtrip_with_maxpool_on_constant(self):
        x = Tensor(np.full((1, 2, 4, 4), 0.6, dtype=np.float32))
        out = maxpool2d(upsample_bilinear2x(x))
        np.testing.assert_allclose(out.data, x.data, rtol=1e-6)


class TestInstanceNorm:
    def test_constant_channel_normalizes_to_zero(self):
        x = Tensor(np.full((1, 2, 4, 4), 3.3, dtype=np.float32))
        gain = Tensor(np.ones(2, dtype=np.float32))
        bias = Tensor(np.zeros(2, dtype=np.float32))
        out = instance_norm(x, gain, bias)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_post_norm_mean_is_zero(self, rng):
        x = tensor(rng, (2, 3, 6, 6))
        gain = Tensor(np.ones(3, dtype=np.float32))
        bias = Tensor(np.zeros(3, dtype=np.float32))
        out = instance_norm(x, gain, bias)
        means = out.data.mean(axis=(2, 3))
        assert np.abs(means).max() < 1e-5

    def test_zero_gain_collapses_to_bias(self, rng):
        x = tensor(rng, (1, 2, 4, 4))
        gain = Tensor(np.zeros(2, dtype=np.float32))
        bias = Tensor(np.array([0.9, -0.4], dtype=np.float32))
        out = instance_norm(x, gain, bias)
        assert np.all(out.data[0, 0] == np.float32(0.9))
        assert np.all(out.data[0, 1] == np.float32(-0.4))


class TestSpatialAttention:
    def test_zero_weights_halve_features(self, rng):
        feats = tensor(rng, (1, 4, 5, 5))
        w = Tensor(np.zeros((1, 4, 3, 3), dtype=np.float32))
        b = Tensor(np.zeros(1, dtype=np.float32))
        out = spatial_attention(feats, w, b)
        np.testing.assert_allclose(out.data, 0.5 * feats.data, rtol=1e-6)

    def test_gate_strictly_inside_unit_interval(self, rng):
        feats = Tensor(np.ones((1, 2, 4, 4), dtype=np.float32))
        w = tensor(rng, (1, 2, 3, 3), lo=-3, hi=3)
        b = tensor(rng, (1,))
        out = spatial_attention(feats, w, b)
        assert np.all(out.data > 0.0) and np.all(out.data < 1.0)

    def test_zero_features(self, rng):
        feats = Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
        w = tensor(rng, (1, 3, 3, 3))
        b = tensor(rng, (1,))
        out = spatial_attention(feats, w, b)
        np.testing.assert_array_equal(out.data, 0.0)


class TestBackward:
    def test_sum_gradient_is_ones(self, rng):
        x = tensor(rng, (2, 3, 4, 4))
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones_like(x.data))

    def test_sum_of_squares(self):
        x = Tensor(np.array([3.0], dtype=np.float32), requires_grad=True)
        (x * x).sum().backward()
        assert x.grad[0] == pytest.approx(6.0)

    def test_disconnected_tensor_raises(self):
        with pytest.raises(GraphError):
            Tensor(np.zeros(3, dtype=np.float32)).backward()

    def test_reused_node_accumulates(self):
        x = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        y = x * x + x * 3.0
        y.sum().backward()
        assert x.grad[0] == pytest.approx(7.0)  # 2x + 3

    def test_second_backward_raises(self):
        x = Tensor(np.array([3.0], dtype=np.float32), requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        with pytest.raises(GraphError, match="earlier backward"):
            loss.backward()
        assert x.grad[0] == pytest.approx(6.0)

    def test_released_shared_node_raises_before_any_gradient(self):
        # the new root also reaches x directly: nothing may land on x.grad
        x = Tensor(np.array([3.0], dtype=np.float32), requires_grad=True)
        h = x * x
        h.sum().backward()
        with pytest.raises(GraphError, match="earlier backward"):
            (h * 2.0 + x).sum().backward()
        assert x.grad[0] == pytest.approx(6.0)

    def test_no_grad_suppresses_graph(self, rng):
        x = tensor(rng, (1, 2, 3, 3))
        with no_grad():
            y = (x * 2.0).sum()
        with pytest.raises(GraphError):
            y.backward()


class TestGraphKeepsOnlyWhatBackwardReads:
    def test_dropped_upsample_output_is_freed(self, rng):
        # concat's backward reads only shapes, so nothing keeps up.data
        x = tensor(rng, (1, 2, 3, 3))
        up = upsample_bilinear2x(x)
        ref = weakref.ref(up.data)
        out = concat_channels([up, tensor(rng, (1, 1, 6, 6))])
        del up
        assert ref() is None
        out.backward(np.ones_like(out.data))
        # every input sample's taps sum to 2 along each axis
        np.testing.assert_array_equal(x.grad, np.full(x.shape, 4.0, dtype=np.float32))

    def test_dropped_product_is_freed(self, rng):
        # (x * 2) * 3: the constant's gradient is never taken, so the outer
        # mul keeps the constant only, not x * 2
        x = tensor(rng, (2, 3))
        y = x * 2.0
        ref = weakref.ref(y.data)
        z = y * 3.0
        del y
        assert ref() is None
        z.sum().backward()
        np.testing.assert_array_equal(x.grad, np.full(x.shape, 6.0, dtype=np.float32))

    def test_operand_read_by_a_gradient_is_kept(self, rng):
        y, w = tensor(rng, (2, 3), requires_grad=False), tensor(rng, (2, 3))
        expected = y.data.copy()
        ref = weakref.ref(y.data)
        z = y * w
        del y
        assert ref() is not None
        z.sum().backward()
        np.testing.assert_array_equal(w.grad, expected)

    def test_assigned_backward_routes_the_nodes_backward(self, rng):
        # a tracer wraps each result's backward by assigning out._backward
        x = tensor(rng, (2, 3))
        out = x * 2.0
        seen, inner = [], out._backward

        def wrapper(g):
            seen.append(g.shape)
            return inner(g)
        out._backward = wrapper
        assert out._backward is wrapper
        out.sum().backward()
        assert seen == [(2, 3)]
        np.testing.assert_array_equal(x.grad, np.full(x.shape, 2.0, dtype=np.float32))

    def test_requires_grad_can_be_switched_on_and_off(self, rng):
        x = tensor(rng, (2, 3), requires_grad=False)
        with pytest.raises(GraphError):
            x.grad = np.ones(x.shape, dtype=np.float32)
        x.requires_grad = True
        (x * x).sum().backward()
        np.testing.assert_array_equal(x.grad, 2.0 * x.data)
        x.requires_grad = False
        assert x.grad is None and not (x * x).requires_grad


# every op that records a graph node: (op, input shapes)
_X = (1, 3, 4, 4)
_RECORDING_OPS = {
    "add": (operator.add, [_X, _X]),
    "sub": (operator.sub, [_X, _X]),
    "mul": (operator.mul, [_X, _X]),
    "abs": (Tensor.abs, [_X]),
    "clamp": (lambda x: x.clamp(0.3, 0.7), [_X]),
    "sigmoid": (Tensor.sigmoid, [_X]),
    "sum": (Tensor.sum, [_X]),
    "mean": (Tensor.mean, [_X]),
    "gelu": (gelu, [_X]),
    "conv2d": (conv2d, [_X, (2, 3, 3, 3), (2,)]),
    "maxpool2d": (maxpool2d, [_X]),
    "upsample_bilinear2x": (upsample_bilinear2x, [_X]),
    "instance_norm": (instance_norm, [_X, (3,), (3,)]),
    "concat_channels": (lambda a, b: concat_channels([a, b]), [_X, _X]),
    "crop2d": (lambda x: crop2d(x, 3, 2), [_X]),
    "trilinear_apply": (lambda x, grid: trilinear_apply(x, Lut3D(grid)), [_X, (3, 3, 3, 3)]),
}


def _recording_inputs(shapes, requires):
    rng = np.random.default_rng(5)
    return [Tensor(rng.uniform(0.2, 0.8, shape).astype(np.float32), requires_grad=r)
            for shape, r in zip(shapes, requires)]


@pytest.mark.parametrize("name", sorted(_RECORDING_OPS))
def test_recording_rule(name):
    op, shapes = _RECORDING_OPS[name]
    n = len(shapes)
    with no_grad():
        unrecorded = [op(*_recording_inputs(shapes, [True] * n))]
    unrecorded.append(op(*_recording_inputs(shapes, [False] * n)))
    for out in unrecorded:
        assert out._backward is None and out._node is None
        assert not out.requires_grad
    # one parent at a time requires grad: recorded, and only it gets .grad
    for i in range(n):
        requires = [j == i for j in range(n)]
        xs = _recording_inputs(shapes, requires)
        out = op(*xs)
        assert out.requires_grad and out._node._op is not None and out._backward is not None
        assert len(out._node._parents) == n
        assert all(p is x._node for p, x in zip(out._node._parents, xs))
        out.backward(np.ones_like(out.data))
        assert [x.grad is not None for x in xs] == requires


# every differentiable op, finite-difference consistency in float32:
# mean-scaled random losses, combined tolerance rtol 1e-3 / atol 1e-4
_OP_CASES = {
    "conv3x3": None, "conv1x1": None, "gelu": None, "maxpool": None,
    "maxpool_odd": None, "upsample": None, "instance_norm": None,
    "sigmoid": None, "attention": None, "concat_crop": None,
    "clamp": None, "abs": None,
}


def _build_case(name, rng):
    def probe(shape):
        return Tensor(rng.uniform(-1, 1, shape).astype(np.float32))

    if name == "conv3x3":
        x, w, b = (tensor(rng, (2, 3, 5, 5)), tensor(rng, (4, 3, 3, 3)),
                   tensor(rng, (4,)))
        r = probe((2, 4, 5, 5))
        return lambda: (conv2d(x, w, b) * r).mean(), [x, w, b]
    if name == "conv1x1":
        x, w, b = (tensor(rng, (1, 3, 4, 4)), tensor(rng, (2, 3, 1, 1)),
                   tensor(rng, (2,)))
        r = probe((1, 2, 4, 4))
        return lambda: (conv2d(x, w, b) * r).mean(), [x, w, b]
    if name == "gelu":
        x = tensor(rng, (2, 2, 3, 3), lo=-2, hi=2)
        r = probe((2, 2, 3, 3))
        return lambda: (gelu(x) * r).mean(), [x]
    if name == "maxpool":
        # distinct values so the argmax does not flip under perturbation
        x = Tensor((rng.permutation(64).reshape(1, 1, 8, 8) / 8.0)
                   .astype(np.float32), requires_grad=True)
        r = probe((1, 1, 4, 4))
        return lambda: (maxpool2d(x) * r).mean(), [x]
    if name == "maxpool_odd":
        x = Tensor((rng.permutation(35).reshape(1, 1, 5, 7) / 4.0)
                   .astype(np.float32), requires_grad=True)
        r = probe((1, 1, 3, 4))
        return lambda: (maxpool2d(x) * r).mean(), [x]
    if name == "upsample":
        x = tensor(rng, (1, 2, 3, 4))
        r = probe((1, 2, 6, 8))
        return lambda: (upsample_bilinear2x(x) * r).mean(), [x]
    if name == "instance_norm":
        x, g, b = tensor(rng, (2, 3, 4, 4)), tensor(rng, (3,)), tensor(rng, (3,))
        r = probe((2, 3, 4, 4))
        return lambda: (instance_norm(x, g, b) * r).mean(), [x, g, b]
    if name == "sigmoid":
        x = tensor(rng, (2, 3, 3, 3), lo=-3, hi=3)
        r = probe((2, 3, 3, 3))
        return lambda: (x.sigmoid() * r).mean(), [x]
    if name == "attention":
        x, w, b = (tensor(rng, (1, 4, 5, 5)), tensor(rng, (1, 4, 3, 3)),
                   tensor(rng, (1,)))
        r = probe((1, 4, 5, 5))
        return lambda: (spatial_attention(x, w, b) * r).mean(), [x, w, b]
    if name == "concat_crop":
        x, y = tensor(rng, (1, 2, 4, 4)), tensor(rng, (1, 3, 4, 4))
        r = probe((1, 5, 3, 2))
        return lambda: (crop2d(concat_channels([x, y]), 3, 2) * r).mean(), [x, y]
    if name == "clamp":
        # sample away from the kinks at 0 and 1 so FD never straddles them
        base = rng.uniform(0.1, 0.9, (2, 3, 3, 3))
        shift = rng.choice([-2.0, 0.0, 1.0], size=(2, 3, 3, 3))
        x = Tensor((base + shift).astype(np.float32), requires_grad=True)
        r = probe((2, 3, 3, 3))
        return lambda: (x.clamp(0.0, 1.0) * r).mean(), [x]
    if name == "abs":
        data = (rng.uniform(0.2, 2, (2, 3, 3, 3))
                * np.where(rng.uniform(size=(2, 3, 3, 3)) > 0.5, 1, -1))
        x = Tensor(data.astype(np.float32), requires_grad=True)
        r = probe((2, 3, 3, 3))
        return lambda: (x.abs() * r).mean(), [x]
    raise AssertionError(name)


@pytest.mark.parametrize("op_name", sorted(_OP_CASES))
def test_finite_difference_consistency(op_name):
    # 9 trials x 12 ops > 100 total random trials
    op_index = sorted(_OP_CASES).index(op_name)
    for trial in range(9):
        rng = np.random.default_rng(1000 * trial + op_index)
        f, leaves = _build_case(op_name, rng)
        ratios = check_gradients(f, leaves, h=1e-3, rtol=1e-3, atol=1e-4)
        assert max(ratios.values()) <= 1.0, \
            f"{op_name} trial {trial}: gradient mismatch {ratios}"


@settings(max_examples=25, deadline=None)
@given(h=st.integers(3, 12), w=st.integers(3, 12),
       c_in=st.integers(1, 4), c_out=st.integers(1, 4))
def test_shape_algebra(h, w, c_in, c_out):
    rng = np.random.default_rng(h * 100 + w)
    x = Tensor(rng.uniform(0, 1, (1, c_in, h, w)).astype(np.float32))
    k3 = Tensor(rng.uniform(-1, 1, (c_out, c_in, 3, 3)).astype(np.float32))
    assert conv2d(x, k3, zero_bias(c_out)).shape == (1, c_out, h, w)
    assert maxpool2d(x).shape == (1, c_in, (h + h % 2) // 2, (w + w % 2) // 2)
    assert upsample_bilinear2x(x).shape == (1, c_in, 2 * h, 2 * w)


def test_deterministic_forward_backward():
    def run():
        rng = np.random.default_rng(99)
        x = Tensor(rng.uniform(-1, 1, (2, 3, 8, 8)).astype(np.float32),
                   requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (4, 3, 3, 3)).astype(np.float32),
                   requires_grad=True)
        out = gelu(conv2d(x, w, zero_bias(4)))
        loss = (maxpool2d(out)).abs().mean()
        loss.backward()
        return loss.data.copy(), x.grad.copy(), w.grad.copy()

    first = run()
    second = run()
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_ops_produce_finite_values(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(-5, 5, (1, 3, 6, 6)).astype(np.float32))
    w = Tensor(rng.uniform(-2, 2, (2, 3, 3, 3)).astype(np.float32))
    g = Tensor(rng.uniform(-2, 2, (2,)).astype(np.float32))
    b = Tensor(rng.uniform(-2, 2, (2,)).astype(np.float32))
    out = instance_norm(conv2d(x, w, zero_bias(2)), g, b)
    out = upsample_bilinear2x(maxpool2d(gelu(out)))
    assert np.all(np.isfinite(out.data))


def _gather_upsample_reference(x):
    # align_corners=False 2x upsample as a gather of two taps per axis,
    # H first and then W; the slice-arithmetic kernel must match it bitwise
    def axis_maps(n):
        src = np.clip((np.arange(2 * n) + 0.5) / 2.0 - 0.5, 0.0, n - 1)
        lo = np.floor(src).astype(np.int64)
        hi = np.minimum(lo + 1, n - 1)
        return lo, hi, (1.0 - (src - lo)).astype(x.dtype), (src - lo).astype(x.dtype)

    lo_h, hi_h, wl_h, wh_h = axis_maps(x.shape[2])
    lo_w, hi_w, wl_w, wh_w = axis_maps(x.shape[3])
    rows = x[:, :, lo_h, :] * wl_h[:, None] + x[:, :, hi_h, :] * wh_h[:, None]
    return rows[:, :, :, lo_w] * wl_w + rows[:, :, :, hi_w] * wh_w


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 2, 1, 5), (2, 3, 7, 1), (1, 4, 33, 17)])
def test_upsample_matches_gather_reference(shape, dtype):
    x = np.random.default_rng(sum(shape)).uniform(-1, 1, shape).astype(dtype)
    out = upsample_bilinear2x(Tensor(x)).data
    assert out.dtype == dtype
    assert np.array_equal(out, _gather_upsample_reference(x))


def _gradcheck64(f, leaves):
    return max(check_gradients(f, leaves, h=1e-6, rtol=1e-6, atol=1e-9).values())


@pytest.mark.parametrize("shape", [(1, 2, 1, 5), (2, 1, 3, 1), (1, 2, 5, 3)])
def test_upsample_gradient_at_unit_and_odd_sizes(shape):
    rng = np.random.default_rng(7)
    x = Tensor(rng.uniform(-1, 1, shape), requires_grad=True, dtype=np.float64)
    r = rng.uniform(-1, 1, (shape[0], shape[1], 2 * shape[2], 2 * shape[3]))
    assert _gradcheck64(lambda: (upsample_bilinear2x(x) * r).sum(), [x]) <= 1.0


# At (2, 3, 5, 4) with a 3x3 kernel, a strip row of the forward columns
# holds 2*27*4 = 216 elements and one of the input gradient's (2 channels)
# 2*18*4 = 144: a budget of 1 gives 1-row strips, one of 432 gives 2-row
# forward strips with a short last strip (2+2+1) and 3-row input-gradient
# strips (3+2).
@pytest.mark.parametrize("kernel,strip_elems", [
    pytest.param(1, None, id="1-0"),
    pytest.param(5, None, id="5-2"),
    pytest.param(3, 1, id="3-1-one-row-strips"),
    pytest.param(3, 432, id="3-1-short-last-strip"),
])
def test_conv2d_gradient_pad_and_crop(monkeypatch, kernel, strip_elems):
    # ids are kernel-padding: the input gradient is a correlation of g
    # padded by k // 2 again; the weight gradient sums one GEMM per strip
    # of output rows
    if strip_elems is not None:
        monkeypatch.setattr(tensor_mod, "_STRIP_ELEMS", strip_elems)
    rng = np.random.default_rng(10 * kernel + kernel // 2)
    x = Tensor(rng.uniform(-1, 1, (2, 3, 5, 4)), requires_grad=True, dtype=np.float64)
    w = Tensor(rng.uniform(-1, 1, (2, 3, kernel, kernel)), requires_grad=True,
               dtype=np.float64)
    b = Tensor(rng.uniform(-1, 1, (2,)), requires_grad=True, dtype=np.float64)
    r = rng.uniform(-1, 1, (2, 2, 5, 4))
    assert _gradcheck64(lambda: (conv2d(x, w, b) * r).sum(), [x, w, b]) <= 1.0


def _conv_reference(x, w, b, padding):
    # unblocked float64 correlation: every output element sums its window
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(xp, w.shape[2:], axis=(2, 3))
    return np.einsum("bchwij,ocij->bohw", win, w) + b[None, :, None, None]


@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("rows,strips", [
    pytest.param(1, [(r, r + 1) for r in range(7)], id="one-row-strips"),
    pytest.param(3, [(0, 3), (3, 6), (6, 7)], id="short-last-strip"),
])
def test_conv2d_strips_match_unblocked_reference(monkeypatch, batch, rows, strips):
    # 7 output rows of 5 columns, 27 column rows per batch item: the budget
    # admits `rows` output rows per strip, and 3-row strips end short
    monkeypatch.setattr(tensor_mod, "_STRIP_ELEMS", rows * batch * 27 * 5)
    seen = []
    blocks = tensor_mod._column_blocks

    def spy(x, k):
        for r0, r1, cols in blocks(x, k):
            seen.append((r0, r1))
            yield r0, r1, cols

    monkeypatch.setattr(tensor_mod, "_column_blocks", spy)
    rng = np.random.default_rng(batch * 10 + rows)
    x = rng.uniform(-1, 1, (batch, 3, 7, 5))
    w = rng.uniform(-1, 1, (4, 3, 3, 3))
    b = rng.uniform(-1, 1, (4,))
    out = conv2d(Tensor(x), Tensor(w), Tensor(b)).data
    assert seen == strips
    np.testing.assert_allclose(out, _conv_reference(x, w, b, 1), rtol=0, atol=1e-12)


def test_conv2d_keeps_no_full_column_matrix():
    # inference holds the output, one 1 MB strip buffer and a slab of a few
    # padded rows: 16.9 MiB. A padded copy of the input (19.4 MiB) no longer
    # fits, let alone full im2col columns at 9x that
    x = Tensor(np.ones((1, 19, 512, 512), dtype=np.float32))
    w = Tensor(np.ones((16, 19, 3, 3), dtype=np.float32))
    b = zero_bias(16)
    padded, output = 19 * 514 * 514 * 4, 16 * 512 * 512 * 4
    tracemalloc.start()
    try:
        with no_grad():
            out = conv2d(x, w, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (1, 16, 512, 512)
    assert peak < output + padded // 4


def _padded_conv_reference(x, w, b, g):
    # forward, weight gradient and input gradient from np.pad copies (pad
    # k // 2, and k - 1 - k // 2 for the gradient), in the engine's strips
    # and GEMMs, so float32 results must match bit for bit
    def correlate(xp, kern, wgrad=None):
        bsz, c, hp, wp = xp.shape
        k = kern.shape[2]
        ho, wo = hp - k + 1, wp - k + 1
        rows = max(1, min(ho, tensor_mod._STRIP_ELEMS // (bsz * c * k * k * wo)))
        win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
        out = np.empty((bsz, kern.shape[0], ho * wo), dtype=xp.dtype)
        gw = np.zeros((kern.shape[0], c * k * k), dtype=xp.dtype)
        for r0 in range(0, ho, rows):
            r1 = min(r0 + rows, ho)
            cols = np.ascontiguousarray(win[:, :, r0:r1].transpose(0, 1, 4, 5, 2, 3))
            cols = cols.reshape(bsz, c * k * k, (r1 - r0) * wo)
            out[:, :, r0 * wo:r1 * wo] = np.matmul(kern.reshape(kern.shape[0], -1), cols)
            if wgrad is not None:
                gs = wgrad.reshape(bsz, kern.shape[0], -1)[:, :, r0 * wo:r1 * wo]
                gw += np.matmul(gs, cols.transpose(0, 2, 1)).sum(axis=0)
        return out.reshape(bsz, -1, ho, wo), gw.reshape(kern.shape)

    k = w.shape[2]
    padding = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (padding,) * 2, (padding,) * 2))
    out, gw = correlate(xp, w, g)
    gp = np.pad(g, ((0, 0), (0, 0), (k - 1 - padding,) * 2, (k - 1 - padding,) * 2))
    gx, _ = correlate(gp, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    return out + b.reshape(1, -1, 1, 1), gw, gx


# (2, 3, 7, 5) at 3x3: a forward strip row is 2*27*5 = 270 elements and an
# input-gradient one 2*36*5 = 360, so a budget of 810 gives 3-row forward
# strips (3+3+1) and 2-row input-gradient strips (2+2+2+1). The ids name
# the padding k // 2 of a 1x1, 3x3 or 5x5 kernel.
@pytest.mark.parametrize("shape,kernel,strip_elems", [
    pytest.param((2, 3, 7, 5), 1, None, id="pad0"),
    pytest.param((2, 3, 7, 5), 3, None, id="pad1"),
    pytest.param((2, 3, 7, 5), 5, None, id="pad2"),
    pytest.param((2, 3, 7, 5), 3, 1, id="pad1-one-row-strips"),
    pytest.param((2, 3, 7, 5), 5, 1, id="pad2-one-row-strips"),
    pytest.param((1, 3, 6, 4), 1, 1, id="1x1-pad0-one-row-strips"),
    pytest.param((2, 3, 7, 5), 3, 810, id="short-last-strip"),
    pytest.param((1, 3, 2, 6), 3, None, id="input-shorter-than-strip"),
    pytest.param((1, 3, 1, 6), 3, None, id="h1"),
    pytest.param((1, 3, 1, 4), 5, 1, id="h1-pad2-one-row-strips"),
])
def test_conv2d_matches_padded_reference_bitwise(monkeypatch, shape, kernel, strip_elems):
    if strip_elems is not None:
        monkeypatch.setattr(tensor_mod, "_STRIP_ELEMS", strip_elems)
    rng = np.random.default_rng(sum(shape) + kernel + kernel // 2)
    x = Tensor(rng.uniform(-1, 1, shape).astype(np.float32), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (4, shape[1], kernel, kernel)).astype(np.float32),
               requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, (4,)).astype(np.float32))
    out = conv2d(x, w, b)
    g = rng.uniform(-1, 1, out.shape).astype(np.float32)
    out.backward(g)
    want_out, want_gw, want_gx = _padded_conv_reference(x.data, w.data, b.data, g)
    assert out.data.dtype == x.grad.dtype == w.grad.dtype == np.float32
    assert np.array_equal(out.data, want_out)
    assert np.array_equal(w.grad, want_gw)
    assert np.array_equal(x.grad, want_gx)
