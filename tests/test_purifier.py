"""Purifier CNN: residual structure, scattering arithmetic, shapes, grads."""

import numpy as np
import pytest

from hazeflow.errors import ShapeError
from hazeflow.gradcheck import check_gradients
from hazeflow.purifier import PurifierNet, cnn_forward, param_shapes, purify
from hazeflow.tensor import Tensor


def zero_network(width=4, seed=0):
    """All trainable weights zero except the scattering bias b (stays 1)."""
    net = PurifierNet(width=width, seed=seed)
    for name, p in net.parameters().items():
        if name != "b":
            p.data = np.zeros_like(p.data)
    return net


def image(rng, shape=(1, 3, 16, 16), requires_grad=False):
    return Tensor(rng.uniform(0, 1, shape).astype(np.float32),
                  requires_grad=requires_grad)


class TestCnnForward:
    def test_zero_network_is_residual_identity(self, rng):
        net = zero_network()
        x = image(rng)
        out = cnn_forward(x, net)
        np.testing.assert_array_equal(out.data, x.data)

    @pytest.mark.parametrize("size", [(32, 32), (33, 47), (64, 64)])
    def test_output_shape_matches_input(self, rng, size):
        net = PurifierNet(width=4, seed=1)
        x = image(rng, (1, 3) + size)
        assert cnn_forward(x, net).shape == (1, 3) + size

    def test_rejects_non_rgb_input(self, rng):
        net = PurifierNet(width=4)
        with pytest.raises(ShapeError):
            cnn_forward(Tensor(rng.uniform(0, 1, (1, 4, 16, 16))
                               .astype(np.float32)), net)

    def test_input_gradient_matches_finite_differences(self, rng):
        net = PurifierNet(width=4, seed=2)
        # distinct, well-spaced values: pooling argmaxes must not flip
        # under the +-h finite-difference perturbation
        data = (rng.permutation(192).reshape(1, 3, 8, 8) / 192.0)
        x = Tensor(data.astype(np.float32), requires_grad=True)

        def loss():
            return cnn_forward(x, net).mean()

        ratios = check_gradients(loss, [x], h=1e-3, rtol=1e-3, atol=1e-4)
        assert ratios[0] <= 1.0


class TestPurify:
    def test_k_equal_one_is_fixed_point(self, rng):
        # J = K*x - K + b with K == 1, b == 1 reduces to J = x
        net = PurifierNet(width=4)
        x = image(rng)
        k = Tensor(np.ones_like(x.data))
        out = k * x - k + net.b
        np.testing.assert_allclose(out.data, x.data, atol=1e-7)

    def test_k_equal_zero_gives_all_ones(self, rng):
        net = PurifierNet(width=4)
        x = image(rng)
        k = Tensor(np.zeros_like(x.data))
        out = k * x - k + net.b
        np.testing.assert_allclose(out.data, 1.0, atol=1e-7)

    def test_constant_k_arithmetic(self):
        net = PurifierNet(width=4)
        x = Tensor(np.full((1, 3, 4, 4), 0.8, dtype=np.float32))
        k = Tensor(np.full((1, 3, 4, 4), 0.5, dtype=np.float32))
        out = k * x - k + net.b
        np.testing.assert_allclose(out.data, 0.9, atol=1e-6)

    def test_zero_network_closed_form(self, rng):
        # K collapses to x, so purify(x) = x*x - x + 1 elementwise
        net = zero_network()
        x = image(rng, (2, 3, 12, 12))
        out = purify(x, net)
        expected = x.data * x.data - x.data + 1.0
        assert np.abs(out.data - expected).max() < 1e-6


class TestNetStructure:
    def test_three_encoder_and_decoder_stages(self):
        net = PurifierNet(width=8)
        names = set(net.parameters())
        for i in (1, 2, 3):
            assert f"enc{i}.w" in names and f"dec{i}.w" in names
        assert "enc4.w" not in names

    def test_all_kernels_are_3x3_or_1x1(self):
        net = PurifierNet(width=8)
        for name, p in net.parameters().items():
            if name.endswith(".w"):
                assert p.data.shape[2:] in ((3, 3), (1, 1))

    def test_bias_b_initialized_to_one(self):
        assert float(PurifierNet(width=4).b.data) == 1.0

    def test_param_count_default_width_is_stable(self):
        # regression pin for the default width-16 ladder
        assert sum(np.prod(s, dtype=int) for s in param_shapes(16).values()) == 62309

    def test_state_roundtrip(self, rng):
        net = PurifierNet(width=4, seed=5)
        state = net.state()
        other = PurifierNet(width=4, seed=6)
        other.load_state(state)
        for name, p in net.parameters().items():
            np.testing.assert_array_equal(p.data, other.params[name].data)

    def test_load_state_rejects_missing_params(self):
        net = PurifierNet(width=4)
        with pytest.raises(ShapeError):
            net.load_state({"enc1.w": np.zeros((4, 3, 3, 3), np.float32)})
