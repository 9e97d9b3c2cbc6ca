"""Loss, optimizer, scheduler, synthetic data, and the training loop."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hazeflow.errors import ConfigError, DivergenceError, ShapeError
from hazeflow.flow import FlowConfig, integrate
from hazeflow.lut import identity_lut
from hazeflow.purifier import PurifierNet
from hazeflow.tensor import Tensor
from hazeflow import training
from hazeflow.training import (AdamW, ReduceLROnPlateau, TrainConfig,
                               _epoch_loss, history_table, l1_loss,
                               make_toy_dataset, synth_haze, train_loop)


def _fixture_width_step():
    # one 2x3x64x64 step at RK4 x1 through a width-16 purifier and a
    # 33-bin LUT, the sizes of the benchmark's model fixture
    rng = np.random.default_rng(0)
    hazy = rng.uniform(0, 1, (2, 3, 64, 64)).astype(np.float32)
    clean = rng.uniform(0, 1, (2, 3, 64, 64)).astype(np.float32)
    net, lut = PurifierNet(width=16, seed=0), identity_lut(33)
    result = integrate(Tensor(hazy), net, lut, FlowConfig(solver="rk4", steps=1))
    return result, l1_loss(result.raw_final, Tensor(clean)), net, lut


class TestGraphRelease:
    def test_backward_clears_interior_nodes_and_keeps_leaf_grads(self):
        result, loss, net, lut = _fixture_width_step()
        nodes, stack, seen = [], [loss._node], set()
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                nodes.append(node)
                stack.extend(p for p in node._parents if p is not None)
        assert any(n is result.raw_final._node for n in nodes)
        loss.backward()
        interior = [n for n in nodes if n._op is not None]
        assert len(interior) > 100
        for node in interior:
            assert node.grad is None and node._backward is None
            assert node._parents == ()
        assert lut.grid.grad is not None
        for name, p in net.parameters().items():
            assert p.grad is not None, name

    def test_step_peak_memory(self):
        # tracemalloc peak over forward and backward: 67.3 MiB when every
        # node kept its grad, closure and saved arrays to the end of the
        # step, 32.7 MiB with the graph released during backward
        tracemalloc.start()
        try:
            _, loss, _, _ = _fixture_width_step()
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 45 * 2**20


class TestL1Loss:
    def test_identical_tensors(self, rng):
        x = Tensor(rng.uniform(0, 1, (1, 3, 4, 4)).astype(np.float32))
        assert float(l1_loss(x, x).data) == 0.0

    def test_unit_offset(self):
        pred = Tensor(np.zeros((2, 3, 4, 4), dtype=np.float32))
        target = Tensor(np.ones((2, 3, 4, 4), dtype=np.float32))
        assert float(l1_loss(pred, target).data) == pytest.approx(1.0)

    def test_constant_offset(self, rng):
        base = rng.uniform(0, 0.9, (1, 3, 5, 5)).astype(np.float32)
        assert float(l1_loss(Tensor(base), Tensor(base + 0.1)).data) == \
            pytest.approx(0.1, abs=1e-6)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            l1_loss(Tensor(np.zeros((1, 3, 4, 4), np.float32)),
                    Tensor(np.zeros((1, 3, 4, 5), np.float32)))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_non_negative_zero_iff_equal(self, seed):
        r = np.random.default_rng(seed)
        a = r.uniform(-1, 1, (2, 3, 3, 3)).astype(np.float32)
        b = r.uniform(-1, 1, (2, 3, 3, 3)).astype(np.float32)
        loss = float(l1_loss(Tensor(a), Tensor(b)).data)
        assert loss >= 0.0
        assert (loss == 0.0) == bool(np.all(a == b))


class TestAdamW:
    def test_first_step_from_zero_param(self):
        p = Tensor(np.zeros(1, dtype=np.float64), requires_grad=True)
        opt = AdamW({"p": p}, lr=1e-3, weight_decay=1e-4)
        p.grad = np.ones(1)
        opt.step()
        assert p.data[0] == pytest.approx(-1e-3, rel=1e-6)

    def test_zero_grad_decays_only(self):
        p = Tensor(np.full(1, 2.0, dtype=np.float64), requires_grad=True)
        opt = AdamW({"p": p}, lr=1e-2, weight_decay=1e-3)
        opt.step()  # no gradient populated
        assert p.data[0] == pytest.approx(2.0 * (1 - 1e-2 * 1e-3), rel=1e-12)

    def test_zero_lr_keeps_params(self, rng):
        p = Tensor(rng.uniform(-1, 1, (3, 3)).astype(np.float32),
                   requires_grad=True)
        before = p.data.copy()
        opt = AdamW({"p": p}, lr=0.0)
        p.grad = np.ones_like(p.data)
        opt.step()
        np.testing.assert_array_equal(p.data, before)

    @pytest.mark.parametrize("grad", [1e-3, 1.0, 1e3])
    def test_first_step_magnitude_is_lr(self, grad):
        p = Tensor(np.zeros(1, dtype=np.float64), requires_grad=True)
        opt = AdamW({"p": p}, lr=1e-3, weight_decay=0.0)
        p.grad = np.full(1, grad)
        opt.step()
        assert abs(p.data[0]) == pytest.approx(1e-3, rel=1e-4)

    def test_moments_mirror_param_shapes(self, rng):
        params = {"a": Tensor(rng.normal(size=(2, 3)).astype(np.float32),
                              requires_grad=True),
                  "b": Tensor(rng.normal(size=(5,)).astype(np.float32),
                              requires_grad=True)}
        opt = AdamW(params, lr=1e-3)
        for name, p in params.items():
            assert opt.state.m[name].shape == p.data.shape
            assert opt.state.v[name].shape == p.data.shape
        assert opt.state.step_count == 0


class TestPlateauScheduler:
    def test_full_plateau_halves(self):
        sched = ReduceLROnPlateau(1e-3, patience=100)
        for value in [1.0] + [1.0] * 100:
            sched.step(value)
        assert sched.lr == pytest.approx(5e-4)

    def test_improvement_resets_counter(self):
        sched = ReduceLROnPlateau(1e-3, patience=100)
        sched.step(1.0)
        for _ in range(99):
            sched.step(1.0)
        assert sched.lr == 1e-3
        sched.step(0.5)  # improvement at epoch 99
        assert sched.lr == 1e-3 and sched.bad_epochs == 0

    def test_two_plateaus_quarter(self):
        sched = ReduceLROnPlateau(1e-3, patience=100)
        for value in [1.0] + [1.0] * 200:
            sched.step(value)
        assert sched.lr == pytest.approx(2.5e-4)

    def test_equal_value_is_not_improvement(self):
        sched = ReduceLROnPlateau(1.0, patience=2)
        sched.step(0.5)
        sched.step(0.5)
        sched.step(0.5)
        assert sched.lr == 0.5


class TestSynthHaze:
    def test_full_transmission_is_clean(self, rng):
        clean = rng.uniform(0, 1, (3, 8, 8)).astype(np.float32)
        np.testing.assert_allclose(synth_haze(clean, 0.9, 1.0), clean,
                                   atol=1e-7)

    def test_opaque_haze_is_atmospheric_light(self, rng):
        clean = rng.uniform(0, 1, (3, 8, 8)).astype(np.float32)
        np.testing.assert_allclose(synth_haze(clean, 0.85, 0.0), 0.85,
                                   atol=1e-7)

    def test_midpoint_blend(self):
        clean = np.full((3, 4, 4), 0.4, dtype=np.float32)
        np.testing.assert_allclose(synth_haze(clean, 1.0, 0.5), 0.7,
                                   atol=1e-7)

    def test_rejects_bad_atmospheric_light(self, rng):
        clean = rng.uniform(0, 1, (3, 4, 4)).astype(np.float32)
        with pytest.raises(ValueError):
            synth_haze(clean, 0.5, 0.5)

    def test_toy_dataset_shapes_and_range(self):
        hazy, clean = make_toy_dataset(4, 16, seed=0)
        assert hazy.shape == clean.shape == (4, 3, 16, 16)
        for arr in (hazy, clean):
            assert arr.min() >= 0.0 and arr.max() <= 1.0


class TestTrainLoop:
    def test_zero_lr_one_epoch_keeps_params(self):
        hazy, clean = make_toy_dataset(4, 16, seed=3)
        cfg = TrainConfig(lr=0.0, weight_decay=0.0, epochs=1, batch_size=2,
                          seed=3)
        flow_cfg = FlowConfig(solver="euler", steps=1)
        net = PurifierNet(width=4, seed=3)
        before = net.state()
        result = train_loop((hazy, clean), cfg, flow_cfg, net=net,
                            lut=identity_lut(5))
        for name, arr in before.items():
            np.testing.assert_array_equal(arr, net.params[name].data)
        assert result.history[0].train_l1 == pytest.approx(
            result.history[0].val_l1, rel=1e-5)

    def test_validation_in_batches_matches_one_pass_in_less_memory(self):
        hazy, clean = make_toy_dataset(16, 32, seed=4)
        net, lut = PurifierNet(width=8, seed=4), identity_lut(5)
        flow_cfg = FlowConfig(solver="rk4", steps=3)
        losses, peaks = [], []
        for batch_size in (16, 2):
            tracemalloc.start()
            try:
                losses.append(_epoch_loss(hazy, clean, net, lut, flow_cfg,
                                          batch_size))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert losses[1] == pytest.approx(losses[0], rel=1e-6)
        assert peaks[1] < peaks[0] / 2

    def test_same_seed_identical_loss_curves(self):
        hazy, clean = make_toy_dataset(4, 16, seed=5)
        cfg = TrainConfig(lr=1e-3, epochs=3, batch_size=2, seed=5)
        flow_cfg = FlowConfig(solver="euler", steps=1)
        runs = []
        for _ in range(2):
            result = train_loop((hazy, clean), cfg, flow_cfg,
                                PurifierNet(width=4, seed=5), identity_lut(5))
            runs.append([(r.train_l1, r.val_l1, r.lr) for r in result.history])
        assert runs[0] == runs[1]

    def test_short_toy_run_reduces_training_loss(self):
        hazy, clean = make_toy_dataset(8, 16, seed=11)
        cfg = TrainConfig(lr=1e-2, epochs=15, batch_size=4, seed=11)
        flow_cfg = FlowConfig(solver="euler", steps=1)
        result = train_loop((hazy, clean), cfg, flow_cfg,
                            PurifierNet(width=4, seed=11), identity_lut(5))
        assert result.history[-1].train_l1 < result.history[0].train_l1

    def test_divergence_reports_step(self):
        hazy, clean = make_toy_dataset(2, 16, seed=7)
        cfg = TrainConfig(lr=1e-3, epochs=1, batch_size=2, seed=7)
        flow_cfg = FlowConfig(solver="euler", steps=1)
        net = PurifierNet(width=4, seed=7)
        net.params["head.w"].data[0, 0, 0, 0] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(DivergenceError) as info:
                train_loop((hazy, clean), cfg, flow_cfg, net=net, lut=identity_lut(5))
        assert info.value.step == 1

    def test_frozen_purifier_only_lut_and_b_train(self):
        hazy, clean = make_toy_dataset(2, 16, seed=9)
        net = PurifierNet(width=4, seed=9)
        for name, p in net.parameters().items():
            if name != "b":
                p.requires_grad = False
        lut = identity_lut(5)
        flow_cfg = FlowConfig(solver="euler", steps=1, lam=0.5)
        result = integrate(Tensor(hazy), net, lut, flow_cfg)
        l1_loss(result.raw_final, Tensor(clean)).backward()
        assert lut.grid.grad is not None and np.any(lut.grid.grad != 0)
        assert net.params["b"].grad is not None
        for name, p in net.parameters().items():
            if name != "b":
                assert p.grad is None, name

    def test_frozen_kernel_is_neither_updated_nor_decayed(self):
        hazy, clean = make_toy_dataset(2, 16, seed=9)
        net = PurifierNet(width=4, seed=9)
        kernel, bias = net.params["head.w"], net.params["b"]
        kernel.requires_grad = False
        frozen, trained = kernel.data.copy(), bias.data.copy()
        cfg = TrainConfig(lr=1e-2, weight_decay=1e-2, epochs=2, batch_size=2, seed=9)
        train_loop((hazy, clean), cfg, FlowConfig(solver="euler", steps=1), net=net,
                   lut=identity_lut(5))
        assert np.array_equal(kernel.data, frozen)
        assert not np.array_equal(bias.data, trained)

    def test_returns_the_model_of_the_best_epoch(self, monkeypatch):
        hazy, clean = make_toy_dataset(2, 16, seed=2)
        net, lut = PurifierNet(width=4, seed=2), identity_lut(5)
        losses, seen = iter([0.5, 0.2, 0.4]), []

        def recorded(hazy, clean, net, lut, flow_cfg, batch_size):
            seen.append((net.state(), lut.grid.data.copy()))
            return next(losses)
        monkeypatch.setattr(training, "_epoch_loss", recorded)
        cfg = TrainConfig(lr=1e-2, epochs=3, batch_size=2, seed=2)
        result = train_loop((hazy, clean), cfg, FlowConfig(solver="euler", steps=1),
                            net, lut)
        assert result.net is net and result.lut is lut
        state, grid = seen[1]
        assert not np.array_equal(grid, seen[2][1])  # the last epoch moved on
        for name, arr in state.items():
            np.testing.assert_array_equal(net.params[name].data, arr)
        np.testing.assert_array_equal(lut.grid.data, grid)
        assert result.best_epoch == 2 and result.best_val == 0.2
        assert result.history[-1].val_l1 == 0.4

    def test_lambda_without_lut_is_refused_before_any_step(self):
        hazy, clean = make_toy_dataset(2, 16, seed=2)
        net = PurifierNet(width=4, seed=2)
        before = net.state()
        cfg = TrainConfig(lr=1e-2, epochs=1, batch_size=2, seed=2)
        with pytest.raises(ConfigError, match="lambda 0.5 weights a LUT"):
            train_loop((hazy, clean), cfg, FlowConfig(solver="euler", steps=1, lam=0.5),
                       net, None)
        for name, arr in before.items():
            np.testing.assert_array_equal(net.params[name].data, arr)

    def test_history_table_layout(self):
        hazy, clean = make_toy_dataset(2, 16, seed=1)
        cfg = TrainConfig(lr=1e-3, epochs=2, batch_size=2, seed=1)
        result = train_loop((hazy, clean), cfg,
                            FlowConfig(solver="euler", steps=1),
                            PurifierNet(width=4, seed=1), identity_lut(5))
        table = history_table(result.history)
        lines = table.splitlines()
        assert lines[0].split() == ["epoch", "train_l1", "val_l1", "lr"]
        assert len(lines) == 3
