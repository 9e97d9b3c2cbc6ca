"""Vector field combination and the Euler/midpoint/RK4 integrators."""

import numpy as np
import pytest

from hazeflow.errors import DataError, DivergenceError
from hazeflow.flow import (FIELD_EVALS, SOLVERS, FlowConfig, integrate,
                           integrate_field, solver_step, vector_field)
from hazeflow.lut import Lut3D, identity_lut
from hazeflow.purifier import PurifierNet, purify
from hazeflow.tensor import Tensor

E_INV = float(np.exp(-1.0))


def decay(t, x):
    return -x


def rk4_decay_factor(dt: float) -> float:
    # closed-form one-step multiplier of classic RK4 on dx/dt = -x
    return 1.0 - dt + dt ** 2 / 2.0 - dt ** 3 / 6.0 + dt ** 4 / 24.0


class TestVectorField:
    def test_lambda_zero_equals_purify(self, rng):
        net = PurifierNet(width=4, seed=1)
        lut = identity_lut(5)
        x = Tensor(rng.uniform(0, 1, (1, 3, 8, 8)).astype(np.float32))
        np.testing.assert_array_equal(vector_field(x, net, lut, 0.0).data,
                                      purify(x, net).data)

    def test_combination_arithmetic(self):
        # zero network at x == 0 gives O_m == b; constant grid gives O_lut == c
        net = PurifierNet(width=4, seed=0)
        for name, p in net.parameters().items():
            if name != "b":
                p.data = np.zeros_like(p.data)
        net.b.data = np.asarray(0.6, dtype=np.float32)
        lut = Lut3D(Tensor(np.full((5, 5, 5, 3), 0.2, dtype=np.float32), requires_grad=True))
        x = Tensor(np.zeros((1, 3, 8, 8), dtype=np.float32))
        out = vector_field(x, net, lut, 0.5)
        np.testing.assert_allclose(out.data, 0.7, atol=1e-6)

    def test_default_lambda_is_half(self):
        assert FlowConfig().lam == 0.5

    def test_lut_grid_gets_no_gradient_when_lambda_zero(self, rng):
        net = PurifierNet(width=4, seed=2)
        lut = identity_lut(5)
        x = Tensor(rng.uniform(0, 1, (1, 3, 8, 8)).astype(np.float32))
        vector_field(x, net, lut, 0.0).mean().backward()
        assert lut.grid.grad is None

    def test_lut_grid_gets_gradient_when_lambda_positive(self, rng):
        net = PurifierNet(width=4, seed=2)
        lut = identity_lut(5)
        x = Tensor(rng.uniform(0, 1, (1, 3, 8, 8)).astype(np.float32))
        vector_field(x, net, lut, 0.5).mean().backward()
        assert lut.grid.grad is not None and np.any(lut.grid.grad != 0)


def step_id(solver):
    return f"{solver}_step"


class TestSteps:
    @pytest.mark.parametrize("solver", SOLVERS, ids=step_id)
    def test_zero_field_keeps_state(self, solver):
        assert solver_step(solver, 1.25, lambda t, x: 0.0 * x, 0.0, 0.1) == 1.25

    @pytest.mark.parametrize("solver", SOLVERS, ids=step_id)
    def test_constant_field_moves_by_c_dt(self, solver):
        out = solver_step(solver, 0.5, lambda t, x: x * 0.0 + 2.0, 0.0, 0.25)
        assert out == pytest.approx(1.0, abs=1e-12)

    def test_euler_decay(self):
        assert solver_step("euler", 1.0, decay, 0.0, 0.1) == pytest.approx(0.9)

    def test_midpoint_decay(self):
        assert (solver_step("midpoint", 1.0, decay, 0.0, 0.1)
                == pytest.approx(0.905))

    def test_rk4_decay(self):
        assert (solver_step("rk4", 1.0, decay, 0.0, 0.1)
                == pytest.approx(0.9048375))


class TestIntegrateField:
    @pytest.mark.parametrize("solver", ["euler", "midpoint", "rk4"])
    @pytest.mark.parametrize("steps", [1, 4, 16])
    def test_zero_field_identity_bit_exact(self, rng, solver, steps):
        x0 = Tensor(rng.uniform(0, 1, (1, 3, 6, 6)).astype(np.float32))
        cfg = FlowConfig(solver=solver, steps=steps)
        final, _ = integrate_field(x0, lambda t, x: x * 0.0, cfg)
        np.testing.assert_array_equal(final.data, x0.data)

    @pytest.mark.parametrize("solver", ["euler", "midpoint", "rk4"])
    @pytest.mark.parametrize("steps", [1, 3, 8])
    def test_constant_field_telescopes(self, rng, solver, steps):
        x0 = Tensor(rng.uniform(0, 0.4, (1, 3, 4, 4)).astype(np.float32))
        cfg = FlowConfig(solver=solver, steps=steps)
        final, _ = integrate_field(x0, lambda t, x: x * 0.0 + 0.25, cfg)
        np.testing.assert_allclose(final.data, x0.data + 0.25, atol=1e-6)

    def test_rk4_decay_matches_closed_form_oracle(self):
        cfg = FlowConfig(solver="rk4", steps=10)
        final, _ = integrate_field(1.0, decay, cfg)
        expected = rk4_decay_factor(0.1) ** 10
        assert final == pytest.approx(expected, abs=1e-12)
        # the method error against the analytic solution is ~3.3e-7
        assert abs(final - E_INV) < 1e-6

    @pytest.mark.parametrize("solver,order", [("euler", 1), ("midpoint", 2),
                                              ("rk4", 4)])
    def test_convergence_order(self, solver, order):
        errors = []
        for steps in (10, 20):
            cfg = FlowConfig(solver=solver, steps=steps)
            final, _ = integrate_field(1.0, decay, cfg)
            errors.append(abs(final - E_INV))
        measured = np.log2(errors[0] / errors[1])
        assert abs(measured - order) < 0.3

    def test_composability_bit_identical(self, rng):
        x0 = Tensor(rng.uniform(0, 1, (1, 3, 4, 4)).astype(np.float32))
        field = lambda t, x: x * (-0.5) + 0.1
        cfg = FlowConfig(solver="rk4", steps=4)
        whole, _ = integrate_field(x0, field, cfg)
        manual = x0
        for i in range(4):
            manual = solver_step("rk4", manual, field, i * cfg.dt, cfg.dt)
        np.testing.assert_array_equal(whole.data, manual.data)

    def test_divergence_names_step(self):
        def exploding(t, x):
            return x * np.float32(1e30)

        cfg = FlowConfig(solver="euler", steps=4)
        x0 = Tensor(np.full((1, 3, 2, 2), 0.5, dtype=np.float32))
        with np.errstate(over="ignore"):
            with pytest.raises(DivergenceError) as info:
                integrate_field(x0, exploding, cfg)
        assert info.value.step >= 1

    def test_trajectory_has_one_state_per_step(self, rng):
        x0 = Tensor(rng.uniform(0, 1, (1, 3, 4, 4)).astype(np.float32))
        cfg = FlowConfig(solver="midpoint", steps=5)
        _, snaps = integrate_field(x0, lambda t, x: x * 0.01, cfg)
        assert len(snaps) == 5
        result = integrate(x0, PurifierNet(width=4), identity_lut(5), cfg)
        assert len(result.trajectory) == 5
        assert result.trajectory[-1] is result.raw_final


class TestIntegrate:
    def test_output_is_clamped_raw_is_not(self, rng):
        net = PurifierNet(width=4, seed=3)
        lut = identity_lut(5)
        cfg = FlowConfig(solver="euler", steps=2)
        x0 = Tensor(rng.uniform(0.4, 0.9, (1, 3, 8, 8)).astype(np.float32))
        result = integrate(x0, net, lut, cfg)
        assert result.output.data.min() >= 0.0
        assert result.output.data.max() <= 1.0
        # untrained field drifts upward, so the raw state exceeds 1
        assert result.raw_final.data.max() > 1.0

    def test_rejects_out_of_range_input(self, rng):
        net = PurifierNet(width=4)
        cfg = FlowConfig(steps=1)
        with pytest.raises(DataError):
            integrate(Tensor(rng.uniform(0.5, 1.5, (1, 3, 4, 4))
                             .astype(np.float32)), net, identity_lut(5), cfg)

    def test_rejects_nan_input(self, rng):
        data = rng.uniform(0.2, 0.8, (1, 3, 4, 4)).astype(np.float32)
        data[0, 1, 2, 3] = np.nan
        with pytest.raises(DataError):
            integrate(Tensor(data), PurifierNet(width=4), identity_lut(5),
                      FlowConfig(steps=1))

    def test_gradients_reach_all_parameter_groups(self, rng):
        net = PurifierNet(width=4, seed=4)
        lut = identity_lut(5)
        cfg = FlowConfig(solver="rk4", steps=2, lam=0.5)
        x0 = Tensor(rng.uniform(0.1, 0.6, (1, 3, 4, 4)).astype(np.float32),
                    requires_grad=True)
        result = integrate(x0, net, lut, cfg)
        result.raw_final.mean().backward()
        assert x0.grad is not None and np.any(x0.grad != 0)
        assert lut.grid.grad is not None and np.any(lut.grid.grad != 0)
        for name in ("enc1.w", "dec3.w", "head.w", "b"):
            grad = net.params[name].grad
            assert grad is not None and np.any(grad != 0), name


class TestFlowConfig:
    def test_dt_times_steps_covers_range(self):
        cfg = FlowConfig(steps=7)
        assert cfg.steps * cfg.dt == pytest.approx(1.0, abs=1e-15)

    def test_invalid_solver_rejected(self):
        with pytest.raises(ValueError):
            FlowConfig(solver="heun")

    def test_invalid_steps_rejected(self):
        with pytest.raises(ValueError):
            FlowConfig(steps=0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            FlowConfig(lam=-0.1)

    def test_field_eval_counts(self):
        assert FIELD_EVALS == {"euler": 1, "midpoint": 2, "rk4": 4}
