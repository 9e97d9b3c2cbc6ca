"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.

Criterion 1 is expected to fail: classic RK4 on dx/dt = -x over [0, 1]
with n=10 steps has a method error of ~3.3e-7 against e^-1 (the one-step
factor is 0.9048375 vs e^-0.1 ~ 0.90483742, i.e. 8.2e-8 per step,
compounded over 10 steps), so the stated 1e-8 tolerance cannot be met by
any correct RK4 implementation. The assertion is kept at the stated
tolerance and fails honestly; the closed-form oracle check right before
it demonstrates the solver is exact RK4.
"""

import time

import numpy as np
import pytest

from hazeflow.ablation import AblationConfig, grid_checksum, run_suite
from hazeflow.bench import peak_rss_bytes
from hazeflow.checkpoint import load_checkpoint, save_checkpoint
from hazeflow.cli import main as cli_main
from hazeflow.flow import FlowConfig, integrate, integrate_field
from hazeflow.gradcheck import sampled_gradient_check
from hazeflow.lut import identity_lut, lattice_coords, trilinear_apply
from hazeflow.metrics import psnr, ssim
from hazeflow.purifier import PurifierNet, purify, scattering_transform
from hazeflow.tensor import Tensor, no_grad
from hazeflow.tiling import TilePlan, blend_weight_maps, dehaze
from hazeflow.training import (TrainConfig, l1_loss, make_toy_dataset,
                               train_loop)
from test_metrics import naive_ssim

E_INV = float(np.exp(-1.0))


def verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\n[{status}] criterion {number:02d}: {name}{suffix}")


def test_criterion_01_solver_correctness():
    t_start = time.perf_counter()

    def decay(t, x):
        return -x

    final, _ = integrate_field(1.0, decay, FlowConfig(solver="rk4", steps=10))
    error = abs(final - E_INV)

    orders = {}
    for solver, expected in (("euler", 1), ("midpoint", 2), ("rk4", 4)):
        errs = [abs(integrate_field(1.0, decay,
                                    FlowConfig(solver=solver, steps=n))[0]
                    - E_INV) for n in (10, 20)]
        orders[solver] = (float(np.log2(errs[0] / errs[1])), expected)
    elapsed = time.perf_counter() - t_start

    orders_ok = all(abs(measured - expected) <= 0.3
                    for measured, expected in orders.values())
    runtime_ok = elapsed < 1.0
    tol_ok = error < 1e-8
    verdict(1, "solver correctness", tol_ok and orders_ok and runtime_ok,
            f"|X_n - e^-1| = {error:.3e} vs stated 1e-8; orders "
            + ", ".join(f"{s} {m:.2f}/{e}" for s, (m, e) in orders.items())
            + f"; {elapsed:.2f}s")

    assert runtime_ok
    for solver, (measured, expected) in orders.items():
        assert abs(measured - expected) <= 0.3, (solver, measured)
    # the implementation is exact classic RK4 (closed-form oracle) ...
    step_factor = 1.0 - 0.1 + 0.1 ** 2 / 2 - 0.1 ** 3 / 6 + 0.1 ** 4 / 24
    assert final == pytest.approx(step_factor ** 10, abs=1e-12)
    # ... but the stated tolerance is below RK4's method error at n=10.
    assert error < 1e-8, (
        f"RK4 n=10 method error against e^-1 is {error:.3e}; the stated "
        "1e-8 tolerance is unattainable for correct RK4 (per-step factor "
        "0.9048375 vs e^-0.1 = 0.90483742 already differs by 8.2e-8)")


def test_criterion_02_zero_field_identity(rng):
    x0 = Tensor(rng.uniform(0, 1, (1, 3, 12, 12)).astype(np.float32))
    ok = True
    for solver in ("euler", "midpoint", "rk4"):
        for steps in (1, 4, 16):
            cfg = FlowConfig(solver=solver, steps=steps)
            final, _ = integrate_field(x0, lambda t, x: x * 0.0, cfg)
            output = final.clamp(0.0, 1.0)
            ok = ok and np.array_equal(output.data, x0.data)
    verdict(2, "zero-field identity (bit-exact)", ok)
    assert ok


def test_criterion_03_lut_identity(rng):
    lut = identity_lut(33)
    triples = Tensor(rng.uniform(0, 1, (1, 3, 1000, 1)).astype(np.float32))
    out = trilinear_apply(triples, lut)
    max_err = float(np.abs(out.data - triples.data).max())
    coord = lattice_coords((0.5, 0.5, 0.5), lut)[0]
    ok = max_err < 1e-6 and coord == pytest.approx(16.5, abs=1e-12)
    verdict(3, "LUT identity + coordinate map",
            ok, f"max err {max_err:.2e}, coord(0.5) = {coord}")
    assert max_err < 1e-6
    assert coord == pytest.approx(16.5, abs=1e-12)


def test_criterion_04_purifier_closed_forms(rng):
    x = Tensor(rng.uniform(0, 1, (2, 3, 16, 16)).astype(np.float32))
    net = PurifierNet(width=4, seed=0)

    k_one = Tensor(np.ones_like(x.data))
    fixed_point = scattering_transform(k_one, x, net.b)
    exact = np.array_equal(fixed_point.data, x.data)

    for name, p in net.parameters().items():
        if name != "b":
            p.data = np.zeros_like(p.data)
    closed = purify(x, net)
    err = float(np.abs(closed.data - (x.data * x.data - x.data + 1)).max())
    ok = exact and err < 1e-6
    verdict(4, "purifier closed forms", ok,
            f"K=1 fixed point exact: {exact}; zero-net max err {err:.2e}")
    assert exact
    assert err < 1e-6


def test_criterion_05_gradient_fidelity():
    t_start = time.perf_counter()
    data_rng = np.random.default_rng(42)
    # well-spaced distinct input values so pooling argmaxes cannot flip
    # under the +-h probes of the finite-difference oracle
    x0_vals = (data_rng.permutation(48) + 0.5) / 48.0 * 0.55 + 0.05
    shared = {
        "x0": x0_vals.reshape(1, 3, 4, 4),
        "target": data_rng.uniform(0, 1, (1, 3, 4, 4)),
    }

    def worst_ratio(dtype, h, rtol, atol_floor):
        net = PurifierNet(width=4, seed=3, dtype=dtype)
        lut = identity_lut(5, dtype=dtype)
        x0 = Tensor(shared["x0"], requires_grad=True, dtype=dtype)
        target = Tensor(shared["target"], dtype=dtype)
        cfg = FlowConfig(solver="rk4", steps=2, lam=0.5)

        def loss():
            return l1_loss(integrate(x0, net, lut, cfg).raw_final, target)

        # central differences cannot resolve below eps * |f| / (2h); that
        # noise floor is the absolute tolerance for zero-gradient groups
        f0 = abs(float(loss().data))
        noise = np.finfo(dtype).eps * f0 / (2.0 * h)
        atol = max(atol_floor, 4.0 * noise)
        leaves = [x0, lut.grid] + list(net.parameters().values())
        ratios = sampled_gradient_check(loss, leaves, h=h, rtol=rtol,
                                        atol=atol, per_leaf=6, seed=11)
        return max(ratios.values())

    worst64 = worst_ratio(np.float64, h=1e-5, rtol=1e-6, atol_floor=1e-9)
    worst32 = worst_ratio(np.float32, h=1e-3, rtol=1e-3, atol_floor=1e-4)
    elapsed = time.perf_counter() - t_start
    ok = worst64 <= 1.0 and worst32 <= 1.0 and elapsed < 60.0
    verdict(5, "gradient fidelity vs finite differences", ok,
            f"worst ratio f64 {worst64:.3f} (rtol 1e-6), "
            f"f32 {worst32:.3f} (rtol 1e-3); {elapsed:.1f}s")
    assert worst64 <= 1.0
    assert worst32 <= 1.0
    assert elapsed < 60.0


def test_criterion_06_toy_training_improvement():
    hazy, clean = make_toy_dataset(16, 32, seed=123)
    base_psnr = float(np.mean([psnr(hazy[i], clean[i]) for i in range(16)]))
    base_ssim = float(np.mean([ssim(hazy[i], clean[i]) for i in range(16)]))

    cfg = TrainConfig(lr=2e-2, batch_size=4, epochs=120, seed=123)
    flow_cfg = FlowConfig(solver="euler", steps=2, lam=0.5)
    result = train_loop((hazy, clean), cfg, flow_cfg, PurifierNet(width=8, seed=123),
                        identity_lut(17))

    with no_grad():
        out = integrate(Tensor(hazy), result.net, result.lut,
                        flow_cfg).output.data
    out_psnr = float(np.mean([psnr(out[i], clean[i]) for i in range(16)]))
    out_ssim = float(np.mean([ssim(out[i], clean[i]) for i in range(16)]))

    gain = out_psnr - base_psnr
    ok = gain >= 3.0 and out_ssim > base_ssim
    verdict(6, "toy training improvement", ok,
            f"PSNR {base_psnr:.2f} -> {out_psnr:.2f} dB ({gain:+.2f}), "
            f"SSIM {base_ssim:.4f} -> {out_ssim:.4f}, "
            f"{len(result.history)} epochs")
    assert len(result.history) <= 500
    assert gain >= 3.0
    assert out_ssim > base_ssim


def test_criterion_07_ablation_wiring(tmp_path):
    # the ablate command emits the three-suite report
    out_dir = tmp_path / "reports"
    rc = cli_main(["ablate", "all", "--out-dir", str(out_dir),
                   "--epochs", "10", "--pairs", "6", "--size", "16",
                   "--width", "4", "--lut-size", "7", "--steps", "2",
                   "--seed", "7"])
    report = (out_dir / "ablation_report.txt").read_text()
    suites_present = all(tag in report
                         for tag in ("Haze-LUT", "lambda", "ODE solver"))
    ordering_reported = "note: rk4" in report

    # lambda=0 equals the LUT-removed row metric-for-metric (same seed)
    acfg = AblationConfig(seed=7, n_pairs=4, size=16, epochs=4, width=4,
                          lut_size=5, steps=1, solver="euler")
    removed = run_suite("lut", acfg, lut_settings=("removed",))[0]
    lam_zero = run_suite("lambda", acfg, lambdas=(0.0,))[0]
    equal = (removed.mean_psnr == lam_zero.mean_psnr
             and removed.mean_ssim == lam_zero.mean_ssim
             and removed.final_val_l1 == lam_zero.final_val_l1)

    # the fixed-LUT suite never updates the grid
    fixed = run_suite("lut", acfg, lut_settings=("fixed",))[0]
    frozen = fixed.grid_checksum_before == fixed.grid_checksum_after

    ok = rc == 0 and suites_present and ordering_reported and equal and frozen
    verdict(7, "ablation wiring", ok,
            f"3 suites: {suites_present}; lambda0==removed: {equal}; "
            f"fixed grid frozen: {frozen}; solver ordering reported: "
            f"{ordering_reported}")
    assert rc == 0 and suites_present
    assert equal
    assert frozen
    assert ordering_reported


def test_criterion_08_metrics_oracle(rng):
    x = rng.uniform(0, 0.9, (3, 16, 16))
    offset_psnr = psnr(np.zeros((3, 16, 16)), np.full((3, 16, 16), 0.1))
    self_ssim = ssim(x, x)

    worst = 0.0
    for _ in range(100):
        a = rng.uniform(0, 1, (3, 14, 14))
        b = rng.uniform(0, 1, (3, 14, 14))
        worst = max(worst, abs(ssim(a, b) - naive_ssim(a, b)))

    ok = (abs(offset_psnr - 20.0) < 1e-6 and self_ssim == 1.0
          and worst < 1e-6)
    verdict(8, "metrics oracle", ok,
            f"psnr(0.1 offset) = {offset_psnr:.8f}, ssim self = {self_ssim}, "
            f"worst |ssim - naive| = {worst:.2e} over 100 pairs")
    assert abs(offset_psnr - 20.0) < 1e-6
    assert self_ssim == 1.0
    assert worst < 1e-6


def test_criterion_09_uhd_tiled_processing(rng):
    memory_budget = 2 * 1024 ** 3  # bytes, whole-process peak
    plan = TilePlan(tile=512, overlap=32)
    net = PurifierNet(width=4, seed=9)
    lut = identity_lut(17, requires_grad=False)
    cfg = FlowConfig(solver="euler", steps=1, lam=0.5)

    # blend weights sum to 1 at every pixel of the full UHD grid
    acc = np.zeros((2160, 3840))
    for (y0, y1), (x0, x1), wmap in blend_weight_maps(2160, 3840, plan):
        acc[y0:y1, x0:x1] += wmap
    weights_ok = bool(np.abs(acc - 1.0).max() < 1e-6)
    del acc

    yy, xx = np.mgrid[0:2160, 0:3840].astype(np.float32)
    image = np.stack([0.4 + 0.3 * xx / 3840, 0.5 + 0.2 * yy / 2160,
                      np.full_like(xx, 0.6)], axis=0)[None] / 1.2
    image = np.ascontiguousarray(image.astype(np.float32))
    del yy, xx

    t0 = time.perf_counter()
    output = dehaze(image, net, lut, cfg, plan)
    elapsed = time.perf_counter() - t0
    shape_ok = output.shape == (1, 3, 2160, 3840)
    range_ok = output.min() >= 0.0 and output.max() <= 1.0
    peak = peak_rss_bytes()
    memory_ok = peak < memory_budget
    del output, image

    # single-tile degenerate case is bit-identical to plain integrate
    small = rng.uniform(0, 1, (1, 3, 64, 64)).astype(np.float32)
    tiled_small = dehaze(small, net, lut, cfg, plan)
    with no_grad():
        untiled_small = integrate(Tensor(small), net, lut, cfg).output.data
    single_ok = np.array_equal(tiled_small, untiled_small)

    ok = weights_ok and shape_ok and range_ok and memory_ok and single_ok
    verdict(9, "UHD tiled processing", ok,
            f"3840x2160 in {elapsed:.1f}s, peak RSS {peak / 1e9:.2f} GB "
            f"(budget {memory_budget / 1e9:.1f} GB); weights sum to 1: "
            f"{weights_ok}; single tile bit-identical: {single_ok}")
    assert weights_ok and shape_ok and range_ok
    assert memory_ok
    assert single_ok


def test_criterion_10_checkpoint_persistence(tmp_path, rng):
    hazy, clean = make_toy_dataset(4, 16, seed=31)
    cfg = TrainConfig(lr=1e-3, epochs=3, batch_size=2, seed=31)
    flow_cfg = FlowConfig(solver="rk4", steps=2, lam=0.5)
    result = train_loop((hazy, clean), cfg, flow_cfg, PurifierNet(width=4, seed=31),
                        identity_lut(5))

    path = tmp_path / "model.hzf"
    save_checkpoint(str(path), result.net, result.lut, flow_cfg,
                    optimizer=result.optimizer, metadata={"seed": 31})
    ckpt = load_checkpoint(str(path))

    tensors_ok = all(
        np.array_equal(ckpt.net.params[name].data, p.data)
        for name, p in result.net.parameters().items())
    tensors_ok = tensors_ok and np.array_equal(ckpt.lut.grid.data,
                                               result.lut.grid.data)
    moments_ok = all(
        np.array_equal(ckpt.opt_state.m[n], result.optimizer.state.m[n])
        and np.array_equal(ckpt.opt_state.v[n], result.optimizer.state.v[n])
        for n in result.optimizer.state.m)

    probe = Tensor(rng.uniform(0, 1, (1, 3, 16, 16)).astype(np.float32))
    with no_grad():
        before = integrate(probe, result.net, result.lut, flow_cfg).output.data
        after = integrate(probe, ckpt.net, ckpt.lut, ckpt.flow).output.data
    dehaze_ok = np.array_equal(before, after)

    ok = tensors_ok and moments_ok and dehaze_ok
    verdict(10, "checkpoint persistence", ok,
            f"tensors bit-exact: {tensors_ok}; optimizer moments: "
            f"{moments_ok}; dehaze equal after reload: {dehaze_ok}")
    assert tensors_ok and moments_ok
    assert dehaze_ok
