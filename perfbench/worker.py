"""One workload process: set up, warm up, run closed-loop operations for a
fixed time, then check every output and report.

Run by run.py; prints READY on stdout when set-up is over and writes its
result as JSON to <workdir>/result.json. With --setup-only it exits right
after READY, so run.py can time set-up more than once.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIXTURE = os.path.join(HERE, "fixture", "model.hzf")
FIXTURE_SHA256 = "ccbdfe73ec67f40d084714ceafed3e04ed95169653e54f6b73da54cbe20a1243"

# dehaze: `hazeflow dehaze` on a PPM of height x width, with the given
# tiling and solver (None: the checkpoint's Euler x2). The warm-up allocates
# arrays of the timed sizes, so the heap has grown and malloc's mmap
# threshold has adapted before timing, at a small cost: one field
# evaluation at 512x512, two 256x256 tiles, one full training step
WORKLOADS = {
    "dehaze_512": dict(kind="dehaze", size=(512, 512), patch=16, tile=0,
                       solver=("rk4", 1), warm=(512, 512), warm_solver=("euler", 1)),
    "dehaze_hd_tiled": dict(kind="dehaze", size=(720, 1280), patch=20, tile=256,
                            solver=None, warm=(256, 288), warm_solver=None),
    "train_finetune": dict(kind="train", batch=4, size=64, patch=16, warm=(4, 64),
                           solver=("rk4", 2), lr=1e-3),
}
OVERLAP = 32

# float32 program vs float64 reference, 8-bit outputs: at most 1 LSB apart,
# and only where the reference sits next to a rounding boundary
MAX_LSB = 1
MAX_LSB_FRAC = 1e-3
# kinks (max-pool near-ties, clamps, LUT cell edges, the L1 sign) put up to
# 1.4% between float32 and float64 gradients of a correct step (40 seeds),
# and 2e-7 between the losses
LOSS_RTOL = 1e-5
GRAD_RTOL = 0.1


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
            "fixture_sha256": FIXTURE_SHA256}


class DehazeWorkload:
    """`cli.main(["dehaze", ...])` on a distinct seeded PPM per operation."""

    def __init__(self, spec, seed, workdir, ckpt):
        self.spec, self.seed, self.workdir = spec, seed, workdir
        self.ckpt = ckpt
        self.ops = []      # (input u8, clean, output path, exit code, message)

    def _paths(self, tag):
        return (os.path.join(self.workdir, f"in_{tag}.ppm"),
                os.path.join(self.workdir, f"out_{tag}.ppm"))

    def _dehaze(self, src, dst, solver):
        from hazeflow import cli

        argv = ["dehaze", src, dst, "--checkpoint", FIXTURE,
                "--tile", str(self.spec["tile"]), "--overlap", str(OVERLAP)]
        if solver:
            argv += ["--solver", solver[0], "--steps", str(solver[1])]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(argv)
        return code, out.getvalue().strip()

    def warm_up(self):
        from inputs import WARM_UP, make_pair, write_ppm

        hazy, _ = make_pair(self.seed, WARM_UP, *self.spec["warm"], self.spec["patch"])
        src, dst = self._paths("warm")
        write_ppm(src, hazy)
        self._dehaze(src, dst, self.spec["warm_solver"])

    def prepare(self, i):
        from inputs import make_pair, write_ppm

        hazy, clean = make_pair(self.seed, i, *self.spec["size"], self.spec["patch"])
        src, dst = self._paths(i)
        write_ppm(src, hazy)
        return hazy, clean, src, dst

    def run(self, prepared):
        hazy, clean, src, dst = prepared
        try:
            code, msg = self._dehaze(src, dst, self.spec["solver"])
        except Exception as exc:  # a failed operation is counted, not fatal
            code, msg = None, repr(exc)
        self.ops.append((hazy, clean, dst, code, msg))

    def pixels(self):
        h, w = self.spec["size"]
        return h * w

    def check(self, tracer, traced):
        """Per-op pass/fail against the float64 reference, plus quality."""
        import numpy as np
        from hazeflow import metrics
        from inputs import read_ppm
        from reference import Reference

        ck = self.ckpt
        solver, steps = self.spec["solver"] or (ck.flow.solver, ck.flow.steps)
        ref = Reference(ck.net.state(), ck.lut.grid.data, ck.lut.c_max,
                        solver, steps, ck.flow.lam)
        tile = self.spec["tile"]
        ok, problems, psnrs, ssims, l1s = [], [], [], [], []
        for i, (hazy, clean, dst, code, msg) in enumerate(self.ops):
            if code != 0:
                ok.append(False)
                problems.append(f"op {i}: exit code {code}: {msg}")
                continue
            try:
                out = read_ppm(dst)
            except (OSError, ValueError) as exc:
                ok.append(False)
                problems.append(f"op {i}: {exc}")
                continue
            x = (hazy.transpose(2, 0, 1)[None] / 255.0)
            want = ref.dehaze_tiled(x, tile, OVERLAP) if tile else ref.dehaze(x)
            want = np.rint(want[0].transpose(1, 2, 0) * 255.0)
            if out.shape != want.shape:
                ok.append(False)
                problems.append(f"op {i}: output shape {out.shape} != {want.shape}")
                continue
            diff = np.abs(out.astype(np.float64) - want)
            good = diff.max() <= MAX_LSB and np.mean(diff > 0) <= MAX_LSB_FRAC
            ok.append(bool(good))
            if not good:
                problems.append(f"op {i}: max diff {diff.max():.0f} LSB, "
                                f"{np.mean(diff > 0):.2e} of values differ")
            pred = out.transpose(2, 0, 1).astype(np.float32) / np.float32(255.0)
            tracer.active = i in traced
            psnrs.append(metrics.psnr(pred, clean))
            ssims.append(metrics.ssim(pred, clean))
            tracer.active = False
            l1s.append(float(np.mean(np.abs(pred - clean))))
        return ok, problems, psnrs, ssims, l1s


class TrainWorkload:
    """One AdamW step per operation, fine-tuning the fixture model."""

    def __init__(self, spec, seed, workdir, ckpt):
        from hazeflow import AdamW, FlowConfig

        self.spec, self.seed = spec, seed
        self.flow = FlowConfig(*spec["solver"], lam=ckpt.flow.lam)
        self.tracer = None
        self.net, self.lut = ckpt.net, ckpt.lut
        self.start_state = (self.net.state(), self.lut.grid.data.copy())
        params = dict(self.net.parameters())
        params["lut.grid"] = self.lut.grid
        self.params = params
        self.opt = AdamW(params, lr=spec["lr"])
        self.ops = []      # (hazy, clean, loss, clamped output, error)
        self.first_grads = None

    def _step(self, net, lut, opt, hazy, clean, span):
        from hazeflow import Tensor, integrate, l1_loss

        result = integrate(Tensor(hazy), net, lut, self.flow)
        with span("training.l1_loss"):
            loss = l1_loss(result.raw_final, Tensor(clean))
        with span("training.adamw"):
            opt.zero_grad()
        with span("training.backward"):
            loss.backward()
        with span("training.adamw"):
            opt.step()
        return loss, result.output

    def warm_up(self):
        from hazeflow import AdamW
        from hazeflow.checkpoint import load_checkpoint
        from inputs import WARM_UP, make_batch

        ck = load_checkpoint(FIXTURE)
        params = dict(ck.net.parameters())
        params["lut.grid"] = ck.lut.grid
        b, s = self.spec["warm"]
        hazy, clean = make_batch(self.seed, WARM_UP, b, s, self.spec["patch"])
        self._step(ck.net, ck.lut, AdamW(params, lr=self.spec["lr"]), hazy, clean,
                   lambda name: contextlib.nullcontext())

    def prepare(self, i):
        from inputs import make_batch

        return make_batch(self.seed, i, self.spec["batch"], self.spec["size"],
                          self.spec["patch"])

    def run(self, prepared):
        hazy, clean = prepared
        try:
            loss, output = self._step(self.net, self.lut, self.opt, hazy, clean,
                                      self.tracer.span)
        except Exception as exc:  # a failed step is counted, not fatal
            self.ops.append((hazy, clean, None, None, repr(exc)))
            return
        if not self.ops:  # kept for the float64 check; ~0.1 ms
            self.first_grads = {n: None if p.grad is None else p.grad.copy()
                                for n, p in self.params.items()}
        self.ops.append((hazy, clean, float(loss.data), output.data, None))

    def pixels(self):
        return self.spec["batch"] * self.spec["size"] ** 2

    def check(self, tracer, traced):
        import numpy as np
        from hazeflow import PurifierNet, Tensor, integrate, l1_loss, metrics
        from hazeflow.lut import Lut3D
        from reference import Reference

        ok, problems, psnrs, ssims, l1s = [], [], [], [], []
        for i, (_hazy, clean, loss, output, err) in enumerate(self.ops):
            good = err is None and bool(np.isfinite(loss))
            ok.append(good)
            if not good:
                problems.append(f"step {i}: {err or f'loss {loss}'}")
                continue
            l1s.append(loss)
            tracer.active = i in traced
            for pred, cl in zip(output, clean):
                psnrs.append(metrics.psnr(pred, cl))
                ssims.append(metrics.ssim(pred, cl))
            tracer.active = False
        if not self.ops or not ok[0]:
            return ok, problems, psnrs, ssims, l1s

        # first step again in float64: loss from the independent reference,
        # loss and gradients from hazeflow's own float64 path
        net_state, grid = self.start_state
        hazy, clean, loss32 = self.ops[0][:3]
        ref = Reference(net_state, grid, self.lut.c_max, self.flow.solver,
                        self.flow.steps, self.flow.lam)
        loss_ref = float(np.mean(np.abs(ref.integrate_raw(hazy.astype(np.float64))
                                        - clean)))
        net64 = PurifierNet(width=self.net.width, dtype=np.float64)
        net64.load_state(net_state)
        lut64 = Lut3D(Tensor(grid.astype(np.float64), requires_grad=True),
                      self.lut.c_max)
        res = integrate(Tensor(hazy.astype(np.float64)), net64, lut64, self.flow)
        loss64 = l1_loss(res.raw_final, Tensor(clean.astype(np.float64)))
        loss64.backward()
        grads64 = dict(net64.parameters())
        grads64["lut.grid"] = lut64.grid
        scale = max(float(np.linalg.norm(p.grad)) for p in grads64.values())
        bad = []
        for name, p in grads64.items():
            g32 = self.first_grads.get(name)
            if g32 is None:
                bad.append(f"{name}: no gradient")
                continue
            err = float(np.linalg.norm(g32 - p.grad))
            if err > GRAD_RTOL * float(np.linalg.norm(p.grad)) + 1e-4 * scale:
                bad.append(f"{name}: gradient error {err:.3g}")
        for name, want in (("reference", loss_ref), ("hazeflow float64", float(loss64.data))):
            if abs(loss32 - want) > LOSS_RTOL * abs(want):
                bad.append(f"loss {loss32:.8g} vs {name} {want:.8g}")
        if bad:
            ok[0] = False
            problems.append("step 0 vs float64: " + "; ".join(bad))
        return ok, problems, psnrs, ssims, l1s


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    os.environ.pop("HAZEFLOW_CONFIG", None)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import numpy as np
    import hazeflow
    from hazeflow import cli  # noqa: F401  (every module the CLI pulls in)
    from hazeflow.checkpoint import load_checkpoint
    from tracing import Tracer

    if not os.path.abspath(hazeflow.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"hazeflow imported from {hazeflow.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    try:
        digest = sha256(FIXTURE)
    except OSError as exc:
        digest = str(exc)
    if digest != FIXTURE_SHA256:
        print(f"{FIXTURE}: sha256 mismatch ({digest})", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    ckpt = load_checkpoint(FIXTURE)
    cls = DehazeWorkload if spec["kind"] == "dehaze" else TrainWorkload
    work = cls(spec, args.seed, args.workdir, ckpt)
    work.warm_up()
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer()
    work.tracer = tracer
    if args.trace:
        tracer.install()
    # closed loop, one client: the next operation starts when the last ends;
    # a traced run alternates untraced and traced operations
    times, traced = [], set()
    i = 0
    while not times or sum(times) < args.seconds or (args.trace and len(times) < 2):
        prepared = work.prepare(i)
        tracer.active = bool(args.trace) and i % 2 == 1
        if tracer.active:
            traced.add(i)
            tracer.op = i
        with tracer.span("op"):
            start = time.perf_counter()
            work.run(prepared)
            elapsed = time.perf_counter() - start
        tracer.active = False
        times.append(elapsed)
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ok, problems, psnrs, ssims, l1s = work.check(tracer, traced)
    for line in problems:
        print("check failed: " + line, file=sys.stderr)
    attempted = len(times)
    failed = attempted - sum(ok)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "env": environment(), "op_s": times}
    if args.trace:
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        untraced = [t for k, t in enumerate(times) if k not in traced]
        on = [t for k, t in enumerate(times) if k in traced]
        result["metrics"] = layer_metrics(tracer, len(traced),
                                          statistics.median(on) / statistics.median(untraced) - 1.0)
    else:
        result["metrics"] = {
            "op_s_p50": (statistics.median(times), "s"),
            "mpix_per_s": (work.pixels() * attempted / sum(times) / 1e6, "Mpix/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "psnr_db": (float(np.mean(psnrs)) if psnrs else 0.0, "dB"),
            "ssim": (float(np.mean(ssims)) if ssims else 0.0, "1"),
            "l1": (float(np.mean(l1s)) if l1s else 0.0, "1"),
        }
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


def layer_metrics(tracer, n_ops: int, overhead: float) -> dict:
    """Per-layer figures per traced operation."""
    tot = tracer.totals()
    cnt = tracer.counts
    n = max(n_ops, 1)

    def secs(name, kind="fwd", self_time=False):
        return tot[(name, kind)][1 if self_time else 0] / n if (name, kind) in tot else 0.0

    m = {}
    for op in ("conv2d", "upsample_bilinear2x", "gelu", "instance_norm",
               "maxpool2d", "concat_crop", "elementwise"):
        m[f"tensor.{op}.fwd_s"] = (secs(f"tensor.{op}"), "s/op")
        m[f"tensor.{op}.bwd_s"] = (secs(f"tensor.{op}", "bwd"), "s/op")
    conv_s = secs("tensor.conv2d")
    gmac = cnt["tensor.conv2d.macs"] / 1e9
    m["tensor.conv2d.calls"] = (cnt["tensor.conv2d.calls"] / n, "count/op")
    m["tensor.conv2d.gmac"] = (gmac / n, "GMAC/op")
    m["tensor.conv2d.gmac_per_s"] = (gmac / n / conv_s if conv_s else 0.0, "GMAC/s")
    m["tensor.elementwise.calls"] = (cnt["tensor.elementwise.calls"] / n, "count/op")
    m["tensor.spatial_attention.self_s"] = (secs("tensor.spatial_attention", self_time=True), "s/op")
    m["tensor.backward.self_s"] = (secs("tensor.backward", self_time=True), "s/op")
    m["tensor.bytes_out_gb"] = (cnt["tensor.bytes_out"] / 1e9 / n, "GB/op")
    m["lut.trilinear_apply.fwd_s"] = (secs("lut.trilinear_apply"), "s/op")
    m["lut.trilinear_apply.bwd_s"] = (secs("lut.trilinear_apply", "bwd"), "s/op")
    m["lut.trilinear_apply.calls"] = (cnt["lut.trilinear_apply.calls"] / n, "count/op")
    m["purifier.purify.self_s"] = (secs("purifier.purify", self_time=True), "s/op")
    m["flow.integrate.self_s"] = (secs("flow.integrate", self_time=True), "s/op")
    m["flow.field_evals"] = (cnt["flow.field_evals"] / n, "count/op")
    m["tiling.tiles"] = (cnt["tiling.tiles"] / n, "count/op")
    image_px = cnt["tiling.image_pixels"]
    m["tiling.pixel_ratio"] = (cnt["tiling.tile_pixels"] / image_px if image_px else 0.0, "ratio")
    m["tiling.blend_self_s"] = (secs("tiling.process_tiled", self_time=True), "s/op")
    for name in ("backward", "adamw", "l1_loss"):
        m[f"training.{name}_s"] = (secs(f"training.{name}"), "s/op")
    for name in ("psnr", "ssim"):
        m[f"metrics.{name}_s"] = (secs(f"metrics.{name}"), "s/op")
    for name in ("load", "save"):
        m[f"imgio.{name}_s"] = (secs(f"imgio.{name}"), "s/op")
    m["checkpoint.load_s"] = (secs("checkpoint.load"), "s/op")
    m["trace.overhead_frac"] = (overhead, "frac")
    return m


if __name__ == "__main__":
    sys.exit(main())
