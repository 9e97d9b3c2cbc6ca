#!/usr/bin/env python3
"""End-to-end toy experiment: synthesize haze, train, evaluate, save.

Trains on a small synthetic hazy/clean dataset through `hazeflow train`,
which writes the checkpoint and loss history into --out-dir, then loads
that checkpoint, reports PSNR/SSIM against the hazy baseline, and writes
a step-by-step trajectory of one example.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hazeflow import SOLVERS, dehaze, evaluate_pairs, make_toy_dataset
from hazeflow.checkpoint import load_checkpoint
from hazeflow.cli import main as hazeflow_main
from hazeflow.imgio import save_image


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--pairs", type=int, default=16)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--epochs", type=int, default=150)
    p.add_argument("--lr", type=float, default=2e-2)
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--lut-size", type=int, default=17)
    p.add_argument("--solver", default="euler", choices=SOLVERS)
    p.add_argument("--steps", type=int, default=2)
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=123)
    p.add_argument("--out-dir", default="toy_run")
    return p.parse_args()


def main():
    args = parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    hazy, clean = make_toy_dataset(args.pairs, args.size, args.seed)
    base = evaluate_pairs(hazy, clean)
    print(f"hazy baseline: psnr {base.mean_psnr:.2f} dB  ssim {base.mean_ssim:.4f}")

    ckpt_path = os.path.join(args.out_dir, "toy.hzf")
    status = hazeflow_main([
        "train", "--out", ckpt_path, "--loss-log", os.path.join(args.out_dir, "loss_history.txt"),
        "--synth-pairs", str(args.pairs), "--synth-size", str(args.size),
        "--epochs", str(args.epochs), "--lr", str(args.lr), "--width", str(args.width),
        "--lut-size", str(args.lut_size), "--solver", args.solver, "--steps", str(args.steps),
        "--lambda", str(args.lam), "--seed", str(args.seed)])
    if status:
        sys.exit(status)
    ckpt = load_checkpoint(ckpt_path)

    out = evaluate_pairs(dehaze(hazy, ckpt.net, ckpt.lut, ckpt.flow), clean)
    print(f"dehazed:       psnr {out.mean_psnr:.2f} dB  ssim {out.mean_ssim:.4f}")
    print(f"gain:          {out.mean_psnr - base.mean_psnr:+.2f} dB  "
          f"{out.mean_ssim - base.mean_ssim:+.4f}")

    frames = dehaze(hazy[:1], ckpt.net, ckpt.lut, ckpt.flow, trajectory=True)
    save_image(hazy[:1], os.path.join(args.out_dir, "step_000.png"))
    for i, frame in enumerate(frames, start=1):
        save_image(frame, os.path.join(args.out_dir, f"step_{i:03d}.png"))
    save_image(clean[:1], os.path.join(args.out_dir, "target.png"))
    print(f"checkpoint and trajectory written to {args.out_dir}/")


if __name__ == "__main__":
    main()
