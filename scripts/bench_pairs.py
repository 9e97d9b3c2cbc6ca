#!/usr/bin/env python3
"""Parent/change benchmark pairs, recorded as one BENCH_<tag>.json file.

    python scripts/bench_pairs.py --parent ../parent --change ../change \
        --seed-base 6001 --out BENCH_mytag.json

`--parent` and `--change` are two checkouts of the repository (clones or
exported trees, each with its own `src/` and `perfbench/`). For every
workload in BENCHMARK.json the script runs 10 pairs of
`perfbench/run.py --trace 0` in both, at the declared `run_seconds`, one
seed per pair, alternating which side goes first so that slow drift of
the machine's load falls on both sides alike. Seeds are consecutive from
`--seed-base`, 100 apart per workload; use seeds that development runs
did not. It then runs, once per side:

- one traced run (`--trace 1`) per workload, seed `--seed-base` + 900,
  for the per-layer figures;
- the tier-1 test suite, for its wall time and summary line.

Then it runs `hazeflow dehaze` from file to file on one seeded 3840x2160
PPM (seed `--seed-base` + 800) with the perfbench fixture checkpoint,
`--tile 512 --overlap 32 --solver euler --steps 1`, in 10 alternating
pairs, recording each child's wall time and `ru_maxrss`, whether the two
sides wrote byte-equal files and how many bytes differ.

Before the pairs, a child process in each checkout computes the sha256 of
three identity sets, from the fixture checkpoint and the perfbench inputs
(`make_pair`/`make_batch`, seed `--seed-base` + 700):

- the float32 `dehaze` output of a 512x512 input, untiled, at RK4 x1;
- the float32 `dehaze` output of a 1280x720 input with `TilePlan(256, 32)`
  at the checkpoint's Euler x2;
- the parameters after 5 AdamW steps (lr 1e-3) on 4x64x64 batches through
  RK4 x2.

Both hashes and whether they are equal are recorded per set; where they
differ, so does the largest absolute difference between the two sides'
arrays, as `max_abs_diff`. A child
process in each checkout also records, under `graph_peak_mib`, the
tracemalloc peak of one fixture training step (forward and backward,
batch 4, inputs of seed `--seed-base` + 700) at 64x64 RK4 x2 and at
96x96 RK4 x4: the memory the autodiff graph holds.

The output holds, per side and metric, the median and quartiles of the
pairs, how many pairs the change won on each end-to-end metric (direction
from BENCHMARK.json), the failed/attempted counts, the seeds, the commit
and `src/` tree ids of both checkouts with their `src/hazeflow/*.py` line
counts, and perfbench's `env` line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

SIDES = ("parent", "change")
PAIRS = 10
UHD_DEHAZE_ARGS = ["--checkpoint", "perfbench/fixture/model.hzf", "--tile", "512",
                   "--overlap", "32", "--solver", "euler", "--steps", "1"]
# runs the CLI, then prints the process's own peak RSS (KiB) on stderr
CLI_CHILD = ("import resource, sys; from hazeflow.cli import main; "
             "code = main(sys.argv[1:]); print(resource.getrusage("
             "resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr); sys.exit(code)")
# prints bench_pairs.<argv[2]>(seed, *argv[4:]) as JSON, with the checkout's
# own hazeflow and perfbench inputs (cwd is the checkout)
CHECKOUT_CHILD = ("import json, sys; sys.path[:0] = [sys.argv[1], 'perfbench']; "
                  "import bench_pairs; print(json.dumps(getattr(bench_pairs, sys.argv[2])"
                  "(int(sys.argv[3]), *sys.argv[4:])))")
# graph_peaks: (image size, RK4 steps) of each batch-4 training step
GRAPH_STEPS = {"4x64x64_rk4x2": (64, 2), "4x96x96_rk4x4": (96, 4)}


def run(cmd, cwd, timeout=1800):
    env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=timeout)
    return proc, time.perf_counter() - t0


def git_ids(path):
    ids = {}
    for key, rev in (("commit", "HEAD"), ("src_tree", "HEAD:src")):
        proc = subprocess.run(["git", "rev-parse", rev], cwd=path,
                              capture_output=True, text=True)
        ids[key] = proc.stdout.strip() if proc.returncode == 0 else None
    dirty = subprocess.run(["git", "status", "--porcelain", "src", "perfbench"],
                           cwd=path, capture_output=True, text=True)
    ids["src_clean"] = dirty.returncode == 0 and not dirty.stdout.strip()
    # what `wc -l src/hazeflow/*.py` totals
    ids["src_lines"] = sum(p.read_bytes().count(b"\n")
                           for p in pathlib.Path(path, "src", "hazeflow").glob("*.py"))
    return ids


def perfbench(path, workload, seed, trace, seconds):
    proc, _ = run([sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)], path)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench {workload} seed {seed} in {path} "
                           f"failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    return json.loads(lines[-1]), env


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "values": values}


def measure_pairs(args, declared, directions):
    out, env = {}, None
    for w_index, workload in enumerate(w["name"] for w in declared["workloads"]):
        seeds = [args.seed_base + 100 * w_index + i for i in range(PAIRS)]
        runs = {side: [] for side in SIDES}
        for i, seed in enumerate(seeds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                result, env = perfbench(getattr(args, side), workload, seed, 0,
                                        declared["run_seconds"])
                runs[side].append(result)
                value = result["metrics"]["op_s_p50"]["value"]
                print(f"{workload} seed {seed} {side}: op_s_p50 {value:.3f}",
                      flush=True)
        entry = {"seeds": seeds, "first": [SIDES[i % 2] for i in range(len(seeds))]}
        for side in SIDES:
            metrics = runs[side][0]["metrics"]
            entry[side] = {
                name: summary([r["metrics"][name]["value"] for r in runs[side]])
                for name in metrics}
            entry[side]["failed"] = sum(r["failed"] for r in runs[side])
            entry[side]["attempted"] = sum(r["attempted"] for r in runs[side])
        entry["change_wins"] = {}
        for name, better in directions.items():
            pairs = zip(entry["parent"][name]["values"],
                        entry["change"][name]["values"])
            entry["change_wins"][name] = sum(
                (c < p) if better == "lower" else (c > p) for p, c in pairs)
        out[workload] = entry
    return out, env


def measure_traced(args, workloads, seconds):
    out, seed = {}, args.seed_base + 900
    for workload in workloads:
        out[workload] = {"seed": seed}
        for side in SIDES:
            result, _ = perfbench(getattr(args, side), workload, seed, 1, seconds)
            out[workload][side] = {name: m["value"]
                                   for name, m in result["metrics"].items()}
            print(f"{workload} traced {side} done", flush=True)
    return out


def hazeflow(path, args):
    """`hazeflow <args>` in a child: (wall s, the child's peak RSS MiB)."""
    proc, wall = run([sys.executable, "-c", CLI_CHILD, *args], path)
    if proc.returncode != 0:
        raise RuntimeError(f"hazeflow {args[0]} in {path} failed:\n{proc.stderr}")
    return wall, int(proc.stderr.split()[-1]) / 1024.0


def measure_uhd_dehaze(args):
    seed = args.seed_base + 800
    pixels = np.random.default_rng(seed).integers(0, 256, (2160, 3840, 3),
                                                  dtype=np.uint8)
    runs = {side: {"wall_s": [], "peak_rss_mib": []} for side in SIDES}
    differing = []
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "uhd.ppm")
        with open(src, "wb") as fh:
            fh.write(b"P6\n3840 2160\n255\n" + pixels.tobytes())
        for i in range(PAIRS):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                dst = os.path.join(tmp, f"{side}.ppm")
                wall, rss = hazeflow(getattr(args, side),
                                     ["dehaze", src, dst, *UHD_DEHAZE_ARGS])
                runs[side]["wall_s"].append(wall)
                runs[side]["peak_rss_mib"].append(rss)
                print(f"uhd dehaze pair {i} {side}: {wall:.1f} s, "
                      f"{rss:.0f} MiB", flush=True)
            differing.append(differing_bytes(os.path.join(tmp, "parent.ppm"),
                                             os.path.join(tmp, "change.ppm")))
    entry = {"command": "hazeflow dehaze <seeded 3840x2160 PPM> <out> "
                        + " ".join(UHD_DEHAZE_ARGS),
             "seed": seed, "first": [SIDES[i % 2] for i in range(PAIRS)],
             "outputs_byte_equal": [n == 0 for n in differing],
             "differing_bytes": differing, "change_wins": {}}
    for side in SIDES:
        entry[side] = {name: summary(values) for name, values in runs[side].items()}
    for name in runs["parent"]:
        entry["change_wins"][name] = sum(
            c < p for p, c in zip(runs["parent"][name], runs["change"][name]))
    return entry


def differing_bytes(path_a, path_b):
    """How many bytes two files differ in; a length difference counts in full."""
    a, b = np.fromfile(path_a, dtype=np.uint8), np.fromfile(path_b, dtype=np.uint8)
    n = min(a.size, b.size)
    return int(np.count_nonzero(a[:n] != b[:n])) + abs(a.size - b.size)


def identity_hashes(seed, save_to=None):
    """sha256 of the three identity sets, computed by the imported hazeflow.

    With `save_to`, the sets' arrays also go to that .npz file, keyed
    "<set>.<index>".
    """
    from hazeflow import AdamW, FlowConfig, Tensor, TilePlan, dehaze, integrate, l1_loss
    from hazeflow.checkpoint import load_checkpoint
    from inputs import make_batch, make_pair

    def sha256(arrays):
        h = hashlib.sha256()
        for a in arrays:
            h.update(f"{a.dtype} {a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()

    def image(height, width, patch):
        hazy, _ = make_pair(seed, 0, height, width, patch)
        return hazy.transpose(2, 0, 1)[None].astype(np.float32) / np.float32(255.0)

    ck = load_checkpoint("perfbench/fixture/model.hzf")
    sets = {
        "dehaze_512_rk4x1": [dehaze(image(512, 512, 16), ck.net, ck.lut,
                                    FlowConfig("rk4", 1, ck.flow.lam))],
        "dehaze_hd_tiled": [dehaze(image(720, 1280, 20), ck.net, ck.lut,
                                   ck.flow, TilePlan(256, 32))],
    }
    params = dict(ck.net.parameters())
    params["lut.grid"] = ck.lut.grid
    opt, flow = AdamW(params, lr=1e-3), FlowConfig("rk4", 2, ck.flow.lam)
    for i in range(5):
        hazy, clean = make_batch(seed, i, 4, 64, 16)
        loss = l1_loss(integrate(Tensor(hazy), ck.net, ck.lut, flow).raw_final,
                       Tensor(clean))
        opt.zero_grad()
        loss.backward()
        opt.step()
    sets["adamw_5_steps"] = [params[name].data for name in sorted(params)]
    if save_to:
        np.savez(save_to, **{f"{name}.{i}": a for name, arrays in sets.items()
                             for i, a in enumerate(arrays)})
    return {name: sha256(arrays) for name, arrays in sets.items()}


def max_abs_diff(saved, name):
    """Largest |parent - change| over one identity set's saved arrays; None
    when the two sides' arrays differ in number or shape."""
    with np.load(saved["parent"]) as p, np.load(saved["change"]) as c:
        keys = sorted(k for k in p.files if k.rsplit(".", 1)[0] == name)
        if keys != sorted(k for k in c.files if k.rsplit(".", 1)[0] == name) \
                or any(p[k].shape != c[k].shape for k in keys):
            return None
        return max(float(np.max(np.abs(p[k].astype(np.float64) - c[k]), initial=0.0))
                   for k in keys)


def graph_peaks(seed):
    """tracemalloc peak (MiB) of one fixture training step per GRAPH_STEPS shape."""
    import tracemalloc

    from hazeflow import FlowConfig, Tensor, integrate, l1_loss
    from hazeflow.checkpoint import load_checkpoint
    from inputs import make_batch

    ck, peaks = load_checkpoint("perfbench/fixture/model.hzf"), {}
    for name, (size, steps) in GRAPH_STEPS.items():
        hazy, clean = make_batch(seed, 0, 4, size, 16)
        for p in [*ck.net.parameters().values(), ck.lut.grid]:
            p.zero_grad()
        tracemalloc.start()
        try:
            result = integrate(Tensor(hazy), ck.net, ck.lut,
                               FlowConfig("rk4", steps, ck.flow.lam))
            l1_loss(result.raw_final, Tensor(clean)).backward()
            peaks[name] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return peaks


def in_checkout(args, side, function, seed, *extra):
    """bench_pairs.<function>(seed, *extra), run by a child in the side's checkout."""
    proc, _ = run([sys.executable, "-c", CHECKOUT_CHILD,
                   os.path.dirname(os.path.abspath(__file__)), function, str(seed),
                   *extra], getattr(args, side))
    if proc.returncode != 0:
        raise RuntimeError(f"{function} in {getattr(args, side)} "
                           f"failed:\n{proc.stderr}")
    print(f"{function} {side} done", flush=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_identity(args):
    seed = args.seed_base + 700
    entry = {"seed": seed}
    with tempfile.TemporaryDirectory() as tmp:
        saved = {side: os.path.join(tmp, f"{side}.npz") for side in SIDES}
        hashes = {side: in_checkout(args, side, "identity_hashes", seed, saved[side])
                  for side in SIDES}
        for name in hashes["parent"]:
            entry[name] = {side: hashes[side][name] for side in SIDES}
            entry[name]["equal"] = hashes["parent"][name] == hashes["change"][name]
            if not entry[name]["equal"]:
                entry[name]["max_abs_diff"] = max_abs_diff(saved, name)
    return entry


def measure_tier1(path):
    proc, wall = run([sys.executable, "-m", "pytest", "-q", "-p",
                      "no:cacheprovider", "--continue-on-collection-errors"],
                     path, timeout=3600)
    return {"wall_s": wall, "summary": proc.stdout.strip().splitlines()[-1]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", required=True, help="checkout of the parent")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--seed-base", type=int, required=True)
    p.add_argument("--out", required=True, help="the BENCH_<tag>.json to write")
    args = p.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    directions = {m["name"]: m["better"] for m in declared["end_to_end"]}

    record = {"seconds": declared["run_seconds"], "pairs": PAIRS}
    for side in SIDES:
        record[side] = git_ids(getattr(args, side))
    record["identity"] = measure_identity(args)
    record["graph_peak_mib"] = {
        side: in_checkout(args, side, "graph_peaks", args.seed_base + 700)
        for side in SIDES}
    record["workloads"], record["env"] = measure_pairs(args, declared, directions)
    record["traced"] = measure_traced(args, list(record["workloads"]),
                                      declared["run_seconds"])
    record["uhd_dehaze"] = measure_uhd_dehaze(args)
    record["tier1"] = {side: measure_tier1(getattr(args, side)) for side in SIDES}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
