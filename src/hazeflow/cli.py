"""Command-line interface: train, dehaze, eval, bench, ablate.

Options can come from a plain key=value config file (--config, or the
HAZEFLOW_CONFIG environment variable); explicit flags win. Exit codes:
0 success, 1 usage error, 2 data error, 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys

import numpy as np

from .ablation import SUITES, AblationConfig, format_report, run_all, run_suite, write_reports
from .bench import run_bench
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError, DataError, DivergenceError, HazeflowError
from .flow import SOLVERS, FlowConfig
from .imgio import image_writer, load_image, save_image
from .lut import identity_lut
from .metrics import evaluate_pairs
from .purifier import PurifierNet
from .tiling import TilePlan, dehaze
from .training import TrainConfig, history_table, make_toy_dataset, train_loop

CONFIG_ENV_VAR = "HAZEFLOW_CONFIG"


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _load_pair_dirs(hazy_dir: str, clean_dir: str):
    if not os.path.isdir(hazy_dir):
        raise DataError(f"not a directory: {hazy_dir}")
    if not os.path.isdir(clean_dir):
        raise DataError(f"not a directory: {clean_dir}")
    names = sorted(set(os.listdir(hazy_dir)) & set(os.listdir(clean_dir)))
    names = [n for n in names
             if os.path.splitext(n)[1].lower() in (".ppm", ".pnm", ".png",
                                                   ".jpg", ".jpeg", ".bmp")]
    if not names:
        raise DataError(
            f"no matching image pairs between {hazy_dir} and {clean_dir}")
    return (names, [os.path.join(hazy_dir, n) for n in names],
            [os.path.join(clean_dir, n) for n in names])


def _settings(cls, args, base=None):
    """`base or cls()`, with every field whose flag was given."""
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
             if getattr(args, f.name, None) is not None}
    return dataclasses.replace(base or cls(), **given)


def _check_out(path: str, flag: str) -> None:
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise DataError(f"cannot write {path}: its directory does not exist")
    if os.path.isdir(path):
        raise DataError(f"cannot write {flag} {path}: it is a directory")


def cmd_train(args) -> int:
    # every check, the model and the data come before --loss-log is
    # opened, which truncates it, and any output after
    cfg = _settings(TrainConfig, args)
    flow_cfg = _settings(FlowConfig, args)
    if bool(args.hazy_dir) != bool(args.clean_dir):
        raise ConfigError("train needs --hazy-dir and --clean-dir together")
    _check_out(args.out, "--out")
    net = PurifierNet(width=args.width, seed=cfg.seed)
    lut = identity_lut(args.lut_size) if flow_cfg.lam > 0 else None
    pairs, source = _training_pairs(args, cfg.seed)
    with open(args.loss_log, "w", encoding="ascii") if args.loss_log \
            else contextlib.nullcontext() as log:
        print(source)
        result = train_loop(pairs, cfg, flow_cfg, net=net, lut=lut)
        print(history_table(result.history), file=log)
    print(f"best val L1 {result.best_val:.6f} at epoch {result.best_epoch}")

    save_checkpoint(args.out, result.net, result.lut, flow_cfg,
                    optimizer=result.optimizer,
                    metadata={"seed": cfg.seed, "epoch": len(result.history),
                              "best_val_loss": result.best_val,
                              "best_epoch": result.best_epoch})
    print(f"checkpoint written to {args.out}")
    return 0


def _training_pairs(args, seed: int):
    """(hazy, clean) arrays, and a line that says where they came from."""
    if args.hazy_dir:
        names, hazy_paths, clean_paths = _load_pair_dirs(args.hazy_dir, args.clean_dir)
        hazy_list = [load_image(p) for p in hazy_paths]
        clean_list = [load_image(p) for p in clean_paths]
        shapes = {im.shape for im in hazy_list + clean_list}
        if len(shapes) != 1:
            raise DataError(f"training images disagree in shape: {shapes}")
        pairs = (np.concatenate(hazy_list, axis=0), np.concatenate(clean_list, axis=0))
        return pairs, f"loaded {len(names)} pairs from {args.hazy_dir}"
    pairs = make_toy_dataset(args.synth_pairs, args.synth_size, seed)
    return pairs, (f"generated {args.synth_pairs} synthetic pairs "
                   f"({args.synth_size}x{args.synth_size})")


def _load_model(args):
    if not args.checkpoint:  # not argparse's required: a config file may give it
        raise ConfigError(f"{args.command} needs --checkpoint")
    ckpt = load_checkpoint(args.checkpoint)
    flow_cfg = _settings(FlowConfig, args, ckpt.flow)
    if args.lam and ckpt.lut is None:
        raise ConfigError(f"{args.checkpoint} holds no LUT for --lambda {args.lam} to weight")
    return ckpt.net, ckpt.lut, flow_cfg


def cmd_dehaze(args) -> int:
    _check_out(args.output, "output")
    image_writer(args.output)  # a format that needs Pillow fails here, not after the work
    net, lut, flow_cfg = _load_model(args)
    image = load_image(args.input)

    if args.record_trajectory:
        os.makedirs(args.record_trajectory, exist_ok=True)
        save_image(image, os.path.join(args.record_trajectory, "step_000.png"))
    plan = TilePlan(tile=args.tile, overlap=args.overlap) if args.tile else None
    frames = dehaze(image, net, lut, flow_cfg, plan, bool(args.record_trajectory))
    if args.record_trajectory:
        for i, frame in enumerate(frames, start=1):
            save_image(frame, os.path.join(args.record_trajectory, f"step_{i:03d}.png"))

    save_image(frames[-1], args.output)
    print(f"dehazed {args.input} -> {args.output} "
          f"({flow_cfg.solver}, {flow_cfg.steps} steps, lambda {flow_cfg.lam})")
    return 0


def cmd_eval(args) -> int:
    if not args.clean_dir:
        raise ConfigError("eval needs --clean-dir")
    if bool(args.pred_dir) == bool(args.hazy_dir):
        raise ConfigError("eval needs one of --pred-dir and --hazy-dir")
    if args.out:
        _check_out(args.out, "--out")
    if args.pred_dir:
        names, preds, refs = _load_pair_dirs(args.pred_dir, args.clean_dir)
        report = evaluate_pairs(map(load_image, preds), map(load_image, refs), names)
    else:
        net, lut, flow_cfg = _load_model(args)
        names, hazy, clean = _load_pair_dirs(args.hazy_dir, args.clean_dir)
        baseline = evaluate_pairs(map(load_image, hazy), map(load_image, clean), names)
        print("input baseline:")
        print(baseline.key_value_lines(prefix="input_"))
        # the plan `hazeflow dehaze` runs with its default flags
        report = evaluate_pairs((dehaze(load_image(p), net, lut, flow_cfg, TilePlan())
                                 for p in hazy), map(load_image, clean), names)

    text = report.format_table() + "\n" + report.key_value_lines()
    print(text)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    return 0


def cmd_bench(args) -> int:
    net, lut, flow_cfg = _load_model(args)
    plan = TilePlan(tile=args.tile, overlap=args.overlap) if args.tile else None
    report = run_bench(args.height, args.width_px, net, lut, flow_cfg, plan)
    print(report.format())
    print(report.key_value_lines())
    return 0


def cmd_ablate(args) -> int:
    acfg = _settings(AblationConfig, args)
    if args.out_dir:  # before the first row trains
        os.makedirs(args.out_dir, exist_ok=True)
    results = (run_all(acfg) if args.suite == "all"
               else {args.suite: run_suite(args.suite, acfg)})
    print(format_report(results))
    if args.out_dir:
        paths = write_reports(results, args.out_dir)
        print("reports written: " + ", ".join(paths))
    return 0


# ---------------------------------------------------------------------------
# parser and config-file plumbing
# ---------------------------------------------------------------------------


def _add_flow_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--steps", type=int, default=None, help="solver steps")
    p.add_argument("--solver", choices=SOLVERS, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="LUT weight in the vector field")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hazeflow",
        description="Image dehazing via ODE integration of a haze-aware "
                    "vector field (CNN purifier + learnable 3D LUT).")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=os.environ.get(CONFIG_ENV_VAR),
                        help=f"key=value config file (default: ${CONFIG_ENV_VAR})")

    # flags without a default (None) take the field default of TrainConfig,
    # AblationConfig or FlowConfig (`_settings`)
    p = sub.add_parser("train", parents=[common], help="train purifier + LUT")
    p.add_argument("--out", default="checkpoint.hzf")
    for flag, kind in (("--epochs", int), ("--lr", float), ("--weight-decay", float),
                       ("--batch-size", int), ("--patience", int), ("--factor", float)):
        p.add_argument(flag, type=kind)
    p.add_argument("--hazy-dir", default=None)
    p.add_argument("--clean-dir", default=None)
    p.add_argument("--synth-pairs", type=int, default=16)
    p.add_argument("--synth-size", type=int, default=32)
    p.add_argument("--loss-log", default=None)
    p.add_argument("--width", type=int, default=16, help="purifier width")
    p.add_argument("--lut-size", type=int, default=33, help="LUT bins per channel")
    p.add_argument("--seed", type=int)
    _add_flow_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("dehaze", parents=[common], help="dehaze one image")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--checkpoint", default=None, help="required; a config may give it")
    p.add_argument("--tile", type=int, default=TilePlan.tile,
                   help="tile size for large images; 0 disables tiling")
    p.add_argument("--overlap", type=int, default=TilePlan.overlap)
    p.add_argument("--record-trajectory", default=None, metavar="DIR",
                   help="write step_000.png .. step_NNN.png")
    _add_flow_flags(p)
    p.set_defaults(func=cmd_dehaze)

    p = sub.add_parser("eval", parents=[common],
                       help="metric table over paired directories")
    p.add_argument("--checkpoint", default=None, help="required with --hazy-dir")
    p.add_argument("--hazy-dir", default=None)
    p.add_argument("--pred-dir", default=None,
                   help="already-dehazed images; skips the model")
    p.add_argument("--clean-dir", default=None, help="required; a config may give it")
    p.add_argument("--out", default=None)
    _add_flow_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", parents=[common], help="timing / memory / MAC report")
    p.add_argument("--checkpoint", default=None, help="required; a config may give it")
    p.add_argument("--height", type=int, default=2160)
    p.add_argument("--width", dest="width_px", type=int, default=3840)
    p.add_argument("--tile", type=int, default=TilePlan.tile)
    p.add_argument("--overlap", type=int, default=TilePlan.overlap)
    _add_flow_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("ablate", parents=[common], help="run ablation suites")
    p.add_argument("suite", choices=(*SUITES, "all"))
    p.add_argument("--out-dir", default=None)
    p.add_argument("--pairs", dest="n_pairs", type=int)
    for flag in ("--seed", "--size", "--epochs", "--width", "--lut-size", "--steps"):
        p.add_argument(flag, type=int)
    p.set_defaults(func=cmd_ablate)

    return parser


def _read_config_flags(path: str) -> list[tuple[int, str, str]]:
    """(line number, key, "--key=value") per setting line of a config file."""
    if not os.path.exists(path):
        raise DataError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: config file is not UTF-8 text") from exc
    flags = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise DataError(f"{path}:{lineno}: expected key=value")
        if "config".startswith(key.replace("_", "-")):  # --config or a prefix of it
            raise DataError(f"{path}:{lineno}: a config file cannot set config")
        flags.append((lineno, key, f"--{key.replace('_', '-')}={value}"))
    return flags


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # later occurrences win in argparse, so the file's flags go
            # after the subcommand and before argv's own. argparse leaves a
            # flag the subcommand lacks unparsed, or takes it for a positional
            settings = _read_config_flags(args.config)
            argv[1:1] = [flag for _, _, flag in settings]
            known, extra = parser.parse_known_args(argv)
            for lineno, key, flag in settings:
                if flag in extra or flag in vars(known).values():
                    raise DataError(f"{args.config}:{lineno}: "
                                    f"{args.command} has no setting '{key}'")
            args = parser.parse_args(argv)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1

    try:
        with np.errstate(all="ignore"):  # non-finite values end in DivergenceError
            return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"divergence: {exc} (step {exc.step})", file=sys.stderr)
        return 3
    except (DataError, OSError) as exc:  # OSError: a file the system refused
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except HazeflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
