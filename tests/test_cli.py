"""Command-line surface: subcommands, config file, exit codes, determinism."""

import json
import os
import re
import shlex
import struct
import subprocess
import sys
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hazeflow import cli
from hazeflow.ablation import AblationConfig
from hazeflow.bench import purifier_macs
from hazeflow.checkpoint import FORMAT_VERSION, MAGIC, load_checkpoint, save_checkpoint
from hazeflow.cli import main
from hazeflow.flow import SOLVERS, FlowConfig
from hazeflow.imgio import load_image, save_image
from hazeflow.lut import identity_lut
from hazeflow.metrics import evaluate_pairs
from hazeflow.purifier import PurifierNet
from hazeflow.tiling import TilePlan, dehaze
from hazeflow.training import TrainConfig


@pytest.fixture
def hazy_ppm(tmp_path, rng):
    img = rng.uniform(0.3, 0.9, (1, 3, 24, 24)).astype(np.float32)
    path = tmp_path / "hazy.ppm"
    save_image(img, str(path))
    return path


@pytest.fixture(scope="module")
def bench_checkpoint(tmp_path_factory):
    # untrained and module-scoped: Hypothesis rejects function-scoped fixtures
    path = tmp_path_factory.mktemp("bench") / "bench.hzf"
    save_checkpoint(str(path), PurifierNet(width=2), identity_lut(3),
                    FlowConfig(solver="euler", steps=1))
    return path


@pytest.fixture
def tiny_checkpoint(tmp_path):
    path = tmp_path / "tiny.hzf"
    rc = main(["train", "--out", str(path), "--epochs", "2",
               "--synth-pairs", "2", "--synth-size", "16",
               "--width", "4", "--lut-size", "5",
               "--solver", "euler", "--steps", "1", "--seed", "3",
               "--loss-log", str(tmp_path / "loss.txt")])
    assert rc == 0
    return path


class TestTrain:
    def test_writes_checkpoint_and_loss_log(self, tmp_path, tiny_checkpoint):
        assert tiny_checkpoint.exists()
        log = (tmp_path / "loss.txt").read_text()
        assert "train_l1" in log and len(log.splitlines()) == 3

    def test_train_on_image_directories(self, tmp_path, rng):
        hazy_dir = tmp_path / "hazy"
        clean_dir = tmp_path / "clean"
        hazy_dir.mkdir()
        clean_dir.mkdir()
        for i in range(2):
            img = rng.uniform(0.2, 0.8, (1, 3, 16, 16)).astype(np.float32)
            save_image(img, str(hazy_dir / f"{i}.ppm"))
            save_image(np.clip(img - 0.1, 0, 1), str(clean_dir / f"{i}.ppm"))
        out = tmp_path / "dirs.hzf"
        rc = main(["train", "--out", str(out), "--epochs", "1",
                   "--hazy-dir", str(hazy_dir), "--clean-dir", str(clean_dir),
                   "--width", "4", "--lut-size", "5", "--solver", "euler",
                   "--steps", "1"])
        assert rc == 0 and out.exists()


class TestDehaze:
    def test_output_written(self, tmp_path, hazy_ppm, tiny_checkpoint):
        out = tmp_path / "clear.ppm"
        rc = main(["dehaze", str(hazy_ppm), str(out),
                   "--checkpoint", str(tiny_checkpoint)])
        assert rc == 0 and out.exists()
        img = load_image(str(out))
        assert img.shape == (1, 3, 24, 24)

    def test_deterministic_output_bytes(self, tmp_path, hazy_ppm,
                                        tiny_checkpoint):
        outs = []
        for name in ("a.ppm", "b.ppm"):
            out = tmp_path / name
            rc = main(["dehaze", str(hazy_ppm), str(out),
                       "--checkpoint", str(tiny_checkpoint)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_trajectory_recording(self, tmp_path, hazy_ppm, tiny_checkpoint):
        traj = tmp_path / "steps"
        rc = main(["dehaze", str(hazy_ppm), str(tmp_path / "out.ppm"),
                   "--checkpoint", str(tiny_checkpoint),
                   "--steps", "3", "--record-trajectory", str(traj)])
        assert rc == 0
        names = sorted(os.listdir(traj))
        assert names == ["step_000.png", "step_001.png", "step_002.png",
                         "step_003.png"]

    def test_trajectory_follows_tiling(self, tmp_path, tiny_checkpoint, rng):
        # an image larger than --tile: the frames come from the tiled run,
        # and the last one is the output, which the flag does not change
        src = tmp_path / "big.ppm"
        save_image(rng.uniform(0.2, 0.8, (1, 3, 40, 52)).astype(np.float32), str(src))
        common = ["--checkpoint", str(tiny_checkpoint), "--tile", "32",
                  "--overlap", "8", "--solver", "euler", "--steps", "3"]
        traj = tmp_path / "steps"
        assert main(["dehaze", str(src), str(tmp_path / "a.ppm"), *common,
                     "--record-trajectory", str(traj)]) == 0
        assert main(["dehaze", str(src), str(tmp_path / "b.ppm"), *common]) == 0
        assert sorted(os.listdir(traj)) == [f"step_{i:03d}.png" for i in range(4)]
        out = load_image(str(tmp_path / "a.ppm"))
        assert np.array_equal(load_image(str(traj / "step_003.png")), out)
        assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()

    def test_tiled_path(self, tmp_path, tiny_checkpoint, rng):
        big = rng.uniform(0.2, 0.8, (1, 3, 40, 52)).astype(np.float32)
        src = tmp_path / "big.ppm"
        save_image(big, str(src))
        out = tmp_path / "big_out.ppm"
        rc = main(["dehaze", str(src), str(out),
                   "--checkpoint", str(tiny_checkpoint),
                   "--tile", "32", "--overlap", "8"])
        assert rc == 0 and out.exists()

    def test_missing_input_is_data_error(self, tmp_path, tiny_checkpoint):
        rc = main(["dehaze", str(tmp_path / "absent.ppm"),
                   str(tmp_path / "out.ppm"),
                   "--checkpoint", str(tiny_checkpoint)])
        assert rc == 2

    @pytest.mark.parametrize("size", [b"-1 -1", b"0 0"])
    def test_ppm_without_pixels_is_data_error(self, tmp_path, tiny_checkpoint,
                                              capsys, size):
        bad = tmp_path / "empty.ppm"
        bad.write_bytes(b"P6\n" + size + b"\n255\n" + bytes(12))
        rc = main(["dehaze", str(bad), str(tmp_path / "out.ppm"),
                   "--checkpoint", str(tiny_checkpoint)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("data error:") and err.count("\n") == 1

    def test_corrupt_png_input_is_data_error(self, tmp_path, tiny_checkpoint,
                                             capsys):
        bad = tmp_path / "bad.png"
        bad.write_bytes(b"\x89PNG\r\n\x1a\n" + b"\x00" * 20)
        rc = main(["dehaze", str(bad), str(tmp_path / "out.ppm"),
                   "--checkpoint", str(tiny_checkpoint)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("data error:") and err.count("\n") == 1


def _png_with_ihdr(payload: bytes) -> bytes:
    # a PNG signature, an IHDR chunk holding payload and an IEND, CRCs valid
    def chunk(kind, body):
        return (struct.pack(">I", len(body)) + kind + body
                + struct.pack(">I", zlib.crc32(kind + body)))
    return b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", payload) + chunk(b"IEND", b"")


# input images each reader check rejects: (file name, bytes, message)
_MALFORMED_IMAGES = {
    "ppm_header_not_an_integer": ("in.ppm", b"P6\n2 two\n255\n" + bytes(12),
                                  "malformed PPM header"),
    "ppm_sample_above_maxval": ("in.ppm", b"P6\n1 1\n100\n" + bytes([0, 50, 101]),
                                "PPM sample exceeds maxval 100"),
    "png_ihdr_length_12": ("in.png", _png_with_ihdr(struct.pack(">IIBBBB", 2, 2, 8, 2, 0, 0)),
                           "malformed PNG IHDR chunk"),
    "png_zero_width": ("in.png", _png_with_ihdr(struct.pack(">IIBBBBB", 0, 2, 8, 2, 0, 0, 0)),
                       "invalid PNG header"),
    "png_compression_1": ("in.png",
                          _png_with_ihdr(struct.pack(">IIBBBBB", 2, 2, 8, 2, 1, 0, 0)),
                          "invalid PNG header"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_IMAGES))
def test_malformed_input_image_is_data_error(tmp_path, bench_checkpoint, capsys, case):
    name, data, message = _MALFORMED_IMAGES[case]
    bad = tmp_path / name
    bad.write_bytes(data)
    rc = main(["dehaze", str(bad), str(tmp_path / "out.ppm"),
               "--checkpoint", str(bench_checkpoint)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"data error: {bad}: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("case", ["hazy_dir_is_a_file", "pairs_differ_in_shape"])
def test_unusable_training_pairs_are_data_error(tmp_path, rng, capsys, case):
    hazy_dir, clean_dir = _pair_dirs(tmp_path, rng, 1, (8, 8))
    if case == "hazy_dir_is_a_file":
        hazy_dir = hazy_dir / "0.ppm"
        message = f"not a directory: {hazy_dir}"
    else:
        save_image(rng.uniform(0, 1, (1, 3, 8, 10)), str(clean_dir / "0.ppm"))
        message = "training images disagree in shape"
    rc = main(["train", "--hazy-dir", str(hazy_dir), "--clean-dir", str(clean_dir),
               "--out", str(tmp_path / "x.hzf"), "--epochs", "1", "--width", "2",
               "--lut-size", "3"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"data error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "x.hzf").exists()


def _checkpoint_bytes(header: dict) -> bytes:
    blob = json.dumps(header).encode()
    return MAGIC + struct.pack("<I", len(blob)) + blob


_HEADER = {"format_version": FORMAT_VERSION, "net": {"width": 4},
           "lut": None, "optimizer": None, "tensors": [],
           "flow": {"solver": "euler", "steps": 1, "t0": 0.0, "t1": 1.0,
                    "lam": 0.5}}

_CORRUPT_CHECKPOINTS = {
    "short_length_prefix": MAGIC + b"\x07\x00",
    "header_past_the_end": MAGIC + struct.pack("<I", 64) + b"{}",
    "no_tensors_key": _checkpoint_bytes(
        {k: v for k, v in _HEADER.items() if k != "tensors"}),
    "no_net_key": _checkpoint_bytes(
        {k: v for k, v in _HEADER.items() if k != "net"}),
}


@pytest.mark.parametrize("case", sorted(_CORRUPT_CHECKPOINTS))
def test_corrupt_checkpoint_header_is_data_error(tmp_path, hazy_ppm, capsys,
                                                 case):
    ckpt = tmp_path / "bad.hzf"
    ckpt.write_bytes(_CORRUPT_CHECKPOINTS[case])
    rc = main(["dehaze", str(hazy_ppm), str(tmp_path / "out.ppm"),
               "--checkpoint", str(ckpt)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("data error:") and err.count("\n") == 1
    assert "corrupt checkpoint header" in err


def _rewrite_header(path, edit):
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[4:8])
    header = json.loads(blob[8:8 + hlen])
    edit(header)
    new = json.dumps(header).encode()
    path.write_bytes(MAGIC + struct.pack("<I", len(new)) + new + blob[8 + hlen:])


def _poke_first_value(path, tensor, value):
    # the tensor's first payload value, written past save_checkpoint's checks
    blob = bytearray(path.read_bytes())
    (hlen,) = struct.unpack("<I", blob[4:8])
    offset = 8 + hlen
    for entry in json.loads(blob[8:8 + hlen])["tensors"]:
        if entry["name"] == tensor:
            break
        offset += 4 * int(np.prod(entry["shape"]))
    blob[offset:offset + 4] = struct.pack("<f", value)
    path.write_bytes(bytes(blob))


def _drop_lut_grid(header):
    header["tensors"] = [t for t in header["tensors"] if t["name"] != "lut.grid"]


def _drop_lut(header):
    header["lut"] = None
    _drop_lut_grid(header)


# header edits past the header's own checks; each gives one data error line
_BAD_CHECKPOINT_FIELDS = {
    "negative_shape": lambda h: h["tensors"][0].update(shape=[-1]),
    "float_shape": lambda h: h["tensors"][0].update(shape=[2.5]),
    "bool_shape": lambda h: h["tensors"][0].update(shape=[True]),
    "nested_shape": lambda h: h["tensors"][0].update(shape=[[1, 3, 3, 3]]),
    "tensors_not_a_list": lambda h: h.update(tensors=5),
    "width_not_a_number": lambda h: h["net"].update(width="x"),
    "width_missing": lambda h: h["net"].pop("width"),
    "lut_without_grid": _drop_lut_grid,
    # lambda 0.5 would be printed and no LUT would act
    "lambda_without_lut": _drop_lut,
    "flow_solver_heun": lambda h: h["flow"].update(solver="heun"),
    "flow_steps_0": lambda h: h["flow"].update(steps=0),
    # the time range is fixed to [0, 1]; the header still carries it
    "flow_t1_2": lambda h: h["flow"].update(t1=2.0),
    "flow_t0_missing": lambda h: h["flow"].pop("t0"),
    # every LUT spans [0, 1]
    "lut_c_max_2": lambda h: h["lut"].update(c_max=2.0),
    # would ask the reader for 4 TiB before the size check
    "forged_size": lambda h: h["tensors"][0].update(shape=[2**40]),
}


@pytest.mark.parametrize("case", sorted(_BAD_CHECKPOINT_FIELDS))
def test_bad_checkpoint_field_is_data_error(tmp_path, hazy_ppm, capsys, case):
    ckpt = tmp_path / "bad.hzf"
    save_checkpoint(str(ckpt), PurifierNet(width=1), identity_lut(2),
                    FlowConfig(solver="euler", steps=1))
    _rewrite_header(ckpt, _BAD_CHECKPOINT_FIELDS[case])
    rc = main(["dehaze", str(hazy_ppm), str(tmp_path / "out.ppm"),
               "--checkpoint", str(ckpt), "--tile", "0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("data error:") and err.count("\n") == 1
    expected = "truncated" if case == "forged_size" else "corrupt checkpoint header"
    assert expected in err


@pytest.mark.parametrize("tensor, value", [("head.w", np.nan), ("enc1.b", -np.inf),
                                           ("lut", np.inf)])
def test_non_finite_checkpoint_value_is_data_error(tmp_path, hazy_ppm, capsys,
                                                   tensor, value):
    # a NaN kernel diverged in the first solver step, and an inf in a LUT
    # vertex no pixel reaches dehazed with exit 0
    ckpt = tmp_path / "non_finite.hzf"
    save_checkpoint(str(ckpt), PurifierNet(width=2), identity_lut(5),
                    FlowConfig(solver="euler", steps=1))
    name = "lut.grid" if tensor == "lut" else f"net.{tensor}"
    _poke_first_value(ckpt, name, value)
    rc = main(["dehaze", str(hazy_ppm), str(tmp_path / "out.ppm"),
               "--checkpoint", str(ckpt)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"data error: {ckpt}: non-finite value in tensor {name}\n"


def _exploding_checkpoint(tmp_path):
    # a huge head kernel makes the first field evaluation overflow, so
    # midpoint's and RK4's first stage state is already non-finite
    net = PurifierNet(width=4, seed=0)
    net.params["head.w"].data[...] = 1e38
    ckpt = tmp_path / "exploding.hzf"
    save_checkpoint(str(ckpt), net, identity_lut(5), FlowConfig())
    return ckpt


@pytest.mark.parametrize("solver", SOLVERS)
def test_divergence_inside_a_step_exits_3(tmp_path, hazy_ppm, capsys, solver):
    with np.errstate(all="ignore"):
        rc = main(["dehaze", str(hazy_ppm), str(tmp_path / "out.ppm"),
                   "--checkpoint", str(_exploding_checkpoint(tmp_path)), "--tile", "0",
                   "--solver", solver, "--steps", "2"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("divergence:") and err.count("\n") == 1
    assert "(step 1)" in err


def test_divergence_from_the_shell_prints_one_line(tmp_path, hazy_ppm):
    # a fresh interpreter, outside pytest's warning capture and with no
    # errstate around main: numpy's overflow warnings must not reach stderr
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "hazeflow.cli", "dehaze", str(hazy_ppm),
         str(tmp_path / "out.ppm"), "--checkpoint", str(_exploding_checkpoint(tmp_path)),
         "--tile", "0", "--solver", "rk4", "--steps", "2"],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 3
    assert proc.stderr.startswith("divergence:") and proc.stderr.count("\n") == 1


def test_float32_dehaze_never_loads_scipy(tmp_path, hazy_ppm, tiny_checkpoint):
    # scipy's erfc serves only float64 GELU, the gradient checks' oracle
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import sys; from hazeflow.cli import main; code = main(sys.argv[1:]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "sys.exit(code)")
    proc = subprocess.run(
        [sys.executable, "-c", code, "dehaze", str(hazy_ppm), str(tmp_path / "out.ppm"),
         "--checkpoint", str(tiny_checkpoint), "--tile", "0"],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert load_image(str(tmp_path / "out.ppm")).shape == (1, 3, 24, 24)


_BAD_CONFIGS = {
    "dehaze_steps_0": ["dehaze", "--steps", "0"],
    "dehaze_negative_lambda": ["dehaze", "--lambda", "-1"],
    "dehaze_nan_lambda": ["dehaze", "--lambda", "nan"],
    "dehaze_inf_lambda": ["dehaze", "--lambda", "inf"],
    "dehaze_overlap_equals_tile": ["dehaze", "--tile", "64", "--overlap", "64"],
    "train_negative_lr": ["train", "--lr", "-1"],
    "train_factor_2": ["train", "--factor", "2"],
    "train_no_synth_pairs": ["train", "--synth-pairs", "0"],
    "train_batch_size_0": ["train", "--batch-size", "0"],
    "train_synth_size_0": ["train", "--synth-size", "0"],
    "train_width_0": ["train", "--width", "0"],
    "train_lut_size_1": ["train", "--lut-size", "1"],
    "train_negative_seed": ["train", "--seed", "-1"],
    "bench_height_0": ["bench", "--height", "0"],
    "bench_width_negative": ["bench", "--width", "-1"],
    "train_epochs_0": ["train", "--epochs", "0"],
    "train_nan_lr": ["train", "--lr", "nan"],
    "train_inf_lr": ["train", "--lr", "inf"],
    "train_inf_weight_decay": ["train", "--weight-decay", "inf"],
    "train_negative_weight_decay": ["train", "--weight-decay", "-1"],
    "train_negative_patience": ["train", "--patience", "-1"],
    # smaller than the 11-pixel SSIM window that scores every row
    "ablate_size_8": ["ablate", "--size", "8"],
    "ablate_lut_size_1": ["ablate", "--lut-size", "1"],
    # a directory flag without its partner; the paths need not exist, as
    # the check comes before any data is read
    "train_hazy_dir_alone": ["train", "--hazy-dir", "absent"],
    "train_clean_dir_alone": ["train", "--clean-dir", "absent"],
    "eval_pred_and_hazy_dirs": ["eval", "--pred-dir", "absent", "--hazy-dir", "absent"],
    "eval_no_dirs": ["eval"],
    # dehaze, eval and bench take their model from a checkpoint only
    "dehaze_no_checkpoint": ["dehaze"],
    "bench_no_checkpoint": ["bench"],
    "eval_hazy_dir_no_checkpoint": ["eval", "--hazy-dir", "absent"],
}


@pytest.mark.parametrize("case", sorted(_BAD_CONFIGS))
def test_bad_config_value_is_usage_error(tmp_path, hazy_ppm, capsys, case):
    cmd, *flags = _BAD_CONFIGS[case]
    # an untrained model, so each dehaze, eval and bench row fails on its own check
    ckpt = str(tmp_path / "untrained.hzf")
    save_checkpoint(ckpt, PurifierNet(width=2), identity_lut(3), FlowConfig())
    paths = {"dehaze": [str(hazy_ppm), str(tmp_path / "out.ppm")],
             "bench": ["--height", "8", "--width", "8", "--tile", "0"],
             "train": ["--out", str(tmp_path / "out.hzf"), "--epochs", "1",
                       "--synth-size", "8"],
             "ablate": ["solver", "--epochs", "1", "--pairs", "1"],
             "eval": ["--clean-dir", str(tmp_path)]}[cmd]
    model = {"dehaze": ["--checkpoint", ckpt], "eval": ["--checkpoint", ckpt],
             "bench": ["--checkpoint", ckpt],
             "train": ["--width", "4", "--lut-size", "5"],
             "ablate": ["--width", "4", "--lut-size", "5"]}[cmd]
    if case.endswith("_no_checkpoint"):
        model = []
    rc = main([cmd, *paths, *model, *flags])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    if not model:
        assert err == f"error: {cmd} needs --checkpoint\n"


def test_dehaze_without_checkpoint_is_usage_error(tmp_path, hazy_ppm, capsys):
    out = tmp_path / "out.ppm"
    rc = main(["dehaze", str(hazy_ppm), str(out), "--tile", "0"])
    assert rc == 1
    assert capsys.readouterr().err == "error: dehaze needs --checkpoint\n"
    assert not out.exists()


def test_eval_hazy_dir_without_checkpoint_is_usage_error(tmp_path, rng, capsys):
    hazy_dir, clean_dir = _pair_dirs(tmp_path, rng, 1, (16, 16))
    rc = main(["eval", "--hazy-dir", str(hazy_dir), "--clean-dir", str(clean_dir)])
    out, err = capsys.readouterr()
    assert rc == 1
    assert err == "error: eval needs --checkpoint\n" and out == ""


def test_lambda_for_a_checkpoint_without_lut_is_usage_error(tmp_path, hazy_ppm, capsys):
    # what `train --lambda 0` writes: no LUT, so no lambda above 0 can act
    ckpt = tmp_path / "no_lut.hzf"
    save_checkpoint(str(ckpt), PurifierNet(width=2), None, FlowConfig(lam=0.0))
    argv = ["dehaze", str(hazy_ppm), str(tmp_path / "out.ppm"), "--checkpoint", str(ckpt)]
    assert main(argv + ["--lambda", "0"]) == 0
    capsys.readouterr()
    rc = main(argv + ["--lambda", "0.9"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1 and "--lambda 0.9" in err


def _pair_dirs(root, rng, n, shape):
    hazy_dir, clean_dir = root / "hazy", root / "clean"
    hazy_dir.mkdir(parents=True)
    clean_dir.mkdir()
    for i in range(n):
        img = rng.uniform(0.2, 0.8, (1, 3) + shape).astype(np.float32)
        save_image(img, str(hazy_dir / f"{i}.ppm"))
        save_image(np.clip(img - 0.1, 0, 1), str(clean_dir / f"{i}.ppm"))
    return hazy_dir, clean_dir


class TestEval:
    def test_pred_dir_mode(self, tmp_path, rng):
        pred_dir = tmp_path / "pred"
        clean_dir = tmp_path / "ref"
        pred_dir.mkdir()
        clean_dir.mkdir()
        for i in range(2):
            img = rng.uniform(0, 1, (1, 3, 16, 16)).astype(np.float32)
            save_image(img, str(pred_dir / f"{i}.ppm"))
            save_image(img, str(clean_dir / f"{i}.ppm"))
        report = tmp_path / "report.txt"
        rc = main(["eval", "--pred-dir", str(pred_dir),
                   "--clean-dir", str(clean_dir), "--out", str(report)])
        assert rc == 0
        text = report.read_text()
        assert "mean_psnr=100.000000" in text

    def test_model_mode(self, tmp_path, rng, tiny_checkpoint):
        hazy_dir = tmp_path / "hazy"
        clean_dir = tmp_path / "clean"
        hazy_dir.mkdir()
        clean_dir.mkdir()
        img = rng.uniform(0.2, 0.8, (1, 3, 16, 16)).astype(np.float32)
        save_image(img, str(hazy_dir / "x.ppm"))
        save_image(img, str(clean_dir / "x.ppm"))
        rc = main(["eval", "--checkpoint", str(tiny_checkpoint),
                   "--hazy-dir", str(hazy_dir), "--clean-dir", str(clean_dir)])
        assert rc == 0

    def test_model_mode_scores_the_default_tiled_dehaze(self, tmp_path, rng,
                                                        tiny_checkpoint, capsys):
        # wider than one 512-pixel tile, so eval must blend tiles as
        # `hazeflow dehaze` does by default
        hazy_dir, clean_dir = _pair_dirs(tmp_path, rng, 1, (48, 600))
        ckpt = load_checkpoint(str(tiny_checkpoint))
        hazy = load_image(str(hazy_dir / "0.ppm"))
        clean = load_image(str(clean_dir / "0.ppm"))
        expected = evaluate_pairs(
            [dehaze(hazy, ckpt.net, ckpt.lut, ckpt.flow, TilePlan())], [clean])
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(tiny_checkpoint),
                   "--hazy-dir", str(hazy_dir), "--clean-dir", str(clean_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.index("input_mean_psnr=") < out.index("\nmean_psnr=")
        assert f"\nmean_psnr={expected.mean_psnr:.6f}\n" in out
        assert f"\nmean_ssim={expected.mean_ssim:.6f}\n" in out

    def test_model_mode_holds_one_pair_at_a_time(self, tmp_path, rng,
                                                 tiny_checkpoint):
        shape = (96, 96)
        pair_bytes = 2 * 3 * shape[0] * shape[1] * 4  # float32 hazy + clean
        peaks = []
        for n in (2, 6):
            hazy_dir, clean_dir = _pair_dirs(tmp_path / str(n), rng, n, shape)
            tracemalloc.start()
            try:
                rc = main(["eval", "--checkpoint", str(tiny_checkpoint),
                           "--hazy-dir", str(hazy_dir), "--clean-dir", str(clean_dir)])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert rc == 0
        assert peaks[1] - peaks[0] < pair_bytes

    def test_pred_dir_pair_of_different_sizes_is_data_error(self, tmp_path, rng, capsys):
        pred_dir, clean_dir = _pair_dirs(tmp_path, rng, 1, (32, 32))
        save_image(rng.uniform(0, 1, (1, 3, 40, 48)), str(pred_dir / "0.ppm"))
        rc = main(["eval", "--pred-dir", str(pred_dir), "--clean-dir", str(clean_dir)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "data error: 0.ppm: shape mismatch: (1, 3, 40, 48) vs (1, 3, 32, 32)\n"

    def test_empty_dirs_is_data_error(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        rc = main(["eval", "--pred-dir", str(tmp_path / "a"),
                   "--clean-dir", str(tmp_path / "b")])
        assert rc == 2


class TestBenchCommand:
    def test_small_bench(self, bench_checkpoint):
        rc = main(["bench", "--height", "48", "--width", "64",
                   "--checkpoint", str(bench_checkpoint),
                   "--solver", "euler", "--steps", "1", "--tile", "0"])
        assert rc == 0

    def test_bench_times_the_checkpoint_model(self, tmp_path, capsys):
        ckpt = tmp_path / "w4.hzf"
        save_checkpoint(str(ckpt), PurifierNet(width=4), identity_lut(3),
                        FlowConfig(solver="midpoint", steps=3))
        argv = ["bench", "--height", "24", "--width", "40", "--tile", "0",
                "--checkpoint", str(ckpt)]
        macs = sum(purifier_macs(4, 24, 40).values())
        for flags, evals in (([], 6), (["--solver", "euler"], 3), (["--steps", "1"], 2)):
            capsys.readouterr()
            assert main(argv + flags) == 0
            out = capsys.readouterr().out
            assert "\nnetwork width       4\n" in out
            assert f"\nfield_evals={evals}\nmacs_per_eval={macs}\n" in out


class TestAblateCommand:
    def test_single_suite_writes_reports(self, tmp_path):
        out_dir = tmp_path / "reports"
        rc = main(["ablate", "solver", "--out-dir", str(out_dir),
                   "--epochs", "1", "--pairs", "2", "--size", "16",
                   "--width", "4", "--lut-size", "5", "--steps", "1"])
        assert rc == 0
        assert (out_dir / "ablation_solver.txt").exists()

    def test_unusable_out_dir_fails_before_the_first_row(self, tmp_path, capsys):
        taken = tmp_path / "reports"
        taken.write_text("a file, not a directory\n")
        rc = main(["ablate", "solver", "--out-dir", str(taken),
                   "--epochs", "1", "--pairs", "2", "--size", "16",
                   "--width", "2", "--lut-size", "3", "--steps", "1"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert err.startswith("data error:") and err.count("\n") == 1
        assert out == ""


class TestUsageAndConfig:
    def test_unknown_command_exits_1(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_arg_exits_1(self):
        assert main(["dehaze"]) == 1

    def test_help_exits_0(self):
        assert main(["--help"]) == 0

    def test_config_file_supplies_defaults(self, tmp_path, hazy_ppm,
                                           tiny_checkpoint):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# solver settings\nsteps = 2\nsolver = euler\n")
        out = tmp_path / "out.ppm"
        rc = main(["dehaze", str(hazy_ppm), str(out),
                   "--checkpoint", str(tiny_checkpoint),
                   "--config", str(cfg),
                   "--record-trajectory", str(tmp_path / "t1")])
        assert rc == 0
        assert len(os.listdir(tmp_path / "t1")) == 3  # input + 2 steps

    def test_flags_override_config(self, tmp_path, hazy_ppm, tiny_checkpoint):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 2\n")
        rc = main(["dehaze", str(hazy_ppm), str(tmp_path / "o.ppm"),
                   "--checkpoint", str(tiny_checkpoint),
                   "--config", str(cfg), "--steps", "4",
                   "--record-trajectory", str(tmp_path / "t2")])
        assert rc == 0
        assert len(os.listdir(tmp_path / "t2")) == 5

    def test_env_var_config_honored(self, tmp_path, hazy_ppm,
                                    tiny_checkpoint, monkeypatch):
        cfg = tmp_path / "env.cfg"
        cfg.write_text("steps = 3\n")
        monkeypatch.setenv("HAZEFLOW_CONFIG", str(cfg))
        rc = main(["dehaze", str(hazy_ppm), str(tmp_path / "o.ppm"),
                   "--checkpoint", str(tiny_checkpoint),
                   "--record-trajectory", str(tmp_path / "t3")])
        assert rc == 0
        assert len(os.listdir(tmp_path / "t3")) == 4

    @pytest.mark.parametrize("line", ["width = 4", "lut_size = 3 5"])
    def test_config_key_the_command_lacks_is_data_error(self, tmp_path, hazy_ppm,
                                                        tiny_checkpoint, capsys, line):
        # neither the key nor its value may take a positional's place
        cfg = tmp_path / "w.cfg"
        cfg.write_text(f"# model\n{line}\n")
        out = tmp_path / "out.ppm"
        rc = main(["dehaze", str(hazy_ppm), str(out), "--config", str(cfg),
                   "--checkpoint", str(tiny_checkpoint)])
        key = line.split(" = ")[0]
        assert rc == 2
        assert capsys.readouterr().err == f"data error: {cfg}:2: dehaze has no setting '{key}'\n"
        assert not out.exists()

    def test_config_key_prefix_is_resolved(self, tmp_path, hazy_ppm, tiny_checkpoint):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sol = euler\nste = 2\n")
        rc = main(["dehaze", str(hazy_ppm), str(tmp_path / "o.ppm"), "--config", str(cfg),
                   "--checkpoint", str(tiny_checkpoint),
                   "--record-trajectory", str(tmp_path / "t")])
        assert rc == 0
        assert len(os.listdir(tmp_path / "t")) == 3  # input + 2 steps

    @pytest.mark.parametrize("spelling", [("--config={}",), ("--conf", "{}")])
    def test_every_config_spelling_is_read(self, tmp_path, bench_checkpoint, spelling):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("steps = 0\n")
        rc = main(["bench", "--height", "8", "--width", "8", "--tile", "0",
                   "--checkpoint", str(bench_checkpoint),
                   *(arg.format(cfg) for arg in spelling)])
        assert rc == 1  # the config's steps=0 was read and rejected

    def test_ambiguous_config_prefix_is_usage_error(self, tmp_path, hazy_ppm, capsys):
        # the subcommand's own parser reads --config, so a prefix it cannot
        # resolve is never taken for a config path
        rc = main(["dehaze", str(hazy_ppm), str(tmp_path / "o.ppm"),
                   "--c", str(tmp_path / "missing.cfg")])
        assert rc == 1
        assert "ambiguous option: --c" in capsys.readouterr().err

    def test_config_supplies_clean_dir(self, tmp_path, rng):
        pairs = tmp_path / "pairs"
        pairs.mkdir()
        save_image(rng.uniform(0, 1, (1, 3, 16, 16)).astype(np.float32),
                   str(pairs / "a.ppm"))
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(f"clean_dir = {pairs}\n")
        assert main(["eval", "--pred-dir", str(pairs), "--config", str(cfg)]) == 0

    def test_config_supplies_checkpoint(self, tmp_path, hazy_ppm, tiny_checkpoint):
        # so --checkpoint cannot be argparse-required: argv is parsed before the file
        cfg = tmp_path / "model.cfg"
        cfg.write_text(f"checkpoint = {tiny_checkpoint}\n")
        assert main(["dehaze", str(hazy_ppm), str(tmp_path / "a.ppm"),
                     "--config", str(cfg)]) == 0
        assert main(["dehaze", str(hazy_ppm), str(tmp_path / "b.ppm"),
                     "--checkpoint", str(tiny_checkpoint)]) == 0
        assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()

    def test_config_supplies_checkpoint_to_bench(self, tmp_path, bench_checkpoint, capsys):
        cfg = tmp_path / "model.cfg"
        cfg.write_text(f"checkpoint = {bench_checkpoint}\n")
        assert main(["bench", "--height", "8", "--width", "8", "--tile", "0",
                     "--config", str(cfg)]) == 0
        assert "\nfield_evals=1\n" in capsys.readouterr().out  # the checkpoint's Euler x1

    def test_eval_without_clean_dir_is_usage_error(self, tmp_path, capsys):
        rc = main(["eval", "--pred-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1

    def test_train_settings_default_from_their_dataclasses(self, tmp_path,
                                                           monkeypatch):
        class Stop(Exception):  # not a HazeflowError, so main lets it through
            pass

        seen = {}

        def stop(data, cfg, flow_cfg, **kwargs):
            seen.update(cfg=cfg, flow=flow_cfg)
            raise Stop

        monkeypatch.setattr(cli, "train_loop", stop)
        with pytest.raises(Stop):
            main(["train", "--out", str(tmp_path / "x.hzf"), "--synth-pairs", "1",
                  "--synth-size", "8"])
        assert seen == {"cfg": TrainConfig(), "flow": FlowConfig()}

    def test_ablate_settings_default_from_their_dataclass(self, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(cli, "run_all", lambda acfg: seen.append(acfg) or {})
        assert main(["ablate", "all"]) == 0
        assert seen == [AblationConfig()]

    def test_missing_config_file_is_data_error(self, tmp_path, hazy_ppm):
        rc = main(["dehaze", str(hazy_ppm), str(tmp_path / "o.ppm"),
                   "--config", str(tmp_path / "absent.cfg")])
        assert rc == 2

    def test_non_utf8_config_is_data_error(self, tmp_path, hazy_ppm, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"steps=\xff\xfe\n")
        rc = main(["dehaze", str(hazy_ppm), str(tmp_path / "o.ppm"),
                   "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("data error:") and err.count("\n") == 1
        assert "not UTF-8" in err

    # argparse would take `conf` for --config as well; an empty key would
    # turn into "--", which ends argparse's options
    @pytest.mark.parametrize("line, message", [
        ("config = absent.cfg", "a config file cannot set config"),
        ("conf = absent.cfg", "a config file cannot set config"),
        ("= 5", "expected key=value")])
    def test_bad_config_line_is_data_error(self, tmp_path, bench_checkpoint, capsys,
                                           line, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"steps = 1\n{line}\n")
        rc = main(["bench", "--config", str(cfg), "--height", "8", "--width", "8",
                   "--checkpoint", str(bench_checkpoint), "--tile", "0"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"data error: {cfg}:2: {message}\n"


@pytest.mark.parametrize("command", ["dehaze", "eval-out", "train-out", "loss-log"])
def test_output_in_missing_directory_is_data_error(tmp_path, hazy_ppm, capsys, command):
    missing = str(tmp_path / "absent" / "out")
    pairs = tmp_path / "pairs"
    pairs.mkdir()
    save_image(load_image(str(hazy_ppm)), str(pairs / "a.ppm"))
    train = ["train", "--epochs", "1", "--synth-pairs", "2", "--synth-size", "8",
             "--width", "2", "--lut-size", "3", "--solver", "euler", "--steps", "1"]
    argv = {
        "dehaze": ["dehaze", str(hazy_ppm), missing + ".ppm", "--steps", "1",
                   "--solver", "euler"],
        "eval-out": ["eval", "--pred-dir", str(pairs), "--clean-dir", str(pairs),
                     "--out", missing + ".txt"],
        "train-out": train + ["--out", missing + ".hzf"],
        "loss-log": train + ["--out", str(tmp_path / "ok.hzf"),
                             "--loss-log", missing + ".txt"],
    }[command]
    capsys.readouterr()
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("data error:") and err.count("\n") == 1
    assert "absent" in err


@pytest.mark.parametrize("flag", ["--out", "--loss-log"])
def test_train_checks_its_outputs_before_the_first_epoch(tmp_path, capsys, flag):
    missing = str(tmp_path / "absent" / "out")
    argv = ["train", "--epochs", "3", "--synth-pairs", "2", "--synth-size", "8",
            "--width", "2", "--lut-size", "3", "--solver", "euler", "--steps", "1",
            "--out", str(tmp_path / "ck.hzf"), flag, missing]
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == 2
    assert err.startswith("data error:") and err.count("\n") == 1
    assert missing in err and ".tmp" not in err
    assert out == ""  # neither the data set line nor any epoch line
    assert not (tmp_path / "absent").exists()


@pytest.mark.parametrize("bad", [["--epochs", "0"], ["--hazy-dir", "absent"],
                                 ["--width", "0", "--synth-size", "8"],
                                 ["--lut-size", "1"], ["--synth-pairs", "0"],
                                 ["--synth-size", "0"]])
def test_train_usage_error_leaves_the_loss_log_alone(tmp_path, bad):
    log = tmp_path / "loss.txt"
    log.write_text("an earlier run\n")
    rc = main(["train", "--out", str(tmp_path / "x.hzf"), "--loss-log", str(log), *bad])
    assert rc == 1
    assert log.read_text() == "an earlier run\n"


def test_train_rejects_a_directory_as_out_before_the_first_epoch(tmp_path, capsys):
    out_dir = tmp_path / "ck.hzf"
    out_dir.mkdir()
    argv = ["train", "--epochs", "3", "--synth-pairs", "2", "--synth-size", "8",
            "--width", "2", "--lut-size", "3", "--solver", "euler", "--steps", "1",
            "--out", str(out_dir)]
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == 2
    assert err.startswith("data error:") and err.count("\n") == 1
    assert "--out" in err and str(out_dir) in err and ".tmp" not in err
    assert out == ""
    assert os.listdir(out_dir) == []


@pytest.mark.parametrize("case", ["missing-dir", "dir-as-output", "eval-out-missing-dir"])
def test_dehaze_and_eval_check_their_output_before_dehazing(tmp_path, hazy_ppm, capsys,
                                                             monkeypatch, case):
    monkeypatch.setattr(cli, "dehaze", lambda *a, **k: pytest.fail("dehazed before the check"))
    hazy_dir, clean_dir = _pair_dirs(tmp_path, np.random.default_rng(0), 1, (16, 16))
    (tmp_path / "out.ppm").mkdir()
    flow = ["--solver", "euler", "--steps", "1"]
    argv = {
        "missing-dir": ["dehaze", str(hazy_ppm), str(tmp_path / "absent" / "out.ppm")],
        "dir-as-output": ["dehaze", str(hazy_ppm), str(tmp_path / "out.ppm")],
        "eval-out-missing-dir": ["eval", "--hazy-dir", str(hazy_dir), "--clean-dir",
                                 str(clean_dir), "--out", str(tmp_path / "absent" / "e.txt")],
    }[case]
    capsys.readouterr()
    rc = main(argv + flow)
    out, err = capsys.readouterr()
    assert rc == 2
    assert err.startswith("data error:") and err.count("\n") == 1
    assert out == ""


def test_dehaze_checks_its_output_format_before_dehazing(tmp_path, hazy_ppm, capsys,
                                                         monkeypatch):
    monkeypatch.setattr(cli, "dehaze", lambda *a, **k: pytest.fail("dehazed before the check"))
    monkeypatch.setitem(sys.modules, "PIL", None)  # import PIL fails
    rc = main(["dehaze", str(hazy_ppm), str(tmp_path / "out.jpg"),
               "--solver", "euler", "--steps", "1"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert err.startswith("data error:") and err.count("\n") == 1
    assert "Pillow is required" in err
    assert out == "" and not (tmp_path / "out.jpg").exists()


# every subcommand's positionals and flags, in help order
_CLI_SURFACE = {
    "train": "--config --out --epochs --lr --weight-decay --batch-size --patience --factor "
             "--hazy-dir --clean-dir --synth-pairs --synth-size --loss-log --width "
             "--lut-size --seed --steps --solver --lambda",
    "dehaze": "input output --config --checkpoint --tile --overlap --record-trajectory "
              "--steps --solver --lambda",
    "eval": "--config --checkpoint --hazy-dir --pred-dir --clean-dir --out --steps "
            "--solver --lambda",
    "bench": "--config --checkpoint --height --width --tile --overlap --steps --solver "
             "--lambda",
    "ablate": "{lut,lambda,solver,all} --config --out-dir --pairs --seed --size --epochs "
              "--width --lut-size --steps",
}


@pytest.mark.parametrize("sub", sorted(_CLI_SURFACE))
def test_cli_surface(capsys, sub):
    assert main([sub, "--help"]) == 0
    # argparse lists one argument per line, two spaces in: "  -h, --help", "  --out OUT"
    lines = re.findall(r"^  (\S.*?)(?:  |$)", capsys.readouterr().out, re.M)
    names = [re.match(r"(?:-\w, )?(\S+)", line).group(1) for line in lines]
    assert [n for n in names if n != "--help"] == _CLI_SURFACE[sub].split()


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=10)
_CONFIG_LINE = st.one_of(_TEXT, st.builds(
    "{}={}".format,
    st.sampled_from(["steps", "solver", "lambda", "height", "width", "checkpoint",
                     "tile", "overlap", "seed", "lut_size", "config"]) | _TEXT,
    _TEXT | st.integers(-3, 3).map(str) | st.floats().map(str)))


@pytest.fixture(scope="module")
def config_fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "fuzz.cfg"


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.binary(max_size=64),
                 st.lists(_CONFIG_LINE, max_size=6).map(
                     lambda lines: "\n".join(lines).encode("utf-8"))))
def test_arbitrary_config_file_exits_0_1_or_2(config_fuzz_path, bench_checkpoint, content):
    # bench writes no files; the explicit flags, which win over the config,
    # keep every run tiny
    config_fuzz_path.write_bytes(content)
    rc = main(["bench", "--config", str(config_fuzz_path), "--height", "8",
               "--width", "8", "--checkpoint", str(bench_checkpoint),
               "--tile", "0", "--steps", "1", "--solver", "euler",
               "--lambda", "0.5"])
    assert rc in (0, 1, 2)


def test_readme_commands_parse():
    # every `hazeflow ...` line of the README's bash blocks, continuations joined
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"^```bash\n(.*?)^```", fh.read(), re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True)[1:] for line in lines
                if line.startswith("hazeflow ")]
    assert commands
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: hazeflow {shlex.join(argv)}")
