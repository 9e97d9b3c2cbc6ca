"""Checkpoint container: bit-exact round trips and version rejection."""

import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hazeflow.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from hazeflow.errors import ConfigError, DataError
from hazeflow.flow import FlowConfig, integrate
from hazeflow.lut import Lut3D, identity_lut
from hazeflow.purifier import PurifierNet
from hazeflow.tensor import Tensor, no_grad
from hazeflow.training import AdamW, TrainConfig, make_toy_dataset, train_loop


@pytest.fixture
def trained(tmp_path):
    hazy, clean = make_toy_dataset(2, 16, seed=21)
    cfg = TrainConfig(lr=1e-3, epochs=2, batch_size=2, seed=21)
    flow_cfg = FlowConfig(solver="midpoint", steps=3, lam=0.25)
    result = train_loop((hazy, clean), cfg, flow_cfg, PurifierNet(width=4, seed=21),
                        identity_lut(5))
    return result, flow_cfg


def test_roundtrip_bit_exact(tmp_path, trained):
    result, flow_cfg = trained
    path = tmp_path / "model.hzf"
    save_checkpoint(str(path), result.net, result.lut, flow_cfg,
                    optimizer=result.optimizer,
                    metadata={"seed": 21, "epoch": 2, "best_val_loss": 0.5})
    ckpt = load_checkpoint(str(path))

    for name, p in result.net.parameters().items():
        np.testing.assert_array_equal(ckpt.net.params[name].data, p.data)
    np.testing.assert_array_equal(ckpt.lut.grid.data, result.lut.grid.data)
    assert ckpt.flow == flow_cfg
    assert ckpt.metadata["seed"] == 21
    assert ckpt.opt_state.step_count == result.optimizer.state.step_count
    for name, arr in result.optimizer.state.m.items():
        np.testing.assert_array_equal(ckpt.opt_state.m[name], arr)
    for name, arr in result.optimizer.state.v.items():
        np.testing.assert_array_equal(ckpt.opt_state.v[name], arr)


def test_dehaze_identical_after_reload(tmp_path, trained, rng):
    result, flow_cfg = trained
    path = tmp_path / "model.hzf"
    save_checkpoint(str(path), result.net, result.lut, flow_cfg)
    ckpt = load_checkpoint(str(path))

    x = Tensor(rng.uniform(0, 1, (1, 3, 16, 16)).astype(np.float32))
    with no_grad():
        before = integrate(x, result.net, result.lut, flow_cfg).output.data
        after = integrate(x, ckpt.net, ckpt.lut, ckpt.flow).output.data
    np.testing.assert_array_equal(before, after)


def test_checkpoint_without_lut_or_optimizer(tmp_path):
    net = PurifierNet(width=4, seed=1)
    flow_cfg = FlowConfig(solver="euler", steps=1, lam=0.0)
    path = tmp_path / "bare.hzf"
    save_checkpoint(str(path), net, None, flow_cfg)
    ckpt = load_checkpoint(str(path))
    assert ckpt.lut is None and ckpt.opt_state is None
    np.testing.assert_array_equal(ckpt.net.params["head.w"].data,
                                  net.params["head.w"].data)


def test_lambda_without_lut_is_refused(tmp_path):
    # lambda weights the LUT branch: with no LUT it would be printed and never act
    path = tmp_path / "lutless.hzf"
    with pytest.raises(ConfigError, match="no LUT"):
        save_checkpoint(str(path), PurifierNet(width=2), None, FlowConfig(lam=0.5))
    assert not path.exists()
    save_checkpoint(str(path), PurifierNet(width=2), None, FlowConfig(lam=0.0))
    header, payload = _split(path)
    header["flow"]["lam"] = 0.5
    _join(path, header, payload)
    with pytest.raises(DataError, match=r"corrupt checkpoint header \(lambda 0.5 without a LUT\)"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("case", ["nan_weight", "inf_lut_vertex", "lut_c_max_2"])
def test_save_refuses_what_the_loader_rejects(tmp_path, case):
    path = tmp_path / "model.hzf"
    net, lut = PurifierNet(width=2), identity_lut(3)
    save_checkpoint(str(path), net, lut, FlowConfig())
    before = path.read_bytes()
    if case == "lut_c_max_2":  # every LUT spans [0, 1]
        with pytest.raises(ConfigError, match="c_max 2.0"):
            save_checkpoint(str(path), net, Lut3D(lut.grid, c_max=2.0), FlowConfig())
    else:
        if case == "nan_weight":
            net.params["head.w"].data.flat[0] = np.nan
        else:
            lut.grid.data[0, 0, 0, 0] = np.inf
        name = "net.head.w" if case == "nan_weight" else "lut.grid"
        with pytest.raises(DataError, match=f"non-finite value in tensor {name}"):
            save_checkpoint(str(path), net, lut, FlowConfig())
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]  # no temporary file left either


def test_version_mismatch_rejected(tmp_path):
    net = PurifierNet(width=4)
    path = tmp_path / "model.hzf"
    save_checkpoint(str(path), net, identity_lut(5), FlowConfig())

    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[4:8])
    header = json.loads(blob[8:8 + hlen].decode())
    header["format_version"] = 999
    new_header = json.dumps(header).encode()
    patched = MAGIC + struct.pack("<I", len(new_header)) + new_header \
        + blob[8 + hlen:]
    path.write_bytes(patched)

    with pytest.raises(DataError):
        load_checkpoint(str(path))


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.hzf"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataError):
        load_checkpoint(str(path))


def test_optimizer_moments_float32_roundtrip(tmp_path):
    p = Tensor(np.full((2, 2), 0.5, dtype=np.float32), requires_grad=True)
    opt = AdamW({"w": p}, lr=1e-3)
    p.grad = np.ones_like(p.data)
    opt.step()
    net = PurifierNet(width=4)
    path = tmp_path / "opt.hzf"
    save_checkpoint(str(path), net, None, FlowConfig(lam=0.0), optimizer=opt)
    ckpt = load_checkpoint(str(path))
    np.testing.assert_array_equal(ckpt.opt_state.m["w"], opt.state.m["w"])


def test_interrupted_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    net = PurifierNet(width=4, seed=1)
    path = tmp_path / "model.hzf"
    save_checkpoint(str(path), net, identity_lut(5), FlowConfig())
    before = path.read_bytes()

    class FailingWriter:
        # accepts 100 bytes, then fails as a full disk would
        def __init__(self, fh):
            self.fh, self.left = fh, 100

        def write(self, data):
            if len(data) > self.left:
                self.fh.write(data[:self.left])
                raise OSError(28, "No space left on device")
            self.left -= len(data)
            return self.fh.write(data)

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    real_open = open
    monkeypatch.setattr("hazeflow.checkpoint.open",
                        lambda *a, **k: FailingWriter(real_open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError):
        save_checkpoint(str(path), PurifierNet(width=4, seed=2),
                        identity_lut(5), FlowConfig())
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.hzf"]
    ckpt = load_checkpoint(str(path))
    for name, p in net.parameters().items():
        np.testing.assert_array_equal(ckpt.net.params[name].data, p.data)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def _positions(value, prefix=()):
    # every key or index path inside a JSON document, the root excluded
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _positions(child, prefix + (key,))


def _split(path):
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[4:8])
    return json.loads(blob[8:8 + hlen]), blob[8 + hlen:]


def _join(path, header, payload):
    new = json.dumps(header).encode()
    path.write_bytes(MAGIC + struct.pack("<I", len(new)) + new + payload)


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    net = PurifierNet(width=1)
    path = tmp_path_factory.mktemp("ckpt") / "small.hzf"
    save_checkpoint(str(path), net, identity_lut(2), FlowConfig(),
                    optimizer=AdamW(net.parameters(), lr=1e-3))
    return path


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fuzzed_header_values_and_truncated_payload(small_checkpoint, data):
    header, payload = _split(small_checkpoint)
    for _ in range(data.draw(st.integers(1, 3))):
        *parents, key = data.draw(st.sampled_from(sorted(_positions(header), key=repr)))
        target = header
        for part in parents:
            target = target[part]
        target[key] = data.draw(_JSON)
    payload = payload[:data.draw(st.integers(0, len(payload)) | st.just(len(payload)))]
    path = small_checkpoint.with_name("fuzzed.hzf")
    _join(path, header, payload)
    try:
        ckpt = load_checkpoint(str(path))
    except (DataError, ConfigError):
        return
    assert isinstance(ckpt.net, PurifierNet) and isinstance(ckpt.flow, FlowConfig)


def test_forged_tensor_size_allocates_nothing(tmp_path):
    path = tmp_path / "forged.hzf"
    save_checkpoint(str(path), PurifierNet(width=1), None, FlowConfig(lam=0.0))
    header, payload = _split(path)
    header["tensors"][0]["shape"] = [2**20, 2**20, 4]  # 16 TiB of float32
    _join(path, header, payload)
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="truncated tensor payload"):
            load_checkpoint(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
