"""Checkpoint persistence.

A checkpoint is one self-describing binary file: a 4-byte magic, a
length-prefixed JSON header (tensor names/shapes and all hyperparameters),
then the raw tensor payload as little-endian float32 in header order.
Round trips are bit-exact; unknown format versions are rejected. Saves
go to a temporary file beside the target that then replaces it, so an
interrupted save leaves the previous checkpoint intact.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .flow import FlowConfig
from .lut import Lut3D
from .purifier import PurifierNet, param_shapes
from .tensor import Tensor
from .training import AdamW, OptState

MAGIC = b"HZFC"
FORMAT_VERSION = 1
_HEADER_KEYS = ("net", "lut", "flow", "optimizer", "tensors")


@dataclass
class Checkpoint:
    net: PurifierNet
    lut: Optional[Lut3D]
    flow: FlowConfig
    opt_state: Optional[OptState] = None
    metadata: dict = field(default_factory=dict)


def _payload_entries(net: PurifierNet, lut: Optional[Lut3D],
                     optimizer: Optional[AdamW]):
    entries = [(f"net.{name}", p.data) for name, p in net.parameters().items()]
    if lut is not None:
        entries.append(("lut.grid", lut.grid.data))
    if optimizer is not None:
        for name, arr in optimizer.state.m.items():
            entries.append((f"opt.m.{name}", arr))
        for name, arr in optimizer.state.v.items():
            entries.append((f"opt.v.{name}", arr))
    return entries


def save_checkpoint(path: str, net: PurifierNet, lut: Optional[Lut3D],
                    flow_cfg: FlowConfig, optimizer: Optional[AdamW] = None,
                    metadata: Optional[dict] = None) -> None:
    if lut is None and flow_cfg.lam > 0:
        raise ConfigError(f"lambda {flow_cfg.lam} weights a LUT, and no LUT is given")
    entries = _payload_entries(net, lut, optimizer)
    header = {
        "format_version": FORMAT_VERSION,
        "flow": {"solver": flow_cfg.solver, "steps": flow_cfg.steps,
                 "t0": 0.0, "t1": 1.0, "lam": flow_cfg.lam},
        "net": {"width": net.width},
        "lut": None if lut is None else {
            "m": lut.m, "c_max": lut.c_max,
            "trainable": bool(lut.grid.requires_grad)},
        "optimizer": None if optimizer is None else {
            "step_count": optimizer.state.step_count,
            "lr": optimizer.lr, "weight_decay": optimizer.weight_decay,
            "betas": list((optimizer.beta1, optimizer.beta2)),
            "eps": optimizer.eps},
        "metadata": metadata or {},
        "tensors": [{"name": name, "shape": list(arr.shape)}
                    for name, arr in entries],
    }
    blob = json.dumps(header).encode("utf-8")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            for _name, arr in entries:
                fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _field(header: dict, key: str, kind: type, path: str):
    # the header value at a dotted key, of exactly this kind (JSON true is
    # no number); a float may be written as an integer and must be finite
    value = header
    for part in key.split("."):
        value = value.get(part) if isinstance(value, dict) else None
    if kind is float and type(value) is int:
        value = float(value)
    if type(value) is not kind or (kind is float and not math.isfinite(value)):
        raise DataError(f"{path}: corrupt checkpoint header ({key} is {value!r:.40})")
    return value


def _read_tensors(fh, entries, path: str) -> dict:
    if not isinstance(entries, list):
        raise DataError(f"{path}: corrupt checkpoint header (tensors is not a list)")
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    tensors = {}
    for entry in entries:
        name = _field(entry, "name", str, path)
        shape = entry.get("shape")
        if not isinstance(shape, list) or any(type(n) is not int or n < 0 for n in shape):
            raise DataError(f"{path}: corrupt checkpoint header "
                            f"(shape of {name} is {shape!r:.40})")
        # checked against the file before reading, so a forged size
        # allocates nothing
        size = 4 * math.prod(shape)
        if size > left:
            raise DataError(f"{path}: truncated tensor payload")
        left -= size
        tensors[name] = np.frombuffer(
            fh.read(size), dtype="<f4").astype(np.float32).reshape(shape)
        if not np.isfinite(tensors[name]).all():
            raise DataError(f"{path}: non-finite value in tensor {name}")
    return tensors


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint; any malformed content is a DataError."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise DataError(f"{path}: not a hazeflow checkpoint")
        try:
            (hlen,) = struct.unpack("<I", fh.read(4))
            if hlen > os.fstat(fh.fileno()).st_size - 8:
                raise ValueError("header longer than the file")
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except (struct.error, ValueError, RecursionError) as exc:
            raise DataError(f"{path}: corrupt checkpoint header") from exc
        version = header.get("format_version") if isinstance(header, dict) else None
        if version != FORMAT_VERSION:
            raise DataError(
                f"{path}: unsupported checkpoint format version {version!r} "
                f"(expected {FORMAT_VERSION})")
        missing = [key for key in _HEADER_KEYS if key not in header]
        if missing:
            raise DataError(f"{path}: corrupt checkpoint header "
                            f"(missing {', '.join(missing)})")
        tensors = _read_tensors(fh, header["tensors"], path)

    # the layer plan is checked before the net is built, so a forged width
    # allocates nothing either
    width = _field(header, "net.width", int, path)
    state = {name[4:]: arr for name, arr in tensors.items() if name.startswith("net.")}
    if width < 1 or {n: a.shape for n, a in state.items()} != param_shapes(width):
        raise DataError(f"{path}: corrupt checkpoint header "
                        f"(net tensors do not fit width {width})")
    net = PurifierNet(width=width)
    net.load_state(state)

    try:
        lut = None
        if header["lut"] is not None:
            trainable = _field(header, "lut.trainable", bool, path)
            # every LUT spans [0, 1]; the header still carries its range
            if "lut.grid" not in tensors or _field(header, "lut.c_max", float, path) != 1.0:
                raise DataError(f"{path}: corrupt checkpoint header (lut)")
            lut = Lut3D(Tensor(tensors["lut.grid"], requires_grad=trainable))
        if [_field(header, f"flow.{k}", float, path) for k in ("t0", "t1")] != [0.0, 1.0]:
            raise DataError(f"{path}: corrupt checkpoint header (time range is not [0, 1])")
        flow_cfg = FlowConfig(solver=_field(header, "flow.solver", str, path),
                              steps=_field(header, "flow.steps", int, path),
                              lam=_field(header, "flow.lam", float, path))
        if lut is None and flow_cfg.lam > 0:
            raise ConfigError(f"lambda {flow_cfg.lam} without a LUT")
    except (ShapeError, ConfigError) as exc:
        raise DataError(f"{path}: corrupt checkpoint header ({exc})") from exc

    opt_state = None
    if header["optimizer"] is not None:
        opt_state = OptState(
            m={name[6:]: arr for name, arr in tensors.items()
               if name.startswith("opt.m.")},
            v={name[6:]: arr for name, arr in tensors.items()
               if name.startswith("opt.v.")},
            step_count=_field(header, "optimizer.step_count", int, path))

    return Checkpoint(net=net, lut=lut, flow=flow_cfg, opt_state=opt_state,
                      metadata=header.get("metadata", {}))
