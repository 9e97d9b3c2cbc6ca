"""Per-layer tracing of hazeflow from outside the program.

`Tracer.install()` replaces hazeflow's layer functions with timing
wrappers wherever a hazeflow module binds them (``purifier.py`` imports
``conv2d`` and friends by name, so patching ``hazeflow.tensor`` alone would
miss its calls), wraps the Tensor arithmetic methods, and wraps each
result's ``_backward`` closure so backward time lands on the op that
recorded it. Spans stay in memory; a span's self time is its duration
minus the time of its direct child spans.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict

# (module, function) -> span name; a name that already has the innermost
# open span passes straight through, so nested calls of one layer (say
# Tensor.__rsub__ calling __sub__) count once
FUNCTIONS = {
    ("hazeflow.tensor", "conv2d"): "tensor.conv2d",
    ("hazeflow.tensor", "upsample_bilinear2x"): "tensor.upsample_bilinear2x",
    ("hazeflow.tensor", "gelu"): "tensor.gelu",
    ("hazeflow.tensor", "instance_norm"): "tensor.instance_norm",
    ("hazeflow.tensor", "maxpool2d"): "tensor.maxpool2d",
    ("hazeflow.tensor", "concat_channels"): "tensor.concat_crop",
    ("hazeflow.tensor", "crop2d"): "tensor.concat_crop",
    ("hazeflow.tensor", "spatial_attention"): "tensor.spatial_attention",
    ("hazeflow.lut", "trilinear_apply"): "lut.trilinear_apply",
    ("hazeflow.purifier", "purify"): "purifier.purify",
    ("hazeflow.flow", "integrate"): "flow.integrate",
    ("hazeflow.flow", "vector_field"): "flow.vector_field",
    ("hazeflow.tiling", "process_tiled"): "tiling.process_tiled",
    ("hazeflow.imgio", "load_image"): "imgio.load",
    ("hazeflow.imgio", "save_image"): "imgio.save",
    ("hazeflow.checkpoint", "load_checkpoint"): "checkpoint.load",
    ("hazeflow.metrics", "psnr"): "metrics.psnr",
    ("hazeflow.metrics", "ssim"): "metrics.ssim",
}

ELEMENTWISE = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__",
               "abs", "clamp", "sigmoid", "sum", "mean")

# ops whose outputs are fresh arrays; composite ops would count them twice
_LEAF_OPS = {"tensor.conv2d", "tensor.upsample_bilinear2x", "tensor.gelu",
             "tensor.instance_norm", "tensor.maxpool2d", "tensor.concat_crop",
             "tensor.elementwise", "lut.trilinear_apply"}


class Tracer:
    """Records spans and counters while `active`; inert otherwise."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.spans = []        # (id, parent id, op, name, kind, start, end, self)
        self.counts = defaultdict(float)
        self._stack = []       # [id, name, kind, start, child seconds]
        self._next_id = 0

    # -- spans -----------------------------------------------------------

    def enter(self, name: str, kind: str = "fwd") -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, kind, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        sid, name, kind, start, child = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[4] += end - start
        self.spans.append((sid, parent[0] if parent else 0, self.op, name,
                           kind, start, end, end - start - child))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened from the benchmark's own code, when active."""
        if not self.active:
            yield
            return
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def inside(self, name: str) -> bool:
        return any(entry[1] == name for entry in self._stack)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active or (tracer._stack and tracer._stack[-1][1] == name):
                return fn(*args, **kwargs)
            if name == "flow.vector_field":
                tracer.counts["flow.field_evals"] += 1
                return fn(*args, **kwargs)
            tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit()
            tracer._after(name, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _after(self, name: str, args, out) -> None:
        counts = self.counts
        counts[name + ".calls"] += 1
        data = getattr(out, "data", None)
        if name in _LEAF_OPS and data is not None:
            counts["tensor.bytes_out"] += data.nbytes
        if name == "tensor.conv2d":
            b, c_out, h_out, w_out = data.shape
            _, c_in, kh, kw = args[1].data.shape
            counts["tensor.conv2d.macs"] += b * c_out * h_out * w_out * c_in * kh * kw
        elif name == "flow.integrate" and self.inside("tiling.process_tiled"):
            counts["tiling.tiles"] += 1
            counts["tiling.tile_pixels"] += args[0].data.shape[-2] * args[0].data.shape[-1]
        elif name == "tiling.process_tiled":
            counts["tiling.image_pixels"] += args[0].shape[-2] * args[0].shape[-1]
        bwd = getattr(out, "_backward", None)
        if bwd is not None and not getattr(bwd, "_traced", False):
            out._backward = self._wrap_backward(bwd, name)

    def _wrap_backward(self, bwd, name: str):
        tracer = self

        def traced(g):
            if not tracer.active:
                return bwd(g)
            tracer.enter(name, "bwd")
            try:
                return bwd(g)
            finally:
                tracer.exit()

        traced._traced = True
        return traced

    def install(self) -> None:
        """Patch every hazeflow module attribute bound to a traced function."""
        from hazeflow.tensor import Tensor

        wrappers = {}
        for (mod_name, attr), name in FUNCTIONS.items():
            fn = getattr(sys.modules.get(mod_name), attr, None)
            if fn is not None:
                wrappers[id(fn)] = (fn, self._wrap(fn, name))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "hazeflow" and not mod_name.startswith("hazeflow."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
        methods = {}
        for attr in ELEMENTWISE:
            fn = Tensor.__dict__.get(attr)
            if fn is not None:
                if id(fn) not in methods:
                    methods[id(fn)] = self._wrap(fn, "tensor.elementwise")
                setattr(Tensor, attr, methods[id(fn)])
        if "backward" in Tensor.__dict__:
            Tensor.backward = self._wrap(Tensor.__dict__["backward"], "tensor.backward")

    # -- results -----------------------------------------------------------

    def totals(self):
        """{(name, kind): [seconds, self seconds]} over all recorded spans."""
        out = defaultdict(lambda: [0.0, 0.0])
        for _sid, _parent, _op, name, kind, start, end, self_s in self.spans:
            acc = out[(name, kind)]
            acc[0] += end - start
            acc[1] += self_s
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for sid, parent, op, name, kind, start, end, self_s in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "kind": kind, "start": start,
                                     "end": end, "self": self_s}) + "\n")
