"""End-to-end training of the purifier and LUT through the unrolled flow.

L1 loss on the raw final solver state, AdamW with decoupled weight decay,
reduce-on-plateau scheduling, and a synthetic-haze toy data generator
(clean procedural images degraded by the atmospheric scattering model).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DivergenceError, ShapeError
from .flow import FlowConfig, integrate
from .lut import Lut3D, identity_lut
from .purifier import PurifierNet
from .tensor import Tensor, no_grad


@dataclass
class TrainConfig:
    lr: float = 1e-3
    weight_decay: float = 1e-4
    batch_size: int = 4
    epochs: int = 200
    patience: int = 100
    factor: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.lr < np.inf:  # NaN fails every comparison
            raise ConfigError("learning rate must be finite and non-negative")
        if not 0 <= self.weight_decay < np.inf:
            raise ConfigError("weight decay must be finite and non-negative")
        if self.epochs < 1:
            raise ConfigError("epochs must be positive")
        if self.patience < 0:
            raise ConfigError("patience must be non-negative")
        if self.batch_size < 1:
            raise ConfigError("batch size must be positive")
        if not 0.0 < self.factor < 1.0:
            raise ConfigError("scheduler factor must lie in (0, 1)")


def l1_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean absolute difference over all elements."""
    if prediction.shape != target.shape:
        raise ShapeError(
            f"shape mismatch: {prediction.shape} vs {target.shape}")
    return (prediction - target).abs().mean()


@dataclass
class OptState:
    """First/second moment buffers plus the shared step counter."""
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step_count: int = 0


class AdamW:
    """AdamW with decoupled weight decay, bias correction, conventional betas.

    Weight decay is applied on every step, including steps whose gradient
    is zero or missing.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float,
                 weight_decay: float = 1e-4):
        self.params = dict(params)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.state = OptState(
            m={n: np.zeros_like(p.data) for n, p in self.params.items()},
            v={n: np.zeros_like(p.data) for n, p in self.params.items()},
        )

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        self.state.step_count += 1
        t = self.state.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            p.data = p.data * (1.0 - self.lr * self.weight_decay)
            m = self.state.m[name] = self.beta1 * self.state.m[name] + (1.0 - self.beta1) * g
            v = self.state.v[name] = self.beta2 * self.state.v[name] + (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data = p.data - self.lr * update


class ReduceLROnPlateau:
    """Halve the learning rate after `patience` epochs without a new minimum."""

    def __init__(self, lr: float, patience: int = 100, factor: float = 0.5):
        self.lr = float(lr)
        self.patience = int(patience)
        self.factor = float(factor)
        self.best = float("inf")
        self.bad_epochs = 0

    def step(self, value: float) -> float:
        if value < self.best:
            self.best = value
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.bad_epochs >= self.patience:
                self.lr *= self.factor
                self.bad_epochs = 0
        return self.lr


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


def synth_haze(clean: np.ndarray, a: float, t) -> np.ndarray:
    """Apply the atmospheric scattering model: I = J*t + A*(1 - t).

    `t` may be a scalar or a per-pixel map broadcastable onto `clean`.
    """
    clean = np.asarray(clean)
    if clean.min() < 0 or clean.max() > 1:
        raise ValueError("clean image must lie in [0, 1]")
    if not 0.7 <= a <= 1.0:
        raise ValueError("atmospheric light must lie in [0.7, 1.0]")
    t = np.asarray(t, dtype=clean.dtype)
    if t.min() < 0 or t.max() > 1:
        raise ValueError("transmission must lie in [0, 1]")
    return (clean * t + a * (1.0 - t)).astype(clean.dtype)


def _resize_bilinear(img: np.ndarray, h: int, w: int) -> np.ndarray:
    # img: (C, h0, w0); endpoint-aligned sampling is fine for data synthesis
    c, h0, w0 = img.shape
    ys = np.linspace(0.0, h0 - 1, h)
    xs = np.linspace(0.0, w0 - 1, w)
    y0 = np.clip(np.floor(ys).astype(int), 0, h0 - 2)
    x0 = np.clip(np.floor(xs).astype(int), 0, w0 - 2)
    fy = (ys - y0)[None, :, None]
    fx = (xs - x0)[None, None, :]
    top = img[:, y0][:, :, x0] * (1 - fx) + img[:, y0][:, :, x0 + 1] * fx
    bot = img[:, y0 + 1][:, :, x0] * (1 - fx) + img[:, y0 + 1][:, :, x0 + 1] * fx
    return top * (1 - fy) + bot * fy


def make_clean_image(rng: np.random.Generator, size: int) -> np.ndarray:
    """One procedural clean image: gradient, checkerboard, or smooth field."""
    kind = rng.integers(0, 3)
    if kind == 0:
        angle = rng.uniform(0, 2 * np.pi)
        yy, xx = np.mgrid[0:size, 0:size] / max(size - 1, 1)
        ramp = (np.cos(angle) * xx + np.sin(angle) * yy)
        ramp = (ramp - ramp.min()) / max(ramp.max() - ramp.min(), 1e-9)
        lo = rng.uniform(0.0, 0.3, size=3)
        hi = rng.uniform(0.6, 1.0, size=3)
        img = lo[:, None, None] + ramp[None] * (hi - lo)[:, None, None]
    elif kind == 1:
        cell = int(rng.integers(2, max(3, size // 4)))
        yy, xx = np.mgrid[0:size, 0:size]
        mask = ((yy // cell + xx // cell) % 2).astype(np.float64)
        c0 = rng.uniform(0.0, 0.45, size=3)
        c1 = rng.uniform(0.55, 1.0, size=3)
        img = c0[:, None, None] * (1 - mask)[None] + c1[:, None, None] * mask[None]
    else:
        coarse = rng.uniform(0.0, 1.0, size=(3, 4, 4))
        img = _resize_bilinear(coarse, size, size)
    return np.clip(img, 0.0, 1.0).astype(np.float32)


def make_transmission(rng: np.random.Generator, size: int) -> np.ndarray:
    """Constant or smooth random transmission map in [0.3, 0.85]."""
    if rng.integers(0, 2) == 0:
        return np.full((1, size, size), rng.uniform(0.35, 0.8), dtype=np.float32)
    coarse = rng.uniform(0.3, 0.85, size=(1, 3, 3))
    return _resize_bilinear(coarse, size, size).astype(np.float32)


def make_toy_dataset(n: int, size: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n synthetic hazy/clean pairs as (n, 3, size, size) float32 arrays."""
    if n < 1:
        raise ConfigError("a synthetic dataset needs at least one pair")
    if size < 1:
        raise ConfigError("synthetic images need a positive size")
    if seed < 0:
        raise ConfigError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    clean = np.stack([make_clean_image(rng, size) for _ in range(n)])
    hazy = np.empty_like(clean)
    for i in range(n):
        a = float(rng.uniform(0.7, 1.0))
        t = make_transmission(rng, size)
        hazy[i] = synth_haze(clean[i], a, t)
    return hazy, clean


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class EpochStats:
    epoch: int
    train_l1: float
    val_l1: float
    lr: float


@dataclass
class TrainResult:
    net: PurifierNet
    lut: Optional[Lut3D]
    history: list
    best_val: float
    best_epoch: int
    best_state: dict
    optimizer: AdamW

    def restore_best(self) -> None:
        for name, arr in self.best_state["net"].items():
            self.net.params[name].data = arr.copy()
        if self.lut is not None and self.best_state.get("lut") is not None:
            self.lut.grid.data = self.best_state["lut"].copy()


def history_table(history: Sequence[EpochStats]) -> str:
    """Loss history as a plain-text table: epoch, train L1, val L1, lr."""
    lines = [f"{'epoch':>5}  {'train_l1':>10}  {'val_l1':>10}  {'lr':>10}"]
    for row in history:
        lines.append(f"{row.epoch:>5}  {row.train_l1:>10.6f}  "
                     f"{row.val_l1:>10.6f}  {row.lr:>10.3e}")
    return "\n".join(lines)


def _epoch_loss(hazy, clean, net, lut, flow_cfg, batch_size: int) -> float:
    # a batch at a time bounds memory; per-image norms keep the loss, up to rounding
    with no_grad():
        raw = [integrate(Tensor(hazy[i:i + batch_size]), net, lut, flow_cfg).raw_final.data
               for i in range(0, len(hazy), batch_size)]
        return float(l1_loss(Tensor(np.concatenate(raw)), Tensor(clean)).data)


def train_loop(pairs: tuple[np.ndarray, np.ndarray], cfg: TrainConfig,
               flow_cfg: FlowConfig, net: Optional[PurifierNet] = None,
               lut: Optional[Lut3D] = None, width: int = 16,
               lut_size: int = 33) -> TrainResult:
    """Fit purifier + LUT on hazy/clean pairs through the unrolled solver.

    A parameter trains iff it requires grad, the LUT grid included; a
    frozen one is neither updated nor decayed. The training pairs double
    as the validation set (desk scale). Runs are deterministic for a fixed
    seed. Raises DivergenceError when the loss turns non-finite.
    """
    hazy, clean = pairs
    if hazy.shape != clean.shape:
        raise ShapeError("hazy/clean arrays must have matching shapes")
    if hazy.shape[0] == 0:
        raise ValueError("dataset is empty")
    if net is None:
        net = PurifierNet(width=width, seed=cfg.seed)
    if lut is None and flow_cfg.lam > 0:
        lut = identity_lut(lut_size)

    params = dict(net.parameters(), **({} if lut is None else {"lut.grid": lut.grid}))
    trainable = {name: p for name, p in params.items() if p.requires_grad}
    opt = AdamW(trainable, lr=cfg.lr, weight_decay=cfg.weight_decay)
    sched = ReduceLROnPlateau(cfg.lr, patience=cfg.patience, factor=cfg.factor)
    shuffle_rng = np.random.default_rng(cfg.seed + 1)

    n = hazy.shape[0]
    history: list[EpochStats] = []
    best_val = float("inf")
    best_epoch = -1
    best_state = {"net": net.state(),
                  "lut": None if lut is None else lut.grid.data.copy()}

    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            x0 = Tensor(hazy[idx])
            target = Tensor(clean[idx])
            result = integrate(x0, net, lut, flow_cfg)
            loss = l1_loss(result.raw_final, target)
            if not np.isfinite(loss.data):
                step = opt.state.step_count + 1
                raise DivergenceError(f"non-finite training loss at step {step}", step=step)
            opt.zero_grad()
            loss.backward()
            opt.step()
            epoch_loss += float(loss.data) * len(idx)
        train_l1 = epoch_loss / n
        val_l1 = _epoch_loss(hazy, clean, net, lut, flow_cfg, cfg.batch_size)
        lr_now = sched.step(val_l1)
        opt.lr = lr_now
        history.append(EpochStats(epoch, train_l1, val_l1, lr_now))
        if val_l1 < best_val:
            best_val = val_l1
            best_epoch = epoch
            best_state = {"net": net.state(),
                          "lut": None if lut is None else lut.grid.data.copy()}

    return TrainResult(net=net, lut=lut, history=history,
                       best_val=best_val, best_epoch=best_epoch,
                       best_state=best_state, optimizer=opt)
