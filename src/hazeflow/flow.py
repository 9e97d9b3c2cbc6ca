"""Haze-aware vector field and the fixed-step ODE solvers that integrate it.

The field combines the purifier output with a lambda-weighted LUT
correction; Euler, midpoint, and classic RK4 steps advance the image from
the hazy state at t=0 to the clear state at t=1. Gradients flow through
the unrolled solver (discretize-then-optimize).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DataError, DivergenceError
from .lut import Lut3D, trilinear_apply
from .purifier import PurifierNet, purify
from .tensor import Tensor

# Butcher tableaus, integer weights over a common denominator: row j builds
# x + dt/den * sum(w_i k_i), where stage j + 1 is evaluated at time
# t + dt * sum(w)/den; the last row (b) gives the next state.
TABLEAUS = {
    "euler": (((1,), 1),),
    "midpoint": (((1,), 2), ((0, 1), 1)),
    "rk4": (((1,), 2), ((0, 1), 2), ((0, 0, 1), 1), ((1, 2, 2, 1), 6)),
}
SOLVERS = tuple(TABLEAUS)

# vector-field evaluations per step: k_1 plus one per stage row
FIELD_EVALS = {name: len(rows) for name, rows in TABLEAUS.items()}


@dataclass
class FlowConfig:
    solver: str = "rk4"
    steps: int = 4
    lam: float = 0.5

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise ConfigError(f"unknown solver {self.solver!r}, expected one of {SOLVERS}")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if not 0 <= self.lam < np.inf:  # NaN fails this too
            raise ConfigError("lambda must be finite and non-negative")

    @property
    def dt(self) -> float:
        return 1.0 / self.steps  # time runs over [0, 1]


def vector_field(x: Tensor, net: PurifierNet, lut: Optional[Lut3D],
                 lam: float) -> Tensor:
    """f(x) = purify(x) + lam * LUT(clamp(x)).

    The LUT branch sees the clamped image (its domain is [0, C_max]); the
    purifier sees the raw state. With lam == 0 the LUT branch is skipped
    entirely, so the grid receives no gradient.
    """
    o_m = purify(x, net)
    if lam == 0 or lut is None:
        return o_m
    o_lut = trilinear_apply(x.clamp(0.0, lut.c_max), lut)
    return o_m + o_lut * lam


def _values(state) -> np.ndarray:
    return state.data if isinstance(state, Tensor) else np.asarray(state)


def solver_step(solver: str, x, f: Callable, t: float, dt: float,
                step: int = 1):
    """One step of the named solver from state x at time t.

    Every state built, stage states included, is checked; a non-finite
    one raises DivergenceError naming `step`.
    """
    rows = TABLEAUS[solver]
    ks = [f(t, x)]
    for j, (weights, den) in enumerate(rows, start=1):
        # zero weights skipped and weight 1 not multiplied, summed left to
        # right: bit-identical to the textbook formulas
        terms = [k if w == 1 else k * w for w, k in zip(weights, ks) if w]
        state = x + sum(terms[1:], terms[0]) * (dt / den)
        if not np.all(np.isfinite(_values(state))):
            raise DivergenceError(
                f"non-finite state in solver step {step}", step=step)
        if j == len(rows):
            return state
        ks.append(f(t + dt * sum(weights) / den, state))


@dataclass
class IntegrationResult:
    """Final solver state, the clamped image, and the state after every step."""
    raw_final: object
    output: object
    trajectory: list


def integrate_field(x0, field: Callable, cfg: FlowConfig):
    """Advance x0 through cfg.steps solver steps of the given field.

    Returns (raw final state, [X_1, ..., X_n]), the state after each step;
    the last one is the final state. No clamping is applied here; the
    states stay free so the solver arithmetic is exact.
    """
    dt = cfg.dt
    states = [x0]
    for i in range(cfg.steps):
        states.append(solver_step(cfg.solver, states[-1], field, i * dt, dt,
                                  step=i + 1))
    return states[-1], states[1:]


def integrate(x0: Tensor, net: PurifierNet, lut: Optional[Lut3D],
              cfg: FlowConfig) -> IntegrationResult:
    """Run the haze-aware flow from a [0,1] image; output is clamped to [0,1].

    The unclamped final state is kept on the result for training losses.
    """
    vals = _values(x0)
    # written so that NaN, which fails every comparison, is rejected too
    if not (vals.min() >= -1e-6 and vals.max() <= 1.0 + 1e-6):
        raise DataError(
            f"input image values [{vals.min():.4g}, {vals.max():.4g}] "
            "outside [0, 1]")

    def field(t: float, x: Tensor) -> Tensor:
        return vector_field(x, net, lut, cfg.lam)

    raw, states = integrate_field(x0, field, cfg)
    return IntegrationResult(raw_final=raw, output=raw.clamp(0.0, 1.0),
                             trajectory=states)
