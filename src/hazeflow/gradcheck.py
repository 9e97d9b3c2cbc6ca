"""Central finite-difference gradients, used as the oracle for backward passes.

Comparisons use the combined tolerance |a - n| <= rtol * max(|a|, |n|) + atol.
The absolute term covers the resolution limit of central differences
(~eps * |f| / h); below it, analytic and numeric zeros cannot be told apart.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor


def numerical_gradient(f: Callable[[], Tensor], leaf: Tensor, h: float,
                       positions) -> np.ndarray:
    """Central-difference gradient of the scalar f() w.r.t. one leaf tensor,
    at the given flat positions of the leaf, as a 1-D array.

    f is re-evaluated with each of those elements perturbed by +/- h;
    the leaf's data is restored afterwards.
    """
    flat = leaf.data.reshape(-1)
    grad = np.empty(len(positions), dtype=np.float64)
    for j, i in enumerate(positions):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = float(f().data)
        flat[i] = orig - h
        f_minus = float(f().data)
        flat[i] = orig
        grad[j] = (f_plus - f_minus) / (2.0 * h)
    return grad


def violation_ratio(analytic, numeric, rtol: float, atol: float) -> float:
    """Worst |a - n| / (rtol * max(|a|, |n|) + atol) over all elements.

    <= 1 means every element agrees within the combined tolerance.
    """
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    allowed = rtol * np.maximum(np.abs(a), np.abs(n)) + atol
    return float(np.max(np.abs(a - n) / allowed))


def _check(f: Callable[[], Tensor], leaves: Sequence[Tensor], h: float,
           rtol: float, atol: float, pick: Callable) -> dict[int, float]:
    # analytic gradients from one backward() on f(); numeric ones from
    # central differences at the flat positions pick(analytic) chooses
    for leaf in leaves:
        leaf.zero_grad()
    f().backward()
    ratios = {}
    for idx, leaf in enumerate(leaves):
        analytic = (np.zeros_like(leaf.data) if leaf.grad is None
                    else leaf.grad).reshape(-1).astype(np.float64)
        positions = pick(analytic)
        ratios[idx] = violation_ratio(
            analytic[positions], numerical_gradient(f, leaf, h, positions),
            rtol, atol)
    return ratios


def check_gradients(f: Callable[[], Tensor], leaves: Sequence[Tensor],
                    h: float, rtol: float, atol: float) -> dict[int, float]:
    """Full elementwise check; returns {leaf index: violation ratio}."""
    return _check(f, leaves, h, rtol, atol, lambda a: np.arange(a.size))


def sampled_gradient_check(f: Callable[[], Tensor], leaves: Sequence[Tensor],
                           h: float, rtol: float, atol: float,
                           per_leaf: int = 8, seed: int = 0) -> dict[int, float]:
    """Per-leaf violation ratios, finite-differencing only sampled elements.

    Half of the probes per leaf go to the largest-magnitude analytic
    entries, half to random positions, which keeps whole-pipeline checks
    tractable while still covering where the gradient mass lives.
    """
    rng = np.random.default_rng(seed)

    def pick(analytic: np.ndarray) -> np.ndarray:
        take = min(per_leaf, analytic.size)
        n_top = take // 2
        top = np.argsort(-np.abs(analytic))[:n_top]
        rest = rng.choice(analytic.size, size=take - n_top, replace=False)
        return np.unique(np.concatenate([top, rest]))

    return _check(f, leaves, h, rtol, atol, pick)
