"""Benchmark input streams, targets and the washout / train / validation split.

Two target families are provided: delayed reproduction of a uniform input
stream (memory probing at a configurable delay) and the order-n nonlinear
autoregressive moving-average recurrence

    y[k] = a y[k-1] + b y[k-1] (1/n) sum_{i=1..n} y[k-i] + c u[k-n] u[k-1] + d

with the conventional constants (0.3, 0.05, 1.5, 0.1) and u drawn uniformly
from [0, 0.5]. The second term's 1/n keeps high orders bounded; a hard guard
turns any residual blow-up into a diagnosable error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError

NARMA_CONSTANTS = (0.3, 0.05, 1.5, 0.1)
NARMA_DEFAULT_ORDERS = (1, 5, 10, 20, 30, 40, 50)
NARMA_INPUT_MAX = 0.5
NARMA_GUARD = 10.0


@dataclass(frozen=True)
class SplitSpec:
    """Washout / training / validation step counts, in trajectory order."""

    washout: int
    train: int
    val: int

    def __post_init__(self):
        if self.washout < 0:
            raise ValueError(f"washout must be >= 0, got {self.washout}")
        if self.train < 1:
            raise ValueError(f"train length must be >= 1, got {self.train}")
        if self.val < 1:
            raise ValueError(f"val length must be >= 1, got {self.val}")

    @property
    def total(self) -> int:
        return self.washout + self.train + self.val

    @property
    def train_slice(self) -> slice:
        return slice(self.washout, self.washout + self.train)

    @property
    def val_slice(self) -> slice:
        return slice(self.washout + self.train, self.total)


def gen_uniform_inputs(length: int, lo: float = 0.0, hi: float = 1.0, seed=None) -> np.ndarray:
    """i.i.d. uniform values in [lo, hi), deterministic per seed."""
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi})")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=length)


def stm_targets(s, tau_d: int) -> np.ndarray:
    """Delayed-reproduction targets y[k] = s[k - tau_d]; undefined history is 0.

    The first ``tau_d`` entries have no source sample and are filled with 0;
    callers must keep them inside the washout so they never reach a fit.
    """
    s = np.asarray(s, dtype=float).ravel()
    tau_d = int(tau_d)
    if tau_d < 0:
        raise ValueError(f"delay must be >= 0, got {tau_d}")
    if tau_d > s.size:
        raise ValueError(f"delay {tau_d} exceeds sequence length {s.size}")
    y = np.zeros_like(s)
    if tau_d == 0:
        y[:] = s
    else:
        y[tau_d:] = s[:-tau_d]
    return y


def narma_series(u, order: int, constants=NARMA_CONSTANTS, guard: float = NARMA_GUARD) -> np.ndarray:
    """Order-n autoregressive series driven by u in [0, 0.5].

    The first ``order`` outputs are initialized to 0 (their recurrence would
    reach before the start of the input). Raises DivergenceError as soon as
    |y| exceeds ``guard``.
    """
    u = np.asarray(u, dtype=float).ravel()
    n = int(order)
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if not np.all((u >= 0.0) & (u <= NARMA_INPUT_MAX)):
        raise ValueError(f"raw inputs must lie in [0, {NARMA_INPUT_MAX}]")
    a, b, c, d = constants
    # The recurrence runs on Python floats: numpy scalars cost several times
    # more per operation, and the arithmetic is the same IEEE double either way.
    u = u.tolist()
    y = [0.0] * len(u)
    history_sum = 0.0  # running sum of y[k-1] ... y[k-n]
    for k in range(n, len(u)):
        y_k = a * y[k - 1] + b * y[k - 1] * history_sum / n + c * u[k - n] * u[k - 1] + d
        if not math.isfinite(y_k) or abs(y_k) > guard:
            raise DivergenceError(f"series diverged at step {k} (order {n}): y = {y_k!r}")
        y[k] = y_k
        history_sum += y[k] - y[k - n]
    return np.array(y)


def scale_inputs(u, u_max: float = NARMA_INPUT_MAX) -> np.ndarray:
    """Min-max scale from the declared generation range [0, u_max] to [0, 1]."""
    u = np.asarray(u, dtype=float).ravel()
    if u_max <= 0:
        raise ValueError(f"u_max must be > 0, got {u_max}")
    if not np.all((u >= 0.0) & (u <= u_max)):
        raise ValueError(f"raw inputs must lie in [0, {u_max}]")
    return u / u_max
