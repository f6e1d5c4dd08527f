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


def narma_series(u, order: int) -> np.ndarray:
    """Order-n autoregressive series driven by u in [0, 0.5].

    The first ``order`` outputs are initialized to 0 (their recurrence would
    reach before the start of the input). If |y| exceeds NARMA_GUARD, or a
    value is not finite, raises DivergenceError naming the first step past
    the guard and its value.
    """
    u = np.asarray(u, dtype=float).ravel()
    n = int(order)
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if not np.all((u >= 0.0) & (u <= NARMA_INPUT_MAX)):
        raise ValueError(f"raw inputs must lie in [0, {NARMA_INPUT_MAX}]")
    a, b, c, d = NARMA_CONSTANTS
    steps = max(u.size - n, 0)
    # c u[k-n] u[k-1] for k = n .. len(u)-1, the same two products in the
    # same order as the scalar recurrence would take them.
    drives = (c * u[:steps] * u[n - 1:n - 1 + steps]).tolist()
    # The recurrence runs on Python floats: numpy scalars cost several times
    # more per operation, and the arithmetic is the same IEEE double either way.
    # Past the guard the values are never returned, so the loop does not stop
    # for them; the check after it finds the first.
    y = [0.0] * min(n, u.size)
    y_prev = 0.0
    history_sum = 0.0  # running sum of y[k-1] ... y[k-n]
    for k, drive in enumerate(drives, n):
        y_prev = a * y_prev + b * y_prev * history_sum / n + drive + d
        y.append(y_prev)
        history_sum += y_prev - y[k - n]
    series = np.array(y)
    past = np.flatnonzero(~(np.abs(series) <= NARMA_GUARD))
    if past.size:
        k = int(past[0])
        raise DivergenceError(f"series diverged at step {k} (order {n}): y = {y[k]!r}")
    return series


def scale_inputs(u) -> np.ndarray:
    """Min-max scale from the declared generation range [0, 0.5] to [0, 1]."""
    u = np.asarray(u, dtype=float).ravel()
    if not np.all((u >= 0.0) & (u <= NARMA_INPUT_MAX)):
        raise ValueError(f"raw inputs must lie in [0, {NARMA_INPUT_MAX}]")
    return u / NARMA_INPUT_MAX
