"""Linear readout: pseudoinverse least squares and scoring."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import pseudoinverse
from .reservoir import FeatureMatrix


def _as_design(x) -> tuple[np.ndarray, tuple[str, ...] | None]:
    if isinstance(x, FeatureMatrix):
        return x.values, x.labels
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"feature input must be 2-dimensional, got shape {a.shape}")
    return a, None


@dataclass(frozen=True)
class ReadoutWeights:
    """Trained readout vector; the bias weight is the last entry."""

    weights: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).ravel()
        if not np.all(np.isfinite(w)):
            raise ValueError("readout weights contain non-finite entries")
        if self.labels is not None and len(self.labels) != w.size:
            raise ValueError(f"{w.size} weights but {len(self.labels)} labels")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


def fit_linear(x, y) -> ReadoutWeights:
    """Least-squares weights w = X^+ y."""
    mat, labels = _as_design(x)
    y = np.asarray(y, dtype=float).ravel()
    if mat.shape[0] == 0 or y.size == 0:
        raise ValueError("training set is empty")
    if mat.shape[0] != y.size:
        raise ValueError(f"{mat.shape[0]} feature rows but {y.size} targets")
    if not np.all(np.isfinite(y)):
        raise ValueError("targets contain non-finite entries")
    return ReadoutWeights(weights=pseudoinverse(mat) @ y, labels=labels)


def predict(x, w: ReadoutWeights) -> np.ndarray:
    """Predictions X w."""
    mat, _ = _as_design(x)
    if mat.shape[1] != w.weights.size:
        raise ValueError(f"feature width {mat.shape[1]} does not match {w.weights.size} weights")
    return mat @ w.weights


def squared_correlation(y, yhat) -> float:
    """Squared Pearson correlation Cov^2(y, yhat) / (Var(y) Var(yhat)).

    Population (1/L) normalization. Degenerate inputs with zero variance
    score 0 and emit a RuntimeWarning instead of raising, so parameter
    sweeps stay total.
    """
    y = np.asarray(y, dtype=float).ravel()
    yhat = np.asarray(yhat, dtype=float).ravel()
    if y.size == 0 or y.size != yhat.size:
        raise ValueError(f"length mismatch: {y.size} targets vs {yhat.size} predictions")
    yc = y - y.mean()
    yhc = yhat - yhat.mean()
    var_y = float(np.mean(yc ** 2))
    var_yh = float(np.mean(yhc ** 2))
    if var_y <= 0.0 or var_yh <= 0.0:
        warnings.warn("zero-variance series in squared_correlation; scoring 0", RuntimeWarning, stacklevel=2)
        return 0.0
    cov = float(np.mean(yc * yhc))
    return min(cov * cov / (var_y * var_yh), 1.0)
