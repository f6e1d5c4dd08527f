"""Readout scoring: the squared correlation of targets and predictions."""

from __future__ import annotations

import warnings

import numpy as np


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
