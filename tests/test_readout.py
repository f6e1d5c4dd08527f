import numpy as np
import pytest

from nmqrc.linalg import pseudoinverse
from nmqrc.readout import squared_correlation


def mse(y, yhat):
    return float(np.mean((y - yhat) ** 2))


def design(rng, rows, cols):
    x = rng.uniform(-1, 1, size=(rows, cols))
    x[:, -1] = 1.0  # bias column
    return x


class TestFitLinear:
    """The harness's least-squares readout, w = pinv(X) y, scored as X w."""

    def test_recovers_realizable_target(self):
        rng = np.random.default_rng(0)
        x = design(rng, 50, 8)
        w_true = rng.standard_normal(8)
        y = x @ w_true
        yhat = x @ (pseudoinverse(x) @ y)
        assert np.max(np.abs(yhat - y)) < 1e-10
        assert mse(y, yhat) < 1e-20

    def test_constant_target_absorbed_by_bias(self):
        rng = np.random.default_rng(1)
        x = design(rng, 40, 5)
        y = np.full(40, 3.25)
        yhat = x @ (pseudoinverse(x) @ y)
        assert np.max(np.abs(yhat - 3.25)) < 1e-9

    def test_duplicated_column_harmless(self):
        rng = np.random.default_rng(2)
        x = design(rng, 30, 4)
        x_dup = np.hstack([x, x[:, :1]])
        y = rng.standard_normal(30)
        base = x @ (pseudoinverse(x) @ y)
        dup = x_dup @ (pseudoinverse(x_dup) @ y)
        assert np.max(np.abs(base - dup)) < 1e-8

    def test_least_squares_optimality(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = design(rng, 25, 6)
            y = rng.standard_normal(25)
            w = pseudoinverse(x) @ y
            best = mse(y, x @ w)
            for _ in range(3):
                d = rng.standard_normal(6)
                assert mse(y, x @ (w + 1e-3 * d)) >= best - 1e-12


class TestSquaredCorrelation:
    def test_perfect(self):
        y = np.arange(10.0)
        assert squared_correlation(y, y) == pytest.approx(1.0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(6)
        y = rng.standard_normal(100)
        yhat = rng.standard_normal(100)
        base = squared_correlation(y, yhat)
        again = squared_correlation(3.0 * y + 1.0, -2.0 * yhat + 5.0)
        assert abs(base - again) < 1e-12

    def test_independent_noise_scores_low(self):
        rng = np.random.default_rng(7)
        y = rng.standard_normal(1000)
        yhat = rng.standard_normal(1000)
        assert squared_correlation(y, yhat) < 0.05

    def test_zero_variance_scores_zero_with_warning(self):
        with pytest.warns(RuntimeWarning, match="zero-variance"):
            assert squared_correlation(np.ones(5), np.arange(5.0)) == 0.0

    def test_bounded(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            y = rng.standard_normal(20)
            yhat = rng.standard_normal(20)
            score = squared_correlation(y, yhat)
            assert 0.0 <= score <= 1.0
