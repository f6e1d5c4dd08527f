import re

import numpy as np
import pytest

from nmqrc import tasks
from nmqrc.errors import DivergenceError
from nmqrc.tasks import (
    NARMA_CONSTANTS,
    NARMA_GUARD,
    SplitSpec,
    gen_uniform_inputs,
    narma_series,
    scale_inputs,
    stm_targets,
)


class TestUniformInputs:
    def test_range(self):
        s = gen_uniform_inputs(1000, 0.0, 1.0, seed=0)
        assert s.min() >= 0.0 and s.max() < 1.0

    def test_mean(self):
        s = gen_uniform_inputs(100_000, 0.0, 0.5, seed=1)
        assert abs(s.mean() - 0.25) < 0.01

    def test_determinism(self):
        a = gen_uniform_inputs(50, seed=42)
        b = gen_uniform_inputs(50, seed=42)
        assert np.array_equal(a, b)

    def test_bad_range(self):
        with pytest.raises(ValueError, match="lo < hi"):
            gen_uniform_inputs(10, 1.0, 1.0)


class TestStmTargets:
    def test_zero_delay_identity(self):
        s = np.array([0.1, 0.2, 0.3])
        assert np.array_equal(stm_targets(s, 0), s)

    def test_shift(self):
        y = stm_targets(np.array([0.5, 0.6, 0.7]), 1)
        assert np.array_equal(y, [0.0, 0.5, 0.6])

    def test_undefined_history_is_zero(self):
        y = stm_targets(np.ones(4), 3)
        assert np.array_equal(y, [0.0, 0.0, 0.0, 1.0])

    def test_delay_guard(self):
        with pytest.raises(ValueError, match="delay"):
            stm_targets(np.ones(3), 4)
        with pytest.raises(ValueError, match="delay"):
            stm_targets(np.ones(3), -1)


def stepwise_narma(u, n):
    """The recurrence one step at a time, with the guard checked at each
    step. Returns (series, None), or (None, (step, value)) at the first step
    past the guard."""
    a, b, c, d = tasks.NARMA_CONSTANTS
    u = [float(v) for v in u]
    y = [0.0] * len(u)
    history_sum = 0.0
    for k in range(n, len(u)):
        y_k = a * y[k - 1] + b * y[k - 1] * history_sum / n + c * u[k - n] * u[k - 1] + d
        if not abs(y_k) <= NARMA_GUARD:
            return None, (k, y_k)
        y[k] = y_k
        history_sum += y[k] - y[k - n]
    return np.array(y), None


class TestNarmaSeries:
    def test_zero_input_fixed_point(self):
        # y* solves y = a y + b y^2 + d -> 0.05 y^2 - 0.7 y + 0.1 = 0 (smaller root)
        a, b, _, d = NARMA_CONSTANTS
        y_star = (0.7 - np.sqrt(0.7 ** 2 - 4 * b * d)) / (2 * b)
        for order in (1, 7, 20):
            y = narma_series(np.zeros(300), order)
            assert abs(y[200] - y_star) < 1e-10
        assert abs(y_star - 0.144335) < 1e-4

    def test_order_one_reduction(self):
        rng = np.random.default_rng(2)
        u = rng.uniform(0, 0.5, 200)
        y = narma_series(u, 1)
        want = np.zeros(200)
        for k in range(1, 200):
            want[k] = 0.3 * want[k - 1] + 0.05 * want[k - 1] ** 2 + 1.5 * u[k - 1] ** 2 + 0.1
        assert np.max(np.abs(y - want)) < 1e-12

    def test_history_normalization_matches_direct_sum(self):
        rng = np.random.default_rng(3)
        u = rng.uniform(0, 0.5, 150)
        n = 10
        y = narma_series(u, n)
        want = np.zeros(150)
        for k in range(n, 150):
            hist = want[k - n:k].sum()
            want[k] = 0.3 * want[k - 1] + 0.05 * want[k - 1] * hist / n + 1.5 * u[k - n] * u[k - 1] + 0.1
        assert np.max(np.abs(y - want)) < 1e-12

    def test_boundedness_over_seeds(self):
        for seed in range(100):
            u = gen_uniform_inputs(500, 0.0, 0.5, seed=seed)
            for order in (1, 5, 10, 20, 30, 40, 50):
                y = narma_series(u, order)
                assert np.max(np.abs(y)) <= 10.0

    def test_divergence_guard(self, monkeypatch):
        monkeypatch.setattr(tasks, "NARMA_CONSTANTS", (1.1, 0.05, 1.5, 0.5))
        u = np.full(100, 0.5)
        with pytest.raises(DivergenceError, match="diverged"):
            narma_series(u, 1)

    def test_divergence_names_the_stepwise_step(self, monkeypatch):
        monkeypatch.setattr(tasks, "NARMA_CONSTANTS", (1.1, 0.05, 1.5, 0.5))
        for seed in range(3):
            u = gen_uniform_inputs(300, 0.0, 0.5, seed=seed)
            for order in (1, 2, 3, 7):
                _, (k, y_k) = stepwise_narma(u, order)
                message = f"series diverged at step {k} (order {order}): y = {y_k!r}"
                with pytest.raises(DivergenceError, match=f"^{re.escape(message)}$"):
                    narma_series(u, order)

    def test_equals_the_stepwise_loop(self):
        for seed in (0, 1, 2):
            u = gen_uniform_inputs(1000, 0.0, 0.5, seed=seed)
            for order in range(1, 61):
                want, diverged = stepwise_narma(u, order)
                assert diverged is None
                assert np.array_equal(narma_series(u, order), want), (seed, order)

    def test_order_at_least_the_length_is_all_zeros(self):
        u = gen_uniform_inputs(6, 0.0, 0.5, seed=4)
        for order in (6, 7, 40):
            y = narma_series(u, order)
            assert np.array_equal(y, np.zeros(6))
            assert np.array_equal(y, stepwise_narma(u, order)[0])

    def test_empty_input(self):
        y = narma_series(np.array([]), 3)
        assert y.shape == (0,)
        assert np.array_equal(y, stepwise_narma([], 3)[0])

    def test_input_range_guard(self):
        with pytest.raises(ValueError, match="raw inputs"):
            narma_series(np.array([0.7]), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(ValueError, match="raw inputs"):
            narma_series(np.array([0.1, bad, 0.2, 0.3]), 1)


class TestScaleInputs:
    def test_endpoints_and_linearity(self):
        u = np.array([0.0, 0.25, 0.5])
        assert np.allclose(scale_inputs(u), [0.0, 0.5, 1.0])

    def test_order_preserving_bijection(self):
        rng = np.random.default_rng(4)
        u = np.sort(rng.uniform(0, 0.5, 50))
        s = scale_inputs(u)
        assert np.all(np.diff(s) >= 0)
        assert np.allclose(s * 0.5, u)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="raw inputs"):
            scale_inputs(np.array([0.6]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(ValueError, match="raw inputs"):
            scale_inputs(np.array([0.1, bad]))


class TestSplits:
    def test_protocol_layout(self):
        split = SplitSpec(1000, 3000, 1000)
        assert split.total == 5000
        assert split.train_slice == slice(1000, 4000)
        assert split.val_slice == slice(4000, 5000)
        rows = np.arange(split.total)
        assert rows[split.train_slice].size == 3000 and rows[split.val_slice].size == 1000

    def test_zero_washout(self):
        split = SplitSpec(0, 2, 1)
        assert split.train_slice == slice(0, 2)
        assert split.val_slice == slice(2, 3)

    def test_minimal_split(self):
        split = SplitSpec(0, 1, 1)
        rows = np.arange(split.total)
        assert rows[split.train_slice].size == 1 and rows[split.val_slice].size == 1

    def test_split_validation(self):
        with pytest.raises(ValueError, match="train"):
            SplitSpec(5, 0, 1)
        with pytest.raises(ValueError, match="val"):
            SplitSpec(5, 1, 0)
        with pytest.raises(ValueError, match="washout"):
            SplitSpec(-1, 1, 1)
