import csv

import numpy as np
import pytest

from nmqrc.errors import NumericalError
from nmqrc.esp import EspRecord, backflow_count, dual_trajectory, records_to_csv, window_stats
from nmqrc.hamiltonian import ReservoirParams, build_hamiltonian
from nmqrc.linalg import DensityMatrix
from nmqrc.reservoir import ReservoirConfig, _StepEngine


def make_real(n_sys=2, n_env=1, alpha=1.0, beta=1.0, seed=0):
    return build_hamiltonian(ReservoirParams(n_sys=n_sys, n_env=n_env, alpha=alpha, beta=beta,
                                             h_sys=0.5, h_env=alpha, seed=seed))


def series(values):
    return [EspRecord(step=k, sqnorm_diff=v, trace_distance=v, trace_distance_sys=v)
            for k, v in enumerate(values)]


class TestDualTrajectory:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected_before_any_step(self, bad, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("stepped")

        monkeypatch.setattr(_StepEngine, "step", no_step)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            dual_trajectory(make_real(), [0.2, bad], ReservoirConfig(tau=0.5, v=2))

    def test_identical_initial_states(self):
        real = make_real()
        inputs = np.random.default_rng(0).uniform(0, 1, 10)
        g = DensityMatrix.ground(3)
        records = dual_trajectory(real, inputs, ReservoirConfig(tau=0.7, v=3),
                                  initial_states=(g, g))
        assert len(records) == 11
        for r in records:
            assert r.sqnorm_diff == 0.0
            assert r.trace_distance < 1e-12

    def test_step0_snapshot_distances(self):
        real = make_real(n_sys=4, n_env=3, alpha=10.0, beta=0.01, seed=1)
        records = dual_trajectory(real, [0.5], ReservoirConfig(tau=0.5, v=2))
        # default pair: maximally mixed vs all-zero on 7 qubits
        assert records[0].step == 0
        assert records[0].sqnorm_diff == 0.0
        assert abs(records[0].trace_distance - 2 * (1 - 1 / 128)) < 1e-12
        assert abs(records[0].trace_distance_sys - 2 * (1 - 1 / 16)) < 1e-12

    def test_symmetric_in_initial_states(self):
        real = make_real(seed=2)
        inputs = np.random.default_rng(3).uniform(0, 1, 8)
        cfg = ReservoirConfig(tau=0.6, v=2)
        pair = (DensityMatrix.maximally_mixed(3), DensityMatrix.ground(3))
        fwd = dual_trajectory(real, inputs, cfg, initial_states=pair)
        rev = dual_trajectory(real, inputs, cfg, initial_states=pair[::-1])
        for a, b in zip(fwd, rev):
            assert a.sqnorm_diff == pytest.approx(b.sqnorm_diff, abs=1e-12)
            assert a.trace_distance == pytest.approx(b.trace_distance, abs=1e-12)
            assert a.trace_distance_sys == pytest.approx(b.trace_distance_sys, abs=1e-12)

    def test_sqnorm_bound(self):
        real = make_real(seed=4)
        cfg = ReservoirConfig(tau=0.5, v=4)
        records = dual_trajectory(real, np.random.default_rng(5).uniform(0, 1, 15), cfg)
        bound = 4 * 2 * cfg.v  # 4 per feature, n_obs = 2, v nodes
        for r in records:
            assert 0.0 <= r.sqnorm_diff <= bound
            assert 0.0 <= r.trace_distance <= 2.0 + 1e-12

    def test_env_free_register_reports_equal_distances(self):
        real = build_hamiltonian(ReservoirParams(n_sys=2, n_env=0, alpha=0.0, beta=0.0,
                                                 h_sys=0.5, h_env=0.0, seed=8))
        records = dual_trajectory(real, np.random.default_rng(9).uniform(0, 1, 12),
                                  ReservoirConfig(tau=0.5, v=2))
        for r in records:
            assert r.trace_distance_sys == r.trace_distance

    def test_initial_traces_off_by_the_density_matrix_tolerance(self):
        # each state may miss unit trace by up to 1e-9, so their difference
        # may miss trace 0 by more than the step's 1e-9 check allows
        eps = 0.8e-9
        pair = (DensityMatrix(np.eye(8, dtype=complex) * (1 + eps) / 8),
                DensityMatrix(np.diag([1 - eps] + [0] * 7).astype(complex)))
        records = dual_trajectory(make_real(), [0.2, 0.7], ReservoirConfig(tau=0.5, v=2), initial_states=pair)
        assert len(records) == 3

    def test_full_register_distance_contractive_per_step(self):
        # injection is the only non-unitary part, so post-step distance
        # can never exceed the previous one
        real = make_real(n_sys=2, n_env=2, alpha=5.0, beta=0.2, seed=6)
        records = dual_trajectory(real, np.random.default_rng(7).uniform(0, 1, 40),
                                  ReservoirConfig(tau=0.5, v=3))
        tds = [r.trace_distance for r in records]
        for prev, cur in zip(tds, tds[1:]):
            assert cur <= prev + 1e-10


def test_step_checks_the_trace_it_is_given():
    # a difference of two states keeps trace 0; a density matrix stepped as
    # one is caught
    real = make_real()
    engine = _StepEngine(real, ReservoirConfig(tau=0.5, v=2), np.ones((8, 8), dtype=bool))
    state = engine.to_state(DensityMatrix.ground(3).matrix)
    engine.step(state, 0.3)
    with pytest.raises(NumericalError, match="trace"):
        engine.step(state, 0.3, trace=0.0)


class TestWindowStats:
    def test_constant_records(self):
        recs = series([0.5] * 10)
        stats = window_stats(recs, 2, 8)
        assert stats.mean_sqnorm == pytest.approx(0.5)
        assert stats.max_sqnorm == pytest.approx(0.5)
        assert stats.mean_trace_distance == pytest.approx(0.5)

    def test_zero_records(self):
        stats = window_stats(series([0.0] * 5), 0, 5)
        assert stats == (0.0, 0.0, 0.0)

    def test_window_selection_is_half_open(self):
        recs = series([1.0, 2.0, 3.0, 4.0])
        stats = window_stats(recs, 1, 3)
        assert stats.mean_trace_distance == pytest.approx(2.5)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            window_stats(series([1.0, 2.0]), 5, 9)


class TestBackflowCount:
    def test_monotone_decreasing(self):
        assert backflow_count(series([1.0, 0.8, 0.5, 0.2])) == (0, 0.0)

    def test_hand_series(self):
        count, total = backflow_count(series([1.0, 0.5, 0.7]), tol=1e-6)
        assert count == 1
        assert total == pytest.approx(0.2)

    def test_tolerance_suppresses_noise(self):
        count, _ = backflow_count(series([1.0, 1.0 + 1e-9, 1.0]), tol=1e-6)
        assert count == 0

    def test_use_argument(self):
        recs = [EspRecord(0, 0.0, 1.0, 0.1), EspRecord(1, 0.0, 0.5, 0.9)]
        assert backflow_count(recs, use="full")[0] == 0
        assert backflow_count(recs, use="sys")[0] == 1
        with pytest.raises(ValueError, match="use"):
            backflow_count(recs, use="both")

    def test_needs_two_records(self):
        with pytest.raises(ValueError, match="two records"):
            backflow_count(series([1.0]))


class TestRecordsCsv:
    def test_schema(self, tmp_path):
        recs = [EspRecord(0, 0.0, 1.984375, 1.875), EspRecord(1, 0.25, 1.5, 1.25)]
        path = tmp_path / "records.csv"
        records_to_csv(recs, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "sqnorm_diff", "trace_distance_full", "trace_distance_sys"]
        assert float(rows[1][2]) == 1.984375
        assert float(rows[2][1]) == 0.25
