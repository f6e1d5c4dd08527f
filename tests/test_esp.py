import csv
from dataclasses import replace
from itertools import product
from unittest import mock

import numpy as np
import pytest

from nmqrc import esp, linalg, reservoir
from nmqrc.errors import NumericalError
from nmqrc.esp import EspRecord, backflow_count, dual_trajectory, records_to_csv, window_stats
from nmqrc.hamiltonian import CouplingSet, HamiltonianRealization, ReservoirParams, build_hamiltonian
from nmqrc.linalg import DensityMatrix
from nmqrc.reservoir import MULTIPLEX_MODES, ReservoirConfig, _StepEngine, run_trajectory

import oracle


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

    def test_default_states_are_built_without_validation(self, monkeypatch):
        # I/d and |0><0| are known: no DensityMatrix is built, and the
        # records are those of the validated pair
        for n in (1, 3, 6):
            assert np.array_equal(linalg._mixed_matrix(n), oracle.mixed(n))
            assert np.array_equal(linalg._ground_matrix(n), oracle.ground(n))
        real = make_real()
        cfg = ReservoirConfig(tau=0.5, v=3)
        inputs = [0.2, 0.8, 0.5]
        want = dual_trajectory(real, inputs, cfg,
                               initial_states=(DensityMatrix(oracle.mixed(3)), DensityMatrix(oracle.ground(3))))

        def no_validation(self):
            raise AssertionError("validated a default state")

        monkeypatch.setattr(DensityMatrix, "__post_init__", no_validation)
        assert dual_trajectory(real, inputs, cfg) == want

    def test_identical_initial_states(self):
        real = make_real()
        inputs = np.random.default_rng(0).uniform(0, 1, 10)
        g = DensityMatrix(oracle.ground(3))
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
        pair = (DensityMatrix(oracle.mixed(3)), DensityMatrix(oracle.ground(3)))
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
        # injection, unitary evolution and the partial trace all contract the
        # trace norm, so the full-register distance never rises and only the
        # system-marginal series can show backflow; checked on a small
        # register and on the paper's 4+3 in both regimes and both modes
        rng = np.random.default_rng(7)
        cases = [(make_real(n_sys=2, n_env=2, alpha=5.0, beta=0.2, seed=6), ReservoirConfig(tau=0.5, v=3), 40)]
        cases += [(make_real(n_sys=4, n_env=3, alpha=alpha, beta=beta, seed=3),
                   ReservoirConfig(tau=0.5, v=10, multiplex=multiplex), 300)
                  for alpha, beta in [(10.0, 0.01), (0.01, 10.0)]  # markov, non_markov
                  for multiplex in ["per_node", "sub_step"]]
        for real, cfg, steps in cases:
            records = dual_trajectory(real, rng.uniform(0, 1, steps), cfg)
            assert np.max(np.diff([r.trace_distance for r in records])) <= 1e-12


def record_carried(monkeypatch):
    """Patch the step engine to keep a copy of every carried stack it steps;
    the record after input k is taken on the k-th."""
    seen = []
    original = _StepEngine.step

    def recording(self, tau, *args):
        seen.append(tau.copy())
        return original(self, tau, *args)

    monkeypatch.setattr(_StepEngine, "step", recording)
    return seen


def hermitian_difference(pair):
    diff = pair[0].matrix - pair[1].matrix
    return (diff + diff.conj().T) / 2


class TestClassSplit:
    """The full-register distance eigensolves only the classes both states
    occupy and takes |Tr| of the others; it must equal the trace norm of the
    whole carried stack (at step 0, of the whole register's Delta)."""

    STATES = {
        "mixed": DensityMatrix(oracle.mixed(4)),
        "ground": DensityMatrix(oracle.ground(4)),
        "flipped": DensityMatrix(np.diag(np.eye(16)[1]).astype(complex)),  # last environment qubit set
    }

    @pytest.mark.parametrize("alpha, names, classes, shared", [
        (1.0, ("mixed", "ground"), 2, 1),
        (0.0, ("mixed", "ground"), 4, 1),  # every environment Z conserved
        (1.0, ("ground", "mixed"), 2, 1),  # the block held by rho2 alone is negative
        (1.0, ("ground", "flipped"), 2, 0),  # opposite environment parities
    ], ids=["default-pair", "default-pair-alpha-0", "reversed-pair", "disjoint-supports"])
    def test_full_distance_is_the_trace_norm_of_the_stack(self, alpha, names, classes, shared, monkeypatch):
        real = make_real(n_sys=2, n_env=2, alpha=alpha, seed=11)
        cfg = ReservoirConfig(tau=0.5, v=3)
        pair = tuple(self.STATES[name] for name in names)
        support = (pair[0].matrix != 0) | (pair[1].matrix != 0)
        assert _StepEngine(real, cfg, support).classes == classes
        norms = mock.Mock(wraps=linalg.trace_norm)
        monkeypatch.setattr(esp, "trace_norm", norms)
        seen = record_carried(monkeypatch)
        records = dual_trajectory(real, np.random.default_rng(12).uniform(0, 1, 25), cfg, initial_states=pair)
        assert len(seen) == 25
        want = [linalg.trace_norm(hermitian_difference(pair))] + [linalg.trace_norm(tau) for tau in seen]
        for r, w in zip(records, want):
            assert abs(r.trace_distance - w) <= 1e-12
        # one system-marginal call per record, and one eigensolve of the
        # shared classes where there are any
        full_calls = [c.args[0] for c in norms.call_args_list if c.args[0].ndim == 3]
        assert [a.shape[0] for a in full_calls] == [1] * (26 if shared else 0)

    @pytest.mark.parametrize("cls", [0, 1], ids=["shared-class", "mixed-state-class"])
    @pytest.mark.parametrize("entry, match", [(np.nan, "non-finite"), (1e-8, "not Hermitian")])
    def test_corrupt_block_is_caught(self, cls, entry, match, monkeypatch):
        # the ground state's class (0) is eigensolved; the other holds I/d's
        # block alone. An entry corrupted after the step has checked the
        # carried stack reaches only the record, which must still catch it
        # and name the step.
        real = make_real()
        original = _StepEngine.step
        steps = []

        def corrupting(self, tau, *args):
            out = original(self, tau, *args)
            steps.append(tau)
            if len(steps) == 3:
                tau[cls, 0, 1] += entry
            return out

        monkeypatch.setattr(_StepEngine, "step", corrupting)
        with pytest.raises(NumericalError,
                           match=f"^trajectory pair failed at step 2: trace norm input (contains|is) {match}"):
            dual_trajectory(real, [0.2, 0.5, 0.7, 0.1], ReservoirConfig(tau=0.5, v=2))
        assert len(steps) == 3

    def test_block_at_the_eigenvalue_tolerance(self, monkeypatch):
        # rho2 puts 1/2 on |000>, in the class rho1 = |000><000| occupies, and
        # 1/2 on the other class, with three eigenvalues just inside
        # -EIGENVALUE_ATOL. There |Tr| misses the trace norm by up to
        # 2 d_c EIGENVALUE_ATOL, d_c = 4 states per class.
        real = make_real()
        neg = -0.99 * linalg.EIGENVALUE_ATOL
        diag = np.zeros(8)
        diag[0] = 0.5
        diag[[1, 3, 5]] = neg  # the class of |001>: register indices 1, 3, 5 and 7
        diag[7] = 0.5 - 3 * neg
        pair = (DensityMatrix(oracle.ground(3)), DensityMatrix(np.diag(diag).astype(complex)))
        seen = record_carried(monkeypatch)
        records = dual_trajectory(real, np.random.default_rng(13).uniform(0, 1, 20),
                                  ReservoirConfig(tau=0.5, v=2), initial_states=pair)
        exact = [linalg.trace_norm(hermitian_difference(pair))] + [linalg.trace_norm(tau) for tau in seen]
        gap = np.array(exact) - [r.trace_distance for r in records]
        assert gap[0] == pytest.approx(2 * 3 * 0.99 * linalg.EIGENVALUE_ATOL, rel=1e-3)
        assert np.all(gap >= -1e-12)
        assert np.all(gap <= 2 * 4 * linalg.EIGENVALUE_ATOL)


@pytest.mark.parametrize("alpha", [0.9, 0.0])
@pytest.mark.parametrize("multiplex", MULTIPLEX_MODES)
@pytest.mark.parametrize("basis", ["eigen", "class"])
def test_full_distance_keeps_the_class_floor(alpha, multiplex, basis):
    # Each class block of Delta = rho1 - rho2 evolves under its own
    # trace-preserving map, so Tr Delta_c is conserved and the full-register
    # distance never falls below sum_c |Tr Delta_c|. The classes are the
    # environment parities for alpha > 0 and the environment Z configurations
    # for alpha = 0, found here from the register index alone; for the default
    # pair (I/d, |0><0|) the floor is 1 and 2 (1 - 2^-n_env). A block one state
    # holds alone is semidefinite only to EIGENVALUE_ATOL, hence the tolerance
    # of 2 d_c EIGENVALUE_ATOL per class.
    n_sys, n_env = 3, 2
    n = n_sys + n_env
    real = make_real(n_sys, n_env, alpha=alpha, beta=0.8, seed=5)
    cfg = ReservoirConfig(tau=0.6, v=4, multiplex=multiplex)
    rho1, rho2 = oracle.mixed(n), oracle.ground(n)
    env = np.arange(2 ** n) & ((1 << n_env) - 1)  # the environment is the low bits
    label = env if alpha == 0 else np.array([bin(e).count("1") % 2 for e in env])
    diagonal = np.diag(rho1 - rho2).real
    classes = np.unique(label)
    floor = sum(abs(diagonal[label == c].sum()) for c in classes)
    assert floor == pytest.approx(1.0 if alpha else 2 * (1 - 2.0 ** -n_env), abs=1e-12)
    tolerance = sum(2 * np.count_nonzero(label == c) * linalg.EIGENVALUE_ATOL for c in classes)
    inputs = np.random.default_rng(17).uniform(0, 1, 60)
    with mock.patch.object(reservoir, "_BATCH_LIMIT", 0 if basis == "eigen" else reservoir._BATCH_LIMIT):
        engine = _StepEngine(real, replace(cfg, observables="z_only"), (rho1 != 0) | (rho2 != 0))
        records = dual_trajectory(real, inputs, cfg)
    assert engine.basis == basis
    assert engine.classes == classes.size
    assert len(records) == inputs.size + 1
    for r in records:
        assert r.trace_distance >= floor - tolerance


@pytest.mark.parametrize("seed", [0, 1])
def test_alpha_zero_pair_is_the_class_sum_of_system_runs(seed):
    # At alpha = 0 every environment Z is conserved, so environment
    # configuration e is a class, on which the system sees the static field
    # sum_k g_ik z_k on qubit i. I/128 is the uniform mixture of I/16 over the
    # 8 configurations, and |0><0| sits in configuration 0, so at every step
    # the pair's feature difference is sum_e 2^-3 f_e(I/16) - f_0(|0000>),
    # with f_e the features of a 4-qubit run under
    # H_sys + sum_i (sum_k g_ik z_k) Z_i. Measured on these inputs: gaps of
    # 3.9e-12 and 5.4e-12 at seeds 0 and 1, at most 2.5e-10 over seeds 0-11,
    # on a scale of 1.3e2-1.5e2; the ground state put in configuration 1
    # instead of 0 misses by 25 or more.
    real = make_real(4, 3, alpha=0.0, beta=10.0, seed=seed)
    cfg = ReservoirConfig(tau=0.5, v=50, multiplex="sub_step")
    inputs = np.random.default_rng(seed).uniform(0, 1, 2500)
    got = np.array([r.sqnorm_diff for r in dual_trajectory(real, inputs, cfg)])

    params = ReservoirParams(n_sys=4, n_env=0, alpha=0.0, beta=0.0, h_sys=0.5, h_env=0.0, seed=seed)
    couplings = CouplingSet(j_sys=real.couplings.j_sys, j_env=[], g=np.zeros((4, 0)))
    h_sys = build_hamiltonian(params, couplings).h_full
    z = np.array([oracle.embed_pauli("Z", i, 4).real for i in range(4)])

    def features(config, rho0):
        field = real.couplings.g @ (1.0 - 2.0 * np.array(config))
        h = h_sys + np.tensordot(field, z, axes=1)
        run = run_trajectory(HamiltonianRealization(params, couplings, h), inputs, cfg,
                             initial_state=DensityMatrix(rho0))
        return run[0].values[:, :-1]

    mixed = sum(features(config, oracle.mixed(4)) for config in product((0, 1), repeat=3)) / 8
    want = ((mixed - features((0, 0, 0), oracle.ground(4))) ** 2).sum(axis=1)
    assert got[0] == 0.0
    assert np.max(np.abs(got[1:] - want)) <= 1e-11 * np.max(want)


def test_step_checks_the_trace_it_is_given():
    # a difference of two states keeps trace 0; a density matrix stepped as
    # one is caught
    real = make_real()
    engine = _StepEngine(real, ReservoirConfig(tau=0.5, v=2), np.ones((8, 8), dtype=bool))
    state = engine.to_state(oracle.ground(3))
    z = np.empty(engine.record, dtype=complex)
    amplitudes = np.sqrt([1.0 - 0.3, 0.3])
    engine.step(state, amplitudes, z)
    with pytest.raises(NumericalError, match="trace"):
        engine.step(state, amplitudes, z, trace=0.0)


class TestWindowStats:
    def test_constant_records(self):
        recs = series([0.5] * 10)
        stats = window_stats(recs, 2, 8)
        assert stats.mean_sqnorm == pytest.approx(0.5)
        assert stats.max_sqnorm == pytest.approx(0.5)

    def test_zero_records(self):
        stats = window_stats(series([0.0] * 5), 0, 5)
        assert stats == (0.0, 0.0)

    def test_window_selection_is_half_open(self):
        recs = series([1.0, 2.0, 3.0, 4.0])
        stats = window_stats(recs, 1, 3)
        assert stats.mean_sqnorm == pytest.approx(2.5)
        assert stats.max_sqnorm == pytest.approx(3.0)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            window_stats(series([1.0, 2.0]), 5, 9)


class TestBackflowCount:
    def test_monotone_decreasing(self):
        assert backflow_count(series([1.0, 0.8, 0.5, 0.2])) == (0, 0.0)

    def test_hand_series(self):
        count, total = backflow_count(series([1.0, 0.5, 0.7]))
        assert count == 1
        assert total == pytest.approx(0.2)

    def test_tolerance_suppresses_noise(self):
        count, _ = backflow_count(series([1.0, 1.0 + 1e-9, 1.0]))
        assert count == 0

    def test_counts_the_system_marginal(self):
        recs = [EspRecord(0, 0.0, 1.0, 0.1), EspRecord(1, 0.0, 0.5, 0.9)]
        assert backflow_count(recs) == (1, pytest.approx(0.8))

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
