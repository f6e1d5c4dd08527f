import pickle
from math import comb

import numpy as np
import pytest

from nmqrc.errors import ConfigError, NumericalError
from nmqrc.hamiltonian import ReservoirParams, build_hamiltonian, embed_pauli
from nmqrc.linalg import DensityMatrix, partial_trace, propagator
from nmqrc.reservoir import (
    FeatureMatrix,
    ObservableSet,
    ReservoirConfig,
    encode_input,
    evolve_step,
    feature_labels,
    inject_input,
    measure,
    run_trajectory,
)


def make_real(n_sys=2, n_env=1, alpha=1.0, beta=1.0, h_sys=0.5, h_env=1.0, seed=0):
    return build_hamiltonian(ReservoirParams(n_sys=n_sys, n_env=n_env, alpha=alpha, beta=beta,
                                             h_sys=h_sys, h_env=h_env, seed=seed))


def naive_step(rho_mat, s, real, cfg, obs):
    """Reference stepper: explicit propagator conjugation per sub-step."""
    n = real.params.n_qubits
    dt = cfg.tau * cfg.sub_dt_factor
    u = propagator(real.h_full, dt)
    rho_in = encode_input(s).matrix
    if n == 1:
        # sole qubit: injection replaces the whole register
        rho = rho_in * rho_mat.trace()
    else:
        rest = partial_trace(rho_mat, {cfg.input_qubit}, n)
        # reinsert at position input_qubit (tests use input_qubit = 0)
        rho = np.kron(rho_in, rest)
    feats = []
    env = set(range(real.params.n_sys, n))
    for _ in range(cfg.v):
        rho = u @ rho @ u.conj().T
        rho_sys = partial_trace(rho, env, n) if env else rho
        feats.extend(measure(rho_sys, obs))
    return rho, np.array(feats)


class TestEncodeInput:
    def test_endpoints(self):
        assert np.allclose(encode_input(0.0).matrix, np.diag([1.0, 0.0]))
        assert np.allclose(encode_input(1.0).matrix, np.diag([0.0, 1.0]))

    def test_half(self):
        assert np.allclose(encode_input(0.5).matrix, np.full((2, 2), 0.5))

    def test_range_guard(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            encode_input(1.2)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            encode_input(-0.1)


class TestInjectInput:
    def test_product_state_replacement(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rest = a @ a.conj().T
        rest /= rest.trace()
        old = DensityMatrix(np.kron(np.diag([0.2, 0.8]), rest).astype(complex))
        new_in = encode_input(0.3)
        out = inject_input(old, new_in, 0)
        assert np.max(np.abs(out.matrix - np.kron(new_in.matrix, rest))) < 1e-12

    def test_maximally_mixed(self):
        out = inject_input(DensityMatrix.maximally_mixed(3), encode_input(0.7), 0)
        want = np.kron(encode_input(0.7).matrix, np.eye(4) / 4)
        assert np.max(np.abs(out.matrix - want)) < 1e-12

    def test_bell_pair(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = DensityMatrix(np.outer(bell, bell.conj()))
        out = inject_input(rho, encode_input(0.0), 0)
        want = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2)
        assert np.max(np.abs(out.matrix - want)) < 1e-12

    def test_trace_one(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        rho = a @ a.conj().T
        rho /= rho.trace()
        out = inject_input(DensityMatrix(rho), encode_input(0.9), 0)
        assert abs(out.matrix.trace() - 1.0) < 1e-12

    def test_nonzero_position(self):
        rng = np.random.default_rng(2)
        parts = []
        for _ in range(3):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            p = a @ a.conj().T
            parts.append(p / p.trace())
        joint = DensityMatrix(np.kron(np.kron(parts[0], parts[1]), parts[2]))
        new_in = encode_input(0.25)
        out = inject_input(joint, new_in, 1)
        want = np.kron(np.kron(parts[0], new_in.matrix), parts[2])
        assert np.max(np.abs(out.matrix - want)) < 1e-12

    def test_guards(self):
        with pytest.raises(ValueError, match="single-qubit"):
            inject_input(DensityMatrix.ground(2), DensityMatrix.ground(2), 0)
        with pytest.raises(ValueError, match="out of range"):
            inject_input(DensityMatrix.ground(2), encode_input(0.5), 2)


class TestObservableSet:
    def test_z_only_counts(self):
        obs = ObservableSet.build(3, "z_only")
        assert obs.labels == ("Z0", "Z1", "Z2")
        assert len(obs) == 3

    def test_z_and_zz_counts(self):
        obs = ObservableSet.build(4, "z_and_zz")
        assert len(obs) == 4 + comb(4, 2)
        assert "Z0Z3" in obs.labels

    def test_operators_match_embeddings(self):
        obs = ObservableSet.build(2, "z_and_zz")
        assert np.array_equal(obs.operators[0], embed_pauli("Z", 0, 2))
        zz = embed_pauli("Z", 0, 2) @ embed_pauli("Z", 1, 2)
        assert np.array_equal(obs.operators[2], zz)

    def test_pickle_keeps_operators_read_only(self):
        obs = ObservableSet.build(2, "z_and_zz")
        back = pickle.loads(pickle.dumps(obs))
        assert not back.operators.flags.writeable
        assert back.labels == obs.labels
        assert np.array_equal(back.operators, obs.operators)

    def test_unique_labels_enforced(self):
        ops = np.array([np.eye(2, dtype=complex)] * 2)
        with pytest.raises(ValueError, match="unique"):
            ObservableSet(labels=("A", "A"), operators=ops)


class TestMeasure:
    def test_ground_state(self):
        obs = ObservableSet.build(2, "z_only")
        vals = measure(DensityMatrix.ground(2), obs)
        assert np.allclose(vals, [1.0, 1.0])

    def test_maximally_mixed(self):
        obs = ObservableSet.build(2, "z_and_zz")
        vals = measure(DensityMatrix.maximally_mixed(2), obs)
        assert np.allclose(vals, 0.0)

    def test_plus_state(self):
        obs = ObservableSet.build(1, "z_only")
        plus = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
        assert abs(measure(plus, obs)[0]) < 1e-12

    def test_imaginary_part_guard(self):
        obs = ObservableSet.build(1, "z_only")
        corrupt = np.array([[0.5 + 1e-3j, 0.0], [0.0, 0.5]])
        with pytest.raises(NumericalError, match="imaginary"):
            measure(corrupt, obs)

    def test_dimension_guard(self):
        obs = ObservableSet.build(2, "z_only")
        with pytest.raises(ValueError, match="dimension"):
            measure(DensityMatrix.ground(1), obs)


class TestEvolveStep:
    @pytest.mark.parametrize("multiplex", ["per_node", "sub_step"])
    def test_matches_naive_reference(self, multiplex):
        rng = np.random.default_rng(3)
        for case in range(4):
            n_sys = int(rng.integers(1, 4))
            n_env = int(rng.integers(0, 3))
            real = make_real(n_sys=n_sys, n_env=n_env, alpha=float(rng.uniform(0.1, 5)),
                             beta=float(rng.uniform(0.1, 5)), seed=case)
            kind = "z_and_zz" if case % 2 else "z_only"
            cfg = ReservoirConfig(tau=float(rng.uniform(0.2, 2.0)), v=int(rng.integers(1, 5)),
                                  observables=kind, multiplex=multiplex)
            obs = ObservableSet.build(n_sys, kind)
            rho = DensityMatrix.ground(n_sys + n_env)
            for s in rng.uniform(0, 1, size=3):
                want_rho, want_f = naive_step(rho.matrix, s, real, cfg, obs)
                rho, got_f = evolve_step(rho, s, real, cfg, obs)
                assert np.max(np.abs(got_f - want_f)) < 1e-11
                assert np.max(np.abs(rho.matrix - want_rho)) < 1e-11

    def test_v1_single_readout(self):
        real = make_real()
        cfg = ReservoirConfig(tau=0.8, v=1)
        _, feats = evolve_step(DensityMatrix.ground(3), 0.4, real, cfg)
        assert feats.shape == (2,)  # n_obs for z_only on 2 system qubits

    def test_per_node_equals_stretched_sub_step(self):
        # per_node with tau t is the same schedule as sub_step with tau v*t
        real = make_real(seed=5)
        rho0 = DensityMatrix.ground(3)
        a_cfg = ReservoirConfig(tau=0.5, v=4, multiplex="per_node")
        b_cfg = ReservoirConfig(tau=2.0, v=4, multiplex="sub_step")
        _, fa = evolve_step(rho0, 0.3, real, a_cfg)
        _, fb = evolve_step(rho0, 0.3, real, b_cfg)
        assert np.array_equal(fa, fb)

    def test_register_mismatch(self):
        real = make_real()
        with pytest.raises(ValueError, match="qubits"):
            evolve_step(DensityMatrix.ground(2), 0.5, real, ReservoirConfig(tau=1.0, v=2))

    def test_input_qubit_must_be_system(self):
        real = make_real(n_sys=1, n_env=2)
        cfg = ReservoirConfig(tau=1.0, v=2, input_qubit=1)
        with pytest.raises(ConfigError, match="system"):
            evolve_step(DensityMatrix.ground(3), 0.5, real, cfg)

    def test_nonzero_input_qubit_matches_manual_step(self):
        # inject at system site 1 of a 3-qubit register and cross-check one
        # step against explicit insertion + propagator conjugation
        real = make_real(n_sys=2, n_env=1, seed=35)
        cfg = ReservoirConfig(tau=0.6, v=2, input_qubit=1)
        rng = np.random.default_rng(37)
        parts = []
        for _ in range(3):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            p = a @ a.conj().T
            parts.append(p / p.trace())
        rho0 = DensityMatrix(np.kron(np.kron(parts[0], parts[1]), parts[2]))
        s = 0.35
        got_rho, got_f = evolve_step(rho0, s, real, cfg)

        injected = np.kron(np.kron(parts[0], encode_input(s).matrix), parts[2])
        u = propagator(real.h_full, cfg.tau)
        obs = ObservableSet.build(2, "z_only")
        want_f = []
        rho = injected
        for _ in range(cfg.v):
            rho = u @ rho @ u.conj().T
            want_f.extend(measure(partial_trace(rho, {2}, 3), obs))
        assert np.max(np.abs(got_f - np.array(want_f))) < 1e-11
        assert np.max(np.abs(got_rho.matrix - rho)) < 1e-11


class TestRunTrajectory:
    def test_empty_inputs(self):
        real = make_real()
        feats, final = run_trajectory(real, [], ReservoirConfig(tau=1.0, v=3))
        assert feats.steps == 0
        assert feats.width == 3 * 2 + 1
        assert np.array_equal(final.matrix, DensityMatrix.ground(3).matrix)

    def test_feature_layout_and_bias(self):
        real = make_real()
        cfg = ReservoirConfig(tau=0.5, v=3)
        feats, _ = run_trajectory(real, [0.2, 0.8], cfg)
        assert feats.labels == feature_labels(ObservableSet.build(2, "z_only"), 3)
        assert feats.labels[-1] == "bias"
        assert np.all(feats.values[:, -1] == 1.0)
        assert np.max(np.abs(feats.values[:, :-1])) <= 1.0 + 1e-9

    def test_rows_match_evolve_step_chain(self):
        real = make_real(seed=7)
        cfg = ReservoirConfig(tau=0.7, v=4)
        inputs = np.random.default_rng(11).uniform(0, 1, 6)
        feats, final = run_trajectory(real, inputs, cfg)
        rho = DensityMatrix.ground(3)
        for k, s in enumerate(inputs):
            rho, f = evolve_step(rho, s, real, cfg)
            assert np.array_equal(feats.values[k, :-1], f)
        assert np.array_equal(final.matrix, rho.matrix)

    def test_determinism(self):
        real = make_real(seed=9)
        cfg = ReservoirConfig(tau=0.5, v=5)
        inputs = np.random.default_rng(13).uniform(0, 1, 10)
        a, _ = run_trajectory(real, inputs, cfg)
        b, _ = run_trajectory(real, inputs, cfg)
        assert np.array_equal(a.values, b.values)

    def test_state_invariants_after_long_run(self):
        real = make_real(n_sys=2, n_env=2, alpha=3.0, beta=2.0, seed=15)
        cfg = ReservoirConfig(tau=1.0, v=4)
        inputs = np.random.default_rng(17).uniform(0, 1, 200)
        _, final = run_trajectory(real, inputs, cfg)
        m = final.matrix
        assert abs(m.trace().real - 1.0) < 1e-9
        assert np.max(np.abs(m - m.conj().T)) < 1e-10
        assert np.linalg.eigvalsh(m)[0] >= -1e-9

    def test_input_range_guard(self):
        real = make_real()
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            run_trajectory(real, [0.5, 1.5], ReservoirConfig(tau=1.0, v=2))

    def test_initial_state_mismatch(self):
        real = make_real()
        with pytest.raises(ValueError, match="initial state"):
            run_trajectory(real, [0.5], ReservoirConfig(tau=1.0, v=2),
                           initial_state=DensityMatrix.ground(2))

    def test_step_errors_carry_the_step_index(self, monkeypatch):
        from nmqrc import reservoir as rmod

        real = make_real(seed=27)
        calls = {"n": 0}
        original = rmod._StepEngine.step

        def flaky(self, rho, s):
            if calls["n"] == 2:
                raise NumericalError("synthetic corruption")
            calls["n"] += 1
            return original(self, rho, s)

        monkeypatch.setattr(rmod._StepEngine, "step", flaky)
        with pytest.raises(NumericalError, match="step 2"):
            run_trajectory(real, [0.1, 0.2, 0.3, 0.4], ReservoirConfig(tau=0.5, v=2))

    def test_memory_probe_width(self):
        # 4 system qubits, 50 nodes, single-site observables: 200 + bias
        real = make_real(n_sys=4, n_env=3, alpha=10.0, beta=0.01, seed=19)
        feats, _ = run_trajectory(real, [0.5], ReservoirConfig(tau=0.5, v=50))
        assert feats.width == 50 * 4 + 1

    def test_constant_input_contracts_in_markov_regime(self):
        real = make_real(n_sys=2, n_env=2, alpha=10.0, beta=0.01, seed=25)
        cfg = ReservoirConfig(tau=0.5, v=4)
        feats, _ = run_trajectory(real, np.full(120, 0.5), cfg)
        gaps = np.linalg.norm(np.diff(feats.values[:, :-1], axis=0), axis=1)
        early = gaps[:20].mean()
        late = gaps[-20:].mean()
        assert late < early  # successive rows settle toward a fixed cycle

    def test_sub_dt_factor(self):
        assert ReservoirConfig(tau=0.5, v=20, multiplex="sub_step").sub_dt_factor == 1 / 20
        assert ReservoirConfig(tau=0.5, v=20, multiplex="per_node").sub_dt_factor == 1.0

    def test_phase_table_fallback_matches_batched(self, monkeypatch):
        # registers too large for the batched phase table take a per-sub-step
        # loop; both paths must agree to rounding
        from nmqrc import reservoir as rmod

        cfg = ReservoirConfig(tau=0.8, v=5, observables="z_and_zz")
        inputs = np.random.default_rng(29).uniform(0, 1, 12)
        batched, _ = run_trajectory(make_real(n_sys=2, n_env=2, seed=33), inputs, cfg)
        monkeypatch.setattr(rmod, "_BATCH_LIMIT", 0)
        looped, _ = run_trajectory(make_real(n_sys=2, n_env=2, seed=33), inputs, cfg)
        assert np.max(np.abs(batched.values - looped.values)) < 1e-12

    def test_beta_zero_decouples_from_environment(self):
        # identical system couplings with and without an idle environment
        coupled = make_real(n_sys=2, n_env=2, beta=0.0, alpha=2.0, seed=21)
        bare = make_real(n_sys=2, n_env=0, beta=0.0, alpha=2.0, seed=21)
        assert np.array_equal(coupled.couplings.j_sys, bare.couplings.j_sys)
        cfg = ReservoirConfig(tau=0.9, v=3)
        inputs = np.random.default_rng(23).uniform(0, 1, 30)
        fa, _ = run_trajectory(coupled, inputs, cfg)
        fb, _ = run_trajectory(bare, inputs, cfg)
        assert np.max(np.abs(fa.values - fb.values)) < 1e-8


class TestFeatureMatrix:
    def test_bias_column_enforced(self):
        with pytest.raises(ValueError, match="bias"):
            FeatureMatrix(values=np.array([[0.1, 0.9]]), labels=("v1_Z0", "bias"))

    def test_bounds_enforced(self):
        with pytest.raises(ValueError, match="tolerance band"):
            FeatureMatrix(values=np.array([[1.5, 1.0]]), labels=("v1_Z0", "bias"))

    def test_pickle_keeps_values_read_only(self):
        fm = FeatureMatrix(values=np.array([[0.25, -0.5, 1.0]]), labels=("v1_Z0", "v1_Z1", "bias"))
        back = pickle.loads(pickle.dumps(fm))
        assert not back.values.flags.writeable
        assert back.labels == fm.labels
        assert np.array_equal(back.values, fm.values)
