import pickle
from math import comb

import numpy as np
import pytest

from nmqrc import linalg
from nmqrc.errors import ConfigError, NumericalError
from nmqrc.hamiltonian import CouplingSet, ReservoirParams, build_hamiltonian
from nmqrc.linalg import DensityMatrix
from nmqrc.reservoir import (
    FeatureMatrix,
    ReservoirConfig,
    _encode,
    _observables,
    _StepEngine,
    feature_labels,
    run_trajectory,
)

import oracle


def make_real(n_sys=2, n_env=1, alpha=1.0, beta=1.0, h_sys=0.5, h_env=1.0, seed=0):
    return build_hamiltonian(ReservoirParams(n_sys=n_sys, n_env=n_env, alpha=alpha, beta=beta,
                                             h_sys=h_sys, h_env=h_env, seed=seed))


def still(n_sys):
    """A register of ``n_sys`` system qubits with every coupling and field
    zero: U = I, so a step only injects its input."""
    params = ReservoirParams(n_sys=n_sys, n_env=0, alpha=0.0, beta=0.0, h_sys=0.0, h_env=0.0, seed=0)
    return build_hamiltonian(params, CouplingSet(j_sys=np.zeros(comb(n_sys, 2)), j_env=[], g=np.zeros((n_sys, 0))))


def step(real, rho, s, cfg):
    """One input step from ``rho`` through run_trajectory: (next state, feature slice)."""
    feats, final = run_trajectory(real, [s], cfg, initial_state=rho)
    return final, feats.values[0, :-1]


def inject(rho, s, input_qubit=0):
    """The state after injecting ``s`` into ``rho``: one step at U = I."""
    cfg = ReservoirConfig(tau=1.0, v=1, input_qubit=input_qubit)
    return step(still(rho.qubit_count), rho, s, cfg)[0].matrix


class TestEncodeInput:
    """``_encode`` gives the amplitudes of the pure input state; their outer
    product is its density matrix."""

    def test_endpoints(self):
        assert _encode(0.0) == (1.0, 0.0)
        assert _encode(1.0) == (0.0, 1.0)
        assert np.allclose(np.outer(_encode(0.0), _encode(0.0)), np.diag([1.0, 0.0]))
        assert np.allclose(np.outer(_encode(1.0), _encode(1.0)), np.diag([0.0, 1.0]))

    def test_half(self):
        assert np.allclose(np.outer(_encode(0.5), _encode(0.5)), np.full((2, 2), 0.5))

    def test_range_guard(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            _encode(1.2)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            _encode(-0.1)


class TestInjectInput:
    def test_product_state_replacement(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rest = a @ a.conj().T
        rest /= rest.trace()
        old = DensityMatrix(np.kron(np.diag([0.2, 0.8]), rest).astype(complex))
        out = inject(old, 0.3)
        assert np.max(np.abs(out - np.kron(oracle.encode(0.3), rest))) < 1e-12

    def test_maximally_mixed(self):
        out = inject(DensityMatrix.maximally_mixed(3), 0.7)
        want = np.kron(oracle.encode(0.7), np.eye(4) / 4)
        assert np.max(np.abs(out - want)) < 1e-12

    def test_bell_pair(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = DensityMatrix(np.outer(bell, bell.conj()))
        out = inject(rho, 0.0)
        want = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2)
        assert np.max(np.abs(out - want)) < 1e-12

    def test_trace_one(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        rho = a @ a.conj().T
        rho /= rho.trace()
        out = inject(DensityMatrix(rho), 0.9)
        assert abs(out.trace() - 1.0) < 1e-12

    def test_nonzero_position(self):
        rng = np.random.default_rng(2)
        parts = []
        for _ in range(3):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            p = a @ a.conj().T
            parts.append(p / p.trace())
        joint = DensityMatrix(np.kron(np.kron(parts[0], parts[1]), parts[2]))
        out = inject(joint, 0.25, input_qubit=1)
        want = np.kron(np.kron(parts[0], oracle.encode(0.25)), parts[2])
        assert np.max(np.abs(out - want)) < 1e-12

    def test_guards(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            inject(DensityMatrix.ground(2), 1.5)
        with pytest.raises(ConfigError, match="not a system qubit"):
            inject(DensityMatrix.ground(2), 0.5, input_qubit=2)


class TestObservableSet:
    """The Z strings ``_observables`` reads out: labels, and the diagonals
    of the operators as sign rows."""

    def test_z_only_counts(self):
        labels, signs = _observables(3, "z_only")
        assert labels == ("Z0", "Z1", "Z2")
        assert signs.shape == (3, 8)

    def test_z_and_zz_counts(self):
        labels, signs = _observables(4, "z_and_zz")
        assert len(labels) == len(set(labels)) == 4 + comb(4, 2)
        assert labels[4:] == ("Z0Z1", "Z0Z2", "Z0Z3", "Z1Z2", "Z1Z3", "Z2Z3")
        assert signs.shape == (len(labels), 16)

    def test_operators_match_embeddings(self):
        for n_sys in (1, 2, 3):
            _, signs = _observables(n_sys, "z_and_zz")
            ops = oracle.observables("z_and_zz", n_sys, n_sys)
            assert signs.dtype == float
            assert np.array_equal(signs, [np.diagonal(op).real for op in ops])
            assert all(np.count_nonzero(op - np.diag(np.diagonal(op))) == 0 for op in ops)


class TestMeasure:
    """The readout of one step on a U = I register, where the injection
    alone sets the state that is read."""

    def test_ground_state(self):
        _, vals = step(still(2), DensityMatrix.ground(2), 0.0, ReservoirConfig(tau=1.0, v=1))
        assert np.allclose(vals, [1.0, 1.0])

    def test_maximally_mixed(self):
        cfg = ReservoirConfig(tau=1.0, v=1, observables="z_and_zz")
        _, vals = step(still(2), DensityMatrix.maximally_mixed(2), 0.5, cfg)
        assert np.allclose(vals, 0.0)

    def test_plus_state(self):
        _, vals = step(still(1), DensityMatrix.ground(1), 0.5, ReservoirConfig(tau=1.0, v=1))
        assert abs(vals[0]) < 1e-12

    def test_imaginary_part_guard(self):
        rho0 = DensityMatrix.ground(3).matrix
        engine = _StepEngine(make_real(), ReservoirConfig(tau=1.0, v=2), rho0 != 0)
        tau = engine.to_state(rho0)
        tau[0, 0, 0] += 1e-3j  # Tr_q rho at the register's first rest
        with pytest.raises(NumericalError, match="imaginary"):
            engine.step(tau, 0.5, np.empty(engine.entries, dtype=complex))


class TestEvolveStep:
    """One input step from a given state, through run_trajectory."""

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
            rho = DensityMatrix.ground(n_sys + n_env)
            for s in rng.uniform(0, 1, size=3):
                want_f, want_rho = oracle.run(real, [s], cfg, rho.matrix)
                rho, got_f = step(real, rho, s, cfg)
                assert np.max(np.abs(got_f - want_f[0])) < 1e-11
                assert np.max(np.abs(rho.matrix - want_rho)) < 1e-11

    def test_v1_single_readout(self):
        real = make_real()
        cfg = ReservoirConfig(tau=0.8, v=1)
        _, feats = step(real, DensityMatrix.ground(3), 0.4, cfg)
        assert feats.shape == (2,)  # n_obs for z_only on 2 system qubits

    def test_per_node_equals_stretched_sub_step(self):
        # per_node with tau t is the same schedule as sub_step with tau v*t
        real = make_real(seed=5)
        rho0 = DensityMatrix.ground(3)
        a_cfg = ReservoirConfig(tau=0.5, v=4, multiplex="per_node")
        b_cfg = ReservoirConfig(tau=2.0, v=4, multiplex="sub_step")
        _, fa = step(real, rho0, 0.3, a_cfg)
        _, fb = step(real, rho0, 0.3, b_cfg)
        assert np.array_equal(fa, fb)

    def test_register_mismatch(self):
        real = make_real()
        with pytest.raises(ValueError, match="qubits"):
            step(real, DensityMatrix.ground(2), 0.5, ReservoirConfig(tau=1.0, v=2))

    def test_input_qubit_must_be_system(self):
        real = make_real(n_sys=1, n_env=2)
        cfg = ReservoirConfig(tau=1.0, v=2, input_qubit=1)
        with pytest.raises(ConfigError, match="system"):
            step(real, DensityMatrix.ground(3), 0.5, cfg)

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
        got_rho, got_f = step(real, rho0, s, cfg)

        injected = np.kron(np.kron(parts[0], oracle.encode(s)), parts[2])
        u = oracle.propagator(real.h_full, cfg.tau)
        z_ops = [oracle.embed_pauli("Z", i, 3) for i in range(2)]
        want_f = []
        rho = injected
        for _ in range(cfg.v):
            rho = u @ rho @ u.conj().T
            want_f.extend(np.trace(z @ rho).real for z in z_ops)
        assert np.max(np.abs(got_f - np.array(want_f))) < 1e-11
        assert np.max(np.abs(got_rho.matrix - rho)) < 1e-11


class TestRunTrajectory:
    def test_empty_inputs(self):
        real = make_real()
        feats, final = run_trajectory(real, [], ReservoirConfig(tau=1.0, v=3))
        assert feats.values.shape == (0, 3 * 2 + 1)
        assert np.array_equal(final.matrix, DensityMatrix.ground(3).matrix)

    def test_default_state_is_built_without_validation(self, monkeypatch):
        # the ground state is known: only the returned final state is
        # validated, and the trajectory is that of DensityMatrix.ground
        for n in (1, 3, 6):
            assert np.array_equal(linalg._ground_matrix(n), DensityMatrix.ground(n).matrix)
        real = make_real()
        cfg = ReservoirConfig(tau=0.5, v=3)
        want = run_trajectory(real, [0.2, 0.8], cfg, initial_state=DensityMatrix.ground(3))
        validated = []
        check = DensityMatrix.__post_init__

        def counted(self):
            validated.append(self)
            check(self)

        monkeypatch.setattr(DensityMatrix, "__post_init__", counted)
        feats, final = run_trajectory(real, [0.2, 0.8], cfg)
        assert len(validated) == 1 and validated[0] is final
        assert np.array_equal(feats.values, want[0].values)
        assert np.array_equal(final.matrix, want[1].matrix)

    def test_feature_layout_and_bias(self):
        real = make_real()
        cfg = ReservoirConfig(tau=0.5, v=3)
        feats, _ = run_trajectory(real, [0.2, 0.8], cfg)
        assert feats.labels == feature_labels(("Z0", "Z1"), 3)
        assert feats.labels[:3] == ("v1_Z0", "v1_Z1", "v2_Z0")
        assert feats.labels[-1] == "bias"
        assert np.all(feats.values[:, -1] == 1.0)
        assert np.max(np.abs(feats.values[:, :-1])) <= 1.0 + 1e-9

    def test_rows_match_evolve_step_chain(self):
        # the rows and final state are those of one engine stepped input by
        # input, its node operands read out as one block
        real = make_real(seed=7)
        cfg = ReservoirConfig(tau=0.7, v=4)
        inputs = np.random.default_rng(11).uniform(0, 1, 6)
        feats, final = run_trajectory(real, inputs, cfg)
        rho0 = DensityMatrix.ground(3).matrix
        engine = _StepEngine(real, cfg, rho0 != 0)
        tau = engine.to_state(rho0)
        z = np.empty((inputs.size, engine.entries), dtype=complex)
        for k, s in enumerate(inputs):
            tau, stepped = engine.step(tau, s, z[k])
        assert np.array_equal(feats.values[:, :-1], engine.features(z))
        assert np.array_equal(final.matrix, engine.trace_out(stepped, engine.trace_index(())))

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected_before_any_step(self, bad, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("stepped")

        monkeypatch.setattr(_StepEngine, "step", no_step)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            run_trajectory(make_real(), [0.2, bad], ReservoirConfig(tau=1.0, v=2))

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

        def flaky(self, tau, s, *args):
            if calls["n"] == 2:
                raise NumericalError("synthetic corruption")
            calls["n"] += 1
            return original(self, tau, s, *args)

        monkeypatch.setattr(rmod._StepEngine, "step", flaky)
        with pytest.raises(NumericalError, match="step 2"):
            run_trajectory(real, [0.1, 0.2, 0.3, 0.4], ReservoirConfig(tau=0.5, v=2))

    def test_memory_probe_width(self):
        # 4 system qubits, 50 nodes, single-site observables: 200 + bias
        real = make_real(n_sys=4, n_env=3, alpha=10.0, beta=0.01, seed=19)
        feats, _ = run_trajectory(real, [0.5], ReservoirConfig(tau=0.5, v=50))
        assert feats.values.shape == (1, 50 * 4 + 1)

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
