"""The sector step engine against plain propagator conjugation.

The oracle steps the register-order density matrix the textbook way: trace
out the input qubit, tensor the encoded input back in at its position, then
conjugate by U = exp(-i H dt) once per virtual node and read Tr[(O x I) rho].
"""

from unittest import mock

import numpy as np
import pytest

from nmqrc import linalg
from nmqrc import reservoir as rmod
from nmqrc.hamiltonian import PAULI, HamiltonianRealization, ReservoirParams, build_hamiltonian, embed_pauli
from nmqrc.linalg import DensityMatrix
from nmqrc.reservoir import (
    MULTIPLEX_MODES,
    OBSERVABLE_KINDS,
    ObservableSet,
    ReservoirConfig,
    evolve_step,
    run_trajectory,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

ORACLE_ATOL = 1e-10


def oracle_inject(rho, s, q, n):
    """rho_in(s) at register position q, tensored with Tr_q rho."""
    rest = np.trace(rho.reshape((2,) * (2 * n)), axis1=q, axis2=n + q)
    off = np.sqrt(s * (1.0 - s))
    rho_in = np.array([[1.0 - s, off], [off, s]])
    out = np.moveaxis(np.multiply.outer(rho_in, rest), (0, 1), (q, n + q))
    return out.reshape(rho.shape)


def oracle_run(real, inputs, cfg, rho, obs):
    p = real.params
    u = linalg.propagator(real.h_full, cfg.tau * cfg.sub_dt_factor)
    ops = [np.kron(o, np.eye(2 ** p.n_env)) for o in obs.operators]
    rows = []
    for s in inputs:
        rho = oracle_inject(rho, s, cfg.input_qubit, p.n_qubits)
        feats = []
        for _ in range(cfg.v):
            rho = u @ rho @ u.conj().T
            feats.extend(np.trace(op @ rho).real for op in ops)
        rows.append(feats)
    return np.array(rows).reshape(len(inputs), -1), rho


def random_state(n, rng):
    a = rng.standard_normal((2 ** n, 2 ** n)) + 1j * rng.standard_normal((2 ** n, 2 ** n))
    rho = a @ a.conj().T
    return DensityMatrix(rho / rho.trace().real)


def assert_matches_oracle(real, inputs, cfg, rho0):
    obs = ObservableSet.build(real.params.n_sys, cfg.observables)
    feats, final = run_trajectory(real, inputs, cfg, initial_state=rho0)
    want_f, want_rho = oracle_run(real, inputs, cfg, rho0.matrix, obs)
    assert np.max(np.abs(feats.values[:, :-1] - want_f), initial=0.0) < ORACLE_ATOL
    assert np.max(np.abs(final.matrix - want_rho)) < ORACLE_ATOL


@st.composite
def engine_cases(draw):
    n_sys = draw(st.integers(1, 4))
    n_env = draw(st.integers(0, 3))
    coupling = st.one_of(st.just(0.0), st.floats(0.05, 3.0))
    params = ReservoirParams(
        n_sys=n_sys,
        n_env=n_env,
        alpha=draw(coupling),
        beta=draw(coupling),
        h_sys=draw(st.floats(-1.5, 1.5)),
        h_env=draw(st.floats(-1.5, 1.5)),
        seed=draw(st.integers(0, 2 ** 16)),
    )
    cfg = ReservoirConfig(
        tau=draw(st.floats(0.05, 2.0)),
        v=draw(st.integers(1, 6)),
        observables=draw(st.sampled_from(OBSERVABLE_KINDS)),
        input_qubit=draw(st.integers(0, n_sys - 1)),
        multiplex=draw(st.sampled_from(MULTIPLEX_MODES)),
    )
    inputs = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    batch_limit = draw(st.sampled_from([0, rmod._BATCH_LIMIT]))
    return params, cfg, inputs, draw(st.integers(0, 2 ** 16)), batch_limit


@settings(derandomize=True, deadline=None, max_examples=60)
@given(engine_cases())
def test_engine_matches_propagator_oracle(case):
    params, cfg, inputs, state_seed, batch_limit = case
    real = build_hamiltonian(params)
    rho0 = random_state(params.n_qubits, np.random.default_rng(state_seed))
    with mock.patch.object(rmod, "_BATCH_LIMIT", batch_limit):
        assert_matches_oracle(real, inputs, cfg, rho0)


def test_alpha_zero_splits_into_more_sectors():
    real = build_hamiltonian(ReservoirParams(n_sys=4, n_env=3, alpha=0.0, beta=0.7,
                                             h_sys=0.5, h_env=1.0, seed=41))
    cfg = ReservoirConfig(tau=0.4, v=3, observables="z_and_zz", input_qubit=2)
    assert rmod._StepEngine(real, cfg, ObservableSet.build(4, cfg.observables)).shape[:2] == (16, 8)
    assert_matches_oracle(real, [0.1, 0.9, 0.4], cfg, random_state(7, np.random.default_rng(43)))


class TestSymmetryGuard:
    """Terms that break a block parity merge sectors instead of being lost."""

    base = ReservoirParams(n_sys=2, n_env=2, alpha=1.2, beta=0.8, h_sys=0.5, h_env=1.0, seed=45)

    def realization(self, extra):
        real = build_hamiltonian(self.base)
        return HamiltonianRealization(real.params, real.couplings, real.h_full + extra)

    def check(self, real, sectors):
        cfg = ReservoirConfig(tau=0.6, v=4, observables="z_and_zz")
        assert rmod._StepEngine(real, cfg, ObservableSet.build(2, cfg.observables)).shape[0] == sectors
        inputs = np.random.default_rng(47).uniform(0, 1, 5)
        assert_matches_oracle(real, inputs, cfg, random_state(4, np.random.default_rng(49)))

    def test_parity_conserving_register_has_four_sectors(self):
        self.check(build_hamiltonian(self.base), 4)

    @pytest.mark.parametrize("axis", ["X", "Y"])  # Y also makes H complex
    def test_environment_field_leaves_two_sectors(self, axis):
        self.check(self.realization(0.3 * embed_pauli(axis, 3, 4)), 2)

    def test_system_and_environment_fields_leave_one_sector(self):
        extra = 0.3 * embed_pauli("X", 3, 4) + 0.2 * embed_pauli("X", 0, 4)
        self.check(self.realization(extra), 1)

    def test_sectors_of_unequal_size_become_one(self):
        # coupling |0000> to |0001> merges two of the four sectors only
        extra = np.zeros((16, 16), dtype=complex)
        extra[0, 1] = extra[1, 0] = 0.25
        self.check(self.realization(extra), 1)


def test_observable_across_sectors_uses_the_whole_register():
    real = build_hamiltonian(ReservoirParams(n_sys=2, n_env=1, alpha=1.0, beta=0.6,
                                             h_sys=0.5, h_env=1.0, seed=51))
    ops = [np.kron(PAULI[axis], np.eye(2)) for axis in ("X", "Y")]
    obs = ObservableSet(labels=("X0", "Y0"), operators=np.array(ops))
    cfg = ReservoirConfig(tau=0.7, v=3)
    # X0 and Y0 flip the system parity, joining the 4 sectors of H in pairs
    assert rmod._StepEngine(real, cfg, obs).shape[0] == 2
    rho0 = random_state(3, np.random.default_rng(53))
    rho, got = evolve_step(rho0, 0.35, real, cfg, obs)
    want, want_rho = oracle_run(real, [0.35], cfg, rho0.matrix, obs)
    assert np.max(np.abs(got - want[0])) < ORACLE_ATOL
    assert np.max(np.abs(rho.matrix - want_rho)) < ORACLE_ATOL


def test_long_horizon_keeps_the_physics_invariants():
    # DensityMatrix checks trace, Hermiticity and positivity of the final
    # state; FeatureMatrix checks that every feature stays in [-1, 1].
    real = build_hamiltonian(ReservoirParams(n_sys=2, n_env=1, alpha=1.5, beta=1.0,
                                             h_sys=0.5, h_env=1.0, seed=55))
    inputs = np.random.default_rng(57).uniform(0, 1, 20_000)
    feats, final = run_trajectory(real, inputs, ReservoirConfig(tau=0.5, v=4))
    assert feats.steps == 20_000
    assert abs(final.matrix.trace().real - 1.0) < linalg.TRACE_ATOL
