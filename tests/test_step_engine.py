"""The sector step engine against plain propagator conjugation.

The reference is ``tests/oracle.py``: it steps the register-order density
matrix the textbook way, tracing out the input qubit, tensoring the encoded
input back in at its position, then conjugating by U = exp(-i H dt) once per
virtual node and reading Tr[(O x I) rho].
"""

import dataclasses
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from nmqrc import linalg
from nmqrc import reservoir as rmod
from nmqrc.esp import dual_trajectory
from nmqrc.errors import NumericalError
from nmqrc.hamiltonian import CouplingSet, HamiltonianRealization, ReservoirParams, build_hamiltonian
from nmqrc.harness import load_config, make_params, reservoir_config
from nmqrc.linalg import DensityMatrix
from nmqrc.reservoir import (
    MULTIPLEX_MODES,
    OBSERVABLE_KINDS,
    ReservoirConfig,
    run_trajectory,
)

import oracle

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

ORACLE_ATOL = 1e-10
DUAL_RTOL = 1e-12
WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads"


def whole_register(n):
    """A support mask that puts the whole n-qubit register in one class."""
    return np.ones((2 ** n, 2 ** n), dtype=bool)


def random_state(n, rng):
    a = rng.standard_normal((2 ** n, 2 ** n)) + 1j * rng.standard_normal((2 ** n, 2 ** n))
    rho = a @ a.conj().T
    return DensityMatrix(rho / rho.trace().real)


def assert_matches_oracle(real, inputs, cfg, rho0):
    feats, final = run_trajectory(real, inputs, cfg, initial_state=rho0)
    want_f, want_rho = oracle.run(real, inputs, cfg, rho0.matrix)
    assert np.max(np.abs(feats.values[:, :-1] - want_f), initial=0.0) < ORACLE_ATOL
    assert np.max(np.abs(final.matrix - want_rho)) < ORACLE_ATOL


def oracle_tau(rho, input_qubit):
    """Tr_q of a register-order state as a matrix over the remaining qubits."""
    n = int(np.log2(rho.shape[0]))
    return oracle.trace_qubit(rho, input_qubit, n).reshape(2 ** (n - 1), 2 ** (n - 1))


def step_once(engine, tau, s, trace=1.0):
    """One engine step read out on its own: (next tau, feature slice,
    stepped state)."""
    z = np.empty((1, engine.entries), dtype=complex)
    tau, stepped = engine.step(tau, s, z[0], trace)
    return tau, engine.features(z)[0], stepped


def register_tau(engine, tau, input_qubit):
    """The engine's carried tau blocks placed in the register-order Tr_q
    matrix, zero outside the kept classes."""
    n = engine.n_qubits
    shift = n - 1 - input_qubit
    reg = engine.rows[:, ::2]  # rows 2a hold rest a with input bit 0
    rest = ((reg >> (shift + 1)) << shift) | (reg & ((1 << shift) - 1))
    out = np.zeros((2 ** (n - 1),) * 2, dtype=complex)
    out[rest[:, :, None], rest[:, None, :]] = tau
    return out


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
    assert rmod._StepEngine(real, cfg, whole_register(7)).shape[:2] == (16, 8)
    assert_matches_oracle(real, [0.1, 0.9, 0.4], cfg, random_state(7, np.random.default_rng(43)))


class TestSymmetryGuard:
    """Terms that break a block parity merge sectors instead of being lost."""

    base = ReservoirParams(n_sys=2, n_env=2, alpha=1.2, beta=0.8, h_sys=0.5, h_env=1.0, seed=45)

    def realization(self, extra):
        real = build_hamiltonian(self.base)
        return HamiltonianRealization(real.params, real.couplings, real.h_full + extra)

    def check(self, real, sectors):
        cfg = ReservoirConfig(tau=0.6, v=4, observables="z_and_zz")
        assert rmod._StepEngine(real, cfg, whole_register(4)).shape[0] == sectors
        inputs = np.random.default_rng(47).uniform(0, 1, 5)
        assert_matches_oracle(real, inputs, cfg, random_state(4, np.random.default_rng(49)))

    def test_parity_conserving_register_has_four_sectors(self):
        self.check(build_hamiltonian(self.base), 4)

    def test_environment_field_leaves_two_sectors(self):
        self.check(self.realization(0.3 * oracle.embed_pauli("X", 3, 4)), 2)

    def test_system_and_environment_fields_leave_one_sector(self):
        extra = 0.3 * oracle.embed_pauli("X", 3, 4) + 0.2 * oracle.embed_pauli("X", 0, 4)
        self.check(self.realization(extra), 1)

    def test_sectors_of_unequal_size_become_one(self):
        # coupling |0000> to |0001> merges two of the four sectors only
        extra = np.zeros((16, 16), dtype=complex)
        extra[0, 1] = extra[1, 0] = 0.25
        self.check(self.realization(extra), 1)


@pytest.mark.parametrize("n_sys, n_env, alpha, beta", [(4, 3, 1.0, 1.0), (4, 3, 0.0, 0.7), (3, 0, 0.0, 0.0),
                                                       (2, 2, 1.2, 0.0)])
def test_real_hamiltonians_give_real_factors(n_sys, n_env, alpha, beta):
    # a realization holds a real H, so its engine's eigenvectors and readout
    # factors G_b = W^T P_b are real
    real = build_hamiltonian(ReservoirParams(n_sys=n_sys, n_env=n_env, alpha=alpha, beta=beta,
                                             h_sys=0.5, h_env=1.0, seed=87))
    for support in (DensityMatrix.ground(real.params.n_qubits).matrix != 0, whole_register(real.params.n_qubits)):
        engine = rmod._StepEngine(real, ReservoirConfig(tau=0.5, v=3), support)
        d = engine.shape[2]
        assert engine.w.dtype == np.float64
        assert engine.factors.dtype == np.float64
        # conj(A_b) takes two reals per entry, G_b one
        assert engine.factors.shape == (2, 3 * engine.classes * d * (d // 2))
        assert engine.split == 2 * engine.classes * d * (d // 2)


def test_long_horizon_keeps_the_physics_invariants():
    # DensityMatrix checks trace, Hermiticity and positivity of the final
    # state; FeatureMatrix checks that every feature stays in [-1, 1].
    real = build_hamiltonian(ReservoirParams(n_sys=2, n_env=1, alpha=1.5, beta=1.0,
                                             h_sys=0.5, h_env=1.0, seed=55))
    inputs = np.random.default_rng(57).uniform(0, 1, 20_000)
    feats, final = run_trajectory(real, inputs, ReservoirConfig(tau=0.5, v=4))
    assert feats.values.shape[0] == 20_000
    assert abs(final.matrix.trace().real - 1.0) < linalg.TRACE_ATOL


def test_non_hermitian_state_trips_the_imaginary_part_guard():
    # i * 1e-6 on a diagonal entry of the carried Tr_q rho gives the features
    # imaginary parts far above FEATURE_IMAG_ATOL
    real = build_hamiltonian(ReservoirParams(n_sys=4, n_env=3, alpha=1.0, beta=1.0,
                                             h_sys=0.5, h_env=1.0, seed=59))
    rho0 = DensityMatrix.ground(7)
    engine = rmod._StepEngine(real, ReservoirConfig(tau=0.5, v=3), rho0.matrix != 0)
    tau, _, _ = step_once(engine, engine.to_state(rho0.matrix), 0.3)
    tau[0, 0, 0] += 1e-6j  # Tr_q rho at the register's first rest
    with pytest.raises(NumericalError, match="imaginary"):
        step_once(engine, tau, 0.6)


@pytest.mark.parametrize("corrupt, trace, match", [(True, 1.0, "imaginary"), (False, np.nan, "trace")])
def test_nan_trips_the_step_checks(corrupt, trace, match):
    # a comparison with NaN is False, so each check must fail on NaN rather
    # than pass: a NaN entry of the carried tau reaches the imaginary-part
    # bound, and a NaN trace the trace check
    real = build_hamiltonian(ReservoirParams(n_sys=2, n_env=1, alpha=1.0, beta=1.0,
                                             h_sys=0.5, h_env=1.0, seed=61))
    rho0 = DensityMatrix.ground(3)
    engine = rmod._StepEngine(real, ReservoirConfig(tau=0.5, v=2), rho0.matrix != 0)
    tau = engine.to_state(rho0.matrix)
    if corrupt:
        tau[0, 1, 0] = np.nan
    with pytest.raises(NumericalError, match=match):
        step_once(engine, tau, 0.4, trace)


def test_state_hermitian_to_the_density_matrix_tolerance_is_stepped():
    # an anti-Hermitian part just inside the DensityMatrix gate changes no
    # feature, so it must not trip the imaginary-part guard
    real = build_hamiltonian(ReservoirParams(n_sys=4, n_env=3, alpha=1.0, beta=1.0,
                                             h_sys=0.5, h_env=1.0, seed=59))
    rng = np.random.default_rng(71)
    herm = random_state(7, rng)
    a = rng.standard_normal((128, 128))
    skew = (a - a.T) * (4e-11 / np.max(np.abs(a - a.T)))  # max |rho - rho^dag| = 8e-11
    rho0 = DensityMatrix(herm.matrix + skew)
    cfg = ReservoirConfig(tau=0.5, v=3)
    inputs = [0.3, 0.6, 0.1]
    got = run_trajectory(real, inputs, cfg, initial_state=rho0)[0].values
    want = run_trajectory(real, inputs, cfg, initial_state=herm)[0].values
    assert np.max(np.abs(got - want)) < 1e-12
    got = dual_trajectory(real, inputs, cfg, initial_states=(rho0, DensityMatrix.ground(7)))
    want = dual_trajectory(real, inputs, cfg, initial_states=(herm, DensityMatrix.ground(7)))
    for r, w in zip(got, want):
        assert abs(r.sqnorm_diff - w.sqnorm_diff) < 1e-12
        assert abs(r.trace_distance - w.trace_distance) < 1e-9
        assert abs(r.trace_distance_sys - w.trace_distance_sys) < 1e-9


def test_phase_table_chunks_stay_under_the_batch_limit():
    # 2000 nodes of the whole 4+3 register would take a folded table of over
    # 32M reals: two per upper-triangle entry, node and observable
    real = build_hamiltonian(ReservoirParams(n_sys=4, n_env=3, alpha=1.0, beta=1.0,
                                             h_sys=0.5, h_env=1.0, seed=59))
    cfg = ReservoirConfig(tau=0.5, v=2000, multiplex="sub_step")
    engine = rmod._StepEngine(real, cfg, whole_register(7))
    per_node = engine.phase_table.shape[0] * engine.n_obs
    assert engine.phase_table.shape[0] == 2 * engine.entries
    assert per_node * cfg.v > 32_000_000
    assert engine.phase_table.size <= max(rmod._BATCH_LIMIT, per_node)
    with mock.patch.object(rmod, "_BATCH_LIMIT", 0):
        one_node = rmod._StepEngine(real, cfg, whole_register(7))
    assert one_node.phase_table.shape == (2 * engine.entries, engine.n_obs)
    tau = engine.to_state(random_state(7, np.random.default_rng(69)).matrix)
    _, got, _ = step_once(engine, tau, 0.4)
    _, want, _ = step_once(one_node, tau, 0.4)
    assert np.max(np.abs(got - want)) < 1e-12


def oracle_dual_records(real, inputs, cfg, rho1, rho2):
    """Echo-state records from two states stepped apart by the oracle:
    (sqnorm_diff, full-register and system-marginal trace distances)."""
    p = real.params
    cfg = dataclasses.replace(cfg, observables="z_only")  # as dual_trajectory reads out
    env = range(p.n_sys, p.n_qubits)

    def distances(a, b):
        full = linalg.trace_norm((a - b + (a - b).conj().T) / 2)
        if not env:
            return full, full
        m = linalg.partial_trace(a, env, p.n_qubits) - linalg.partial_trace(b, env, p.n_qubits)
        return full, linalg.trace_norm((m + m.conj().T) / 2)

    records = [(0.0, *distances(rho1, rho2))]
    for s in inputs:
        f1, rho1 = oracle.run(real, [s], cfg, rho1)
        f2, rho2 = oracle.run(real, [s], cfg, rho2)
        records.append((float(np.sum((f1 - f2) ** 2)), *distances(rho1, rho2)))
    return records


@st.composite
def dual_cases(draw):
    n_sys = draw(st.integers(1, 3))
    n_env = draw(st.integers(0, 2))
    coupling = st.one_of(st.just(0.0), st.floats(0.05, 3.0))
    params = ReservoirParams(
        n_sys=n_sys,
        n_env=n_env,
        alpha=draw(coupling),
        beta=draw(st.floats(0.05, 3.0)),
        h_sys=draw(st.floats(-1.5, 1.5)),
        h_env=draw(st.floats(-1.5, 1.5)),
        seed=draw(st.integers(0, 2 ** 16)),
    )
    cfg = ReservoirConfig(
        tau=draw(st.floats(0.05, 2.0)),
        v=draw(st.integers(1, 5)),
        observables=draw(st.sampled_from(OBSERVABLE_KINDS)),
        input_qubit=draw(st.integers(0, n_sys - 1)),
        multiplex=draw(st.sampled_from(MULTIPLEX_MODES)),
    )
    inputs = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
    return params, cfg, inputs, draw(st.integers(0, 2 ** 16))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(dual_cases())
def test_difference_trajectory_matches_two_state_oracle(case):
    params, cfg, inputs, state_seed = case
    real = build_hamiltonian(params)
    rng = np.random.default_rng(state_seed)
    pair = (random_state(params.n_qubits, rng), random_state(params.n_qubits, rng))
    got = dual_trajectory(real, inputs, cfg, initial_states=pair)
    want = oracle_dual_records(real, inputs, cfg, pair[0].matrix, pair[1].matrix)
    assert [r.step for r in got] == list(range(len(inputs) + 1))
    for r, (sq, td, td_sys) in zip(got, want):
        # The oracle's f1 - f2 cancels down to rounding of order eps * |f1 - f2|
        # per feature, which the sqrt term covers where the distance is small.
        big = max(r.sqnorm_diff, sq)
        assert abs(r.sqnorm_diff - sq) <= DUAL_RTOL * big + 1e-14 * np.sqrt(big)
        assert abs(r.trace_distance - td) <= DUAL_RTOL
        assert abs(r.trace_distance_sys - td_sys) <= DUAL_RTOL


def class_structured_state(kind, n_sys, n_env, rng):
    """Ground, maximally mixed, a random state with no coherence between the
    two Z-parity classes of the environment block, or a random state inside
    the even class alone."""
    n = n_sys + n_env
    if kind == "ground":
        return DensityMatrix.ground(n)
    if kind == "mixed":
        return DensityMatrix.maximally_mixed(n)
    parity = np.array([bin(i & ((1 << n_env) - 1)).count("1") % 2 for i in range(2 ** n)])
    keep = parity[:, None] == parity[None, :]
    if kind == "even_block":
        keep &= parity[:, None] == 0
    rho = random_state(n, rng).matrix * keep
    return DensityMatrix(rho / rho.trace().real)


STATE_KINDS = ("ground", "mixed", "parity_blocks", "even_block")


@settings(derandomize=True, deadline=None, max_examples=60)
@given(engine_cases(), st.sampled_from(STATE_KINDS))
def test_engine_on_class_structured_states_matches_propagator_oracle(case, kind):
    params, cfg, inputs, state_seed, batch_limit = case
    real = build_hamiltonian(params)
    rho0 = class_structured_state(kind, params.n_sys, params.n_env, np.random.default_rng(state_seed))
    with mock.patch.object(rmod, "_BATCH_LIMIT", batch_limit):
        assert_matches_oracle(real, inputs, cfg, rho0)


def engine_for(real, cfg, rho0):
    return rmod._StepEngine(real, cfg, rho0.matrix != 0)


@pytest.mark.parametrize("kind, classes, shape", [
    ("ground", 1, (2, 32, 64)),  # one environment-parity class
    ("mixed", 2, (2, 32, 64)),  # both, stacked
    ("parity_blocks", 2, (2, 32, 64)),
    ("dense", 1, (4, 32, 128)),  # coherence between the classes joins them
])
def test_engine_keeps_the_classes_the_state_occupies(kind, classes, shape):
    real = build_hamiltonian(ReservoirParams(n_sys=4, n_env=3, alpha=1.0, beta=1.0,
                                             h_sys=0.5, h_env=1.0, seed=59))
    rng = np.random.default_rng(61)
    rho0 = random_state(7, rng) if kind == "dense" else class_structured_state(kind, 4, 3, rng)
    cfg = ReservoirConfig(tau=0.5, v=3)
    engine = engine_for(real, cfg, rho0)
    assert (engine.classes, engine.shape) == (classes, shape)
    assert_matches_oracle(real, [0.2, 0.7, 0.5], cfg, rho0)


def test_alpha_zero_keeps_one_environment_configuration():
    # every environment Z is conserved: from the ground state only the
    # system register with the environment at |000> is stepped
    real = build_hamiltonian(ReservoirParams(n_sys=4, n_env=3, alpha=0.0, beta=0.7,
                                             h_sys=0.5, h_env=0.0, seed=63))
    cfg = ReservoirConfig(tau=0.4, v=3, observables="z_and_zz", input_qubit=1)
    rho0 = DensityMatrix.ground(7)
    engine = engine_for(real, cfg, rho0)
    assert (engine.classes, engine.shape) == (1, (2, 8, 16))
    assert_matches_oracle(real, [0.1, 0.9, 0.4], cfg, rho0)


def test_long_horizon_register_takes_the_class_path():
    # the register of test_long_horizon_keeps_the_physics_invariants: from the
    # ground state only the environment's |0> class is stepped
    real = build_hamiltonian(ReservoirParams(n_sys=2, n_env=1, alpha=1.5, beta=1.0,
                                             h_sys=0.5, h_env=1.0, seed=55))
    engine = engine_for(real, ReservoirConfig(tau=0.5, v=4), DensityMatrix.ground(3))
    assert (engine.classes, engine.shape) == (1, (2, 2, 4))


def test_environment_flip_joins_the_classes():
    # an X field on an environment qubit breaks the environment parity, so the
    # ground state's class is the whole register
    base = ReservoirParams(n_sys=2, n_env=2, alpha=1.2, beta=0.8, h_sys=0.5, h_env=1.0, seed=45)
    plain = build_hamiltonian(base)
    real = HamiltonianRealization(base, plain.couplings, plain.h_full + 0.3 * oracle.embed_pauli("X", 3, 4))
    cfg = ReservoirConfig(tau=0.6, v=4, observables="z_and_zz")
    rho0 = DensityMatrix.ground(4)
    assert engine_for(plain, cfg, rho0).shape == (2, 4, 8)
    engine = engine_for(real, cfg, rho0)
    assert (engine.classes, engine.shape) == (1, (2, 8, 16))
    assert_matches_oracle(real, np.random.default_rng(47).uniform(0, 1, 5), cfg, rho0)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(dual_cases(), st.sampled_from(STATE_KINDS), st.sampled_from(STATE_KINDS))
def test_difference_trajectory_on_class_structured_pairs(case, kind1, kind2):
    params, cfg, inputs, state_seed = case
    real = build_hamiltonian(params)
    rng = np.random.default_rng(state_seed)
    pair = tuple(class_structured_state(kind, params.n_sys, params.n_env, rng) for kind in (kind1, kind2))
    got = dual_trajectory(real, inputs, cfg, initial_states=pair)
    want = oracle_dual_records(real, inputs, cfg, pair[0].matrix, pair[1].matrix)
    for r, (sq, td, td_sys) in zip(got, want):
        big = max(r.sqnorm_diff, sq)
        assert abs(r.sqnorm_diff - sq) <= DUAL_RTOL * big + 1e-14 * np.sqrt(big)
        assert abs(r.trace_distance - td) <= DUAL_RTOL
        assert abs(r.trace_distance_sys - td_sys) <= DUAL_RTOL


@st.composite
def carry_cases(draw):
    n_sys = draw(st.integers(1, 3))
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
        v=draw(st.integers(1, 4)),
        observables=draw(st.sampled_from(OBSERVABLE_KINDS)),
        input_qubit=draw(st.integers(0, n_sys - 1)),
        multiplex=draw(st.sampled_from(MULTIPLEX_MODES)),
    )
    # every case injects the endpoint inputs 0 and 1, where one amplitude is 0
    inputs = draw(st.permutations([0.0, 1.0] + draw(st.lists(st.floats(0.0, 1.0), max_size=3))))
    kind = draw(st.sampled_from(STATE_KINDS + ("dense",)))
    return params, cfg, inputs, kind, draw(st.integers(0, 2 ** 16))


def carry_case(n_sys, n_env, alpha, input_qubit, kind):
    params = ReservoirParams(n_sys=n_sys, n_env=n_env, alpha=alpha, beta=0.9 if n_env else 0.0,
                             h_sys=0.5, h_env=0.7, seed=73)
    cfg = ReservoirConfig(tau=0.6, v=3, observables="z_and_zz", input_qubit=input_qubit)
    return params, cfg, [1.0, 0.3, 0.0, 0.8], kind, 75


@settings(derandomize=True, deadline=None, max_examples=40)
@given(carry_cases())
@example(carry_case(3, 2, 0.0, 2, "mixed"))  # alpha = 0: one class per environment configuration
@example(carry_case(3, 0, 0.0, 1, "ground"))  # no environment
@example(carry_case(2, 2, 1.1, 1, "dense"))  # coherence between the classes joins them
def test_carried_tau_is_the_oracle_partial_trace(case):
    params, cfg, inputs, kind, state_seed = case
    real = build_hamiltonian(params)
    rng = np.random.default_rng(state_seed)
    n = params.n_qubits
    rho0 = random_state(n, rng) if kind == "dense" else class_structured_state(kind, params.n_sys, params.n_env, rng)
    engine = rmod._StepEngine(real, cfg, rho0.matrix != 0)
    if kind == "dense" and params.n_env:
        assert engine.classes == 1
    tau, rho = engine.to_state(rho0.matrix), rho0.matrix
    for s in inputs:
        tau, feats, _ = step_once(engine, tau, s)
        want, rho = oracle.run(real, [s], cfg, rho)
        assert np.max(np.abs(feats - want[0])) < ORACLE_ATOL
        assert np.max(np.abs(register_tau(engine, tau, cfg.input_qubit) - oracle_tau(rho, cfg.input_qubit))) < ORACLE_ATOL
    assert_matches_oracle(real, inputs, cfg, rho0)
    pair = (rho0, DensityMatrix.ground(n))
    got = dual_trajectory(real, inputs, cfg, initial_states=pair)
    for r, (sq, td, td_sys) in zip(got, oracle_dual_records(real, inputs, cfg, *(x.matrix for x in pair))):
        big = max(r.sqnorm_diff, sq)
        assert abs(r.sqnorm_diff - sq) <= DUAL_RTOL * big + 1e-14 * np.sqrt(big)
        assert abs(r.trace_distance - td) <= DUAL_RTOL
        assert abs(r.trace_distance_sys - td_sys) <= DUAL_RTOL


def block_of(size):
    """A stand-in for reservoir._block_inputs that gives blocks of ``size``."""
    return lambda entries: size


@st.composite
def block_cases(draw):
    """An engine case read out in blocks of 2-4 inputs, with a trajectory
    shorter than one block or not a multiple of the block."""
    params, cfg, _, state_seed, batch_limit = draw(engine_cases())
    block = draw(st.integers(2, 4))
    length = draw(st.sampled_from([block - 1, block + 1, 2 * block + 1]))
    inputs = draw(st.lists(st.floats(0.0, 1.0), min_size=length, max_size=length))
    return params, cfg, inputs, state_seed, batch_limit, block


def block_case(length, block, batch_limit):
    params = ReservoirParams(n_sys=3, n_env=2, alpha=1.1, beta=0.9, h_sys=0.5, h_env=0.7, seed=77)
    cfg = ReservoirConfig(tau=0.6, v=5, observables="z_and_zz", multiplex="sub_step")
    return params, cfg, list(np.random.default_rng(79).uniform(0, 1, length)), 81, batch_limit, block


@settings(derandomize=True, deadline=None, max_examples=30)
@given(block_cases())
@example(block_case(2, 3, rmod._BATCH_LIMIT))  # shorter than one block
@example(block_case(7, 3, rmod._BATCH_LIMIT))  # not a multiple of the block
@example(block_case(7, 3, 0))  # a phase table of one node, narrower than v
def test_blocks_match_the_propagator_oracle(case):
    # the features and the echo-state records of a pair, read out in blocks
    params, cfg, inputs, state_seed, batch_limit, block = case
    real = build_hamiltonian(params)
    rng = np.random.default_rng(state_seed)
    pair = (random_state(params.n_qubits, rng), random_state(params.n_qubits, rng))
    with mock.patch.object(rmod, "_BATCH_LIMIT", batch_limit), \
            mock.patch.object(rmod, "_block_inputs", block_of(block)):
        assert_matches_oracle(real, inputs, cfg, pair[0])
        got = dual_trajectory(real, inputs, cfg, initial_states=pair)
    want = oracle_dual_records(real, inputs, cfg, pair[0].matrix, pair[1].matrix)
    assert len(got) == len(want) == len(inputs) + 1
    for r, (sq, td, td_sys) in zip(got, want):
        big = max(r.sqnorm_diff, sq)
        assert abs(r.sqnorm_diff - sq) <= DUAL_RTOL * big + 1e-14 * np.sqrt(big)
        assert abs(r.trace_distance - td) <= DUAL_RTOL
        assert abs(r.trace_distance_sys - td_sys) <= DUAL_RTOL


@pytest.mark.parametrize("driver, what", [(run_trajectory, "trajectory"), (dual_trajectory, "trajectory pair")])
def test_error_inside_a_block_names_its_step(driver, what, monkeypatch):
    # blocks of 4 inputs; the carried state is corrupted before step 5, the
    # second input of the second block, and the step's own check trips
    real = build_hamiltonian(ReservoirParams(n_sys=2, n_env=1, alpha=1.0, beta=1.0,
                                             h_sys=0.5, h_env=1.0, seed=83))
    original = rmod._StepEngine.step
    stepped = []

    def corrupting(self, tau, s, *args):
        if len(stepped) == 5:
            tau = tau.copy()
            tau[0, 0, 0] += 1e-3j
        stepped.append(s)
        return original(self, tau, s, *args)

    monkeypatch.setattr(rmod, "_block_inputs", block_of(4))
    monkeypatch.setattr(rmod._StepEngine, "step", corrupting)
    with pytest.raises(NumericalError, match=f"^{what} failed at step 5: features may have an imaginary part"):
        driver(real, np.linspace(0.1, 0.9, 10), ReservoirConfig(tau=0.5, v=3))
    assert len(stepped) == 6


def workload_engine(name):
    """The step engine of the first job of a benchmark workload (its config
    read from ``bench/workloads``), with the support its task steps."""
    cfg = load_config(WORKLOADS / f"{name}.json")
    real = build_hamiltonian(make_params(cfg, cfg.regimes[0], cfg.seeds[0]))
    n = real.params.n_qubits
    support = DensityMatrix.ground(n).matrix != 0
    if cfg.task == "esp":
        support |= DensityMatrix.maximally_mixed(n).matrix != 0
        cfg = dataclasses.replace(cfg, observables="z_only")
    return rmod._StepEngine(real, reservoir_config(cfg), support)


def test_block_buffer_stays_within_its_budget():
    # The three benchmark workloads' engines hold a block buffer of several
    # inputs, each of ``entries`` complex values, and a folded phase table
    # of at most _BATCH_LIMIT reals; esp-divergence's 50 nodes take 4 spans
    # of it. One environment-parity class of a 12-qubit register (8+4,
    # k = 2 sectors of 1024 states) has a single node operand already over
    # the budget.
    spans = {"stm-serial": 1, "narma-readout": 1, "esp-divergence": 4}
    for name, count in spans.items():
        engine = workload_engine(name)
        block = rmod._block_inputs(engine.entries)
        assert block > 1
        assert block * engine.entries * 16 <= 8 * rmod._BLOCK_LIMIT
        assert engine.phase_table.dtype == np.float64
        assert engine.phase_table.nbytes <= 8 * rmod._BATCH_LIMIT <= 2_100_000
        assert -(-engine.v * engine.n_obs // engine.phase_table.shape[1]) == count
    big = 2 * (1024 * 1025 // 2)  # upper-triangle entries of two 1024-state sectors
    assert 2 * big > rmod._BLOCK_LIMIT
    assert rmod._block_inputs(big) == 1


def test_folded_table_spans_match_the_one_node_table():
    # both environment-parity classes of a 4+3 register at v = 50 sub-steps,
    # esp-divergence's shape: the default table is read in 4 spans, the one
    # of a single node in 50
    real = build_hamiltonian(ReservoirParams(n_sys=4, n_env=3, alpha=1.0, beta=1.0,
                                             h_sys=0.5, h_env=1.0, seed=89))
    cfg = ReservoirConfig(tau=0.5, v=50, multiplex="sub_step")
    rho0 = DensityMatrix.maximally_mixed(7).matrix
    inputs = np.random.default_rng(91).uniform(0, 1, 20)

    def features():
        engine = rmod._StepEngine(real, cfg, rho0 != 0)
        rows = np.empty((inputs.size, cfg.v * engine.n_obs))
        rmod._step_inputs(engine, engine.to_state(rho0), inputs, rows)
        return engine.phase_table.shape[1] // engine.n_obs, rows

    nodes, got = features()
    assert -(-cfg.v // nodes) == 4
    with mock.patch.object(rmod, "_BATCH_LIMIT", 0):
        one, want = features()
    assert one == 1
    assert np.max(np.abs(got - want)) < 1e-12


class TestMetamorphic:
    """Transformed couplings that must leave the features unchanged. These
    check build_hamiltonian and the class and sector split together,
    without an oracle that shares h_full."""

    params = ReservoirParams(n_sys=4, n_env=3, alpha=1.3, beta=0.9, h_sys=0.5, h_env=0.8, seed=65)
    cfg = ReservoirConfig(tau=0.5, v=7, observables="z_and_zz")
    inputs = np.random.default_rng(67).uniform(0, 1, 300)

    def features(self, params, couplings, cfg=None):
        real = build_hamiltonian(params, CouplingSet(**couplings))
        return run_trajectory(real, self.inputs, cfg or self.cfg)[0].values

    def base(self):
        c = build_hamiltonian(self.params).couplings
        return {"j_sys": c.j_sys, "j_env": c.j_env, "g": c.g}

    def test_flipping_every_sign_conjugates_the_trajectory(self):
        # every term of H and every injected state is real, so H -> -H only
        # complex-conjugates the state and leaves every Z expectation
        c = self.base()
        flipped = dataclasses.replace(self.params, h_sys=-self.params.h_sys, h_env=-self.params.h_env)
        got = self.features(flipped, {key: -value for key, value in c.items()})
        np.testing.assert_allclose(got, self.features(self.params, c), rtol=0, atol=1e-12)

    def test_reversing_the_environment_qubits(self):
        c = self.base()
        n_env = self.params.n_env
        pairs = list(combinations(range(n_env), 2))
        mirror = [pairs.index((n_env - 1 - l, n_env - 1 - k)) for k, l in pairs]
        reversed_env = {"j_sys": c["j_sys"], "j_env": c["j_env"][mirror], "g": c["g"][:, ::-1]}
        np.testing.assert_allclose(self.features(self.params, reversed_env),
                                   self.features(self.params, c), rtol=0, atol=1e-12)

    def test_doubling_h_and_halving_tau(self):
        # scaling by 2 is exact, so the features are bitwise the same
        c = self.base()
        p = self.params
        doubled = dataclasses.replace(p, j0=2 * p.j0, h_sys=2 * p.h_sys, h_env=2 * p.h_env)
        half_tau = dataclasses.replace(self.cfg, tau=self.cfg.tau / 2)
        got = self.features(doubled, {key: 2 * value for key, value in c.items()}, half_tau)
        assert np.array_equal(got, self.features(p, c))
