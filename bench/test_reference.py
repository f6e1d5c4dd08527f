"""Tests of the benchmark's independent reference (plain numpy, no nmqrc).

    python3 -m pytest bench/test_reference.py -q
"""

from itertools import combinations

import numpy as np
import pytest

import reference as ref


def _doc(n_sys, n_env, seed=0, h_sys=0.5, h_env=0.3):
    rng = np.random.default_rng(seed)
    return {
        "params": {"n_sys": n_sys, "n_env": n_env, "h_sys": h_sys, "h_env": h_env},
        "j_sys": rng.uniform(-1, 1, len(list(combinations(range(n_sys), 2)))).tolist(),
        "j_env": rng.uniform(-1, 1, len(list(combinations(range(n_env), 2)))).tolist(),
        "g": rng.uniform(-1, 1, (n_sys, n_env)).tolist(),
    }


def _plain_features(h, inputs, n_sys, tau, v, kind, multiplex):
    """The protocol read literally: inject, then v times rho <- U rho U^dag
    followed by Tr[O rho] for every full-register observable O."""
    n = h.shape[0].bit_length() - 1
    dt = tau / v if multiplex == "sub_step" else tau
    w, vecs = np.linalg.eigh(h)
    u = (vecs * np.exp(-1j * w * dt)) @ vecs.conj().T
    ops = [ref.operator({i: ref.Z}, n) for i in range(n_sys)]
    if kind == "z_and_zz":
        ops += [ref.operator({i: ref.Z, j: ref.Z}, n) for i, j in combinations(range(n_sys), 2)]
    rho = np.zeros_like(h)
    rho[0, 0] = 1.0
    rows = []
    for s in inputs:
        rho = ref.inject(rho, s)
        row = []
        for _ in range(v):
            rho = u @ rho @ u.conj().T
            row += [np.trace(o @ rho).real for o in ops]
        rows.append(row + [1.0])
    return np.array(rows)


def test_two_qubit_hamiltonian_written_out():
    doc = {"params": {"n_sys": 2, "n_env": 0, "h_sys": 0.5, "h_env": 0.0}, "j_sys": [0.7], "j_env": [], "g": [[], []]}
    xx = np.fliplr(np.eye(4))
    zi = np.diag([1, 1, -1, -1])
    iz = np.diag([1, -1, 1, -1])
    assert np.allclose(ref.hamiltonian(doc), 0.7 * xx + 0.5 * (zi + iz))


def test_hamiltonian_is_hermitian_and_keeps_block_parities():
    h = ref.hamiltonian(_doc(3, 2))
    assert np.allclose(h, h.conj().T)
    parity_sys = ref.operator({0: ref.Z, 1: ref.Z, 2: ref.Z}, 5)
    parity_env = ref.operator({3: ref.Z, 4: ref.Z}, 5)
    for p in (parity_sys, parity_env):
        assert np.allclose(h @ p, p @ h)


def test_injection_sets_input_qubit_and_keeps_the_rest():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    out = ref.inject(rho, 0.3)
    t_out, t_in = out.reshape(2, 4, 2, 4), rho.reshape(2, 4, 2, 4)
    off = np.sqrt(0.3 * 0.7)
    assert np.allclose(np.einsum("aibi->ab", t_out), [[0.7, off], [off, 0.3]])
    assert np.allclose(np.einsum("aiaj->ij", t_out), np.einsum("aiaj->ij", t_in))


@pytest.mark.parametrize("multiplex", ["per_node", "sub_step"])
@pytest.mark.parametrize("kind", ["z_only", "z_and_zz"])
def test_features_match_plain_stepping(kind, multiplex):
    h = ref.hamiltonian(_doc(3, 2, seed=4))
    inputs = ref.input_stream(7, 12, 0.0, 1.0)
    fast = ref.features(h, inputs, 3, 0.7, 4, kind, multiplex)
    assert fast.shape == (12, 4 * (3 if kind == "z_only" else 6) + 1)
    assert np.allclose(fast, _plain_features(h, inputs, 3, 0.7, 4, kind, multiplex), atol=1e-12)


def test_sub_step_is_per_node_with_a_shorter_step():
    h = ref.hamiltonian(_doc(2, 1, seed=2))
    inputs = ref.input_stream(3, 20, 0.0, 1.0)
    assert np.allclose(ref.features(h, inputs, 2, 0.9, 3, multiplex="sub_step"),
                       ref.features(h, inputs, 2, 0.3, 3, multiplex="per_node"))


def test_free_register_reads_the_injected_input():
    h = np.zeros((4, 4), dtype=complex)
    x = ref.features(h, [0.25, 0.8], 2, 0.5, 2)
    # Z on the input qubit reads 1 - 2s; the untouched second qubit stays in |0>.
    assert np.allclose(x, [[0.5, 1, 0.5, 1, 1], [-0.6, 1, -0.6, 1, 1]])


def test_input_stream_is_the_seeded_uniform_draw():
    a = ref.input_stream(5, 100, 0.0, 0.5)
    assert np.array_equal(a, ref.input_stream(5, 100, 0.0, 0.5))
    assert a.min() >= 0.0 and a.max() < 0.5
    assert not np.array_equal(a, ref.input_stream(6, 100, 0.0, 0.5))


def test_stm_targets_shift_with_zero_history():
    s = np.arange(1.0, 6.0)
    assert np.array_equal(ref.stm_targets(s, 0), s)
    assert np.array_equal(ref.stm_targets(s, 2), [0, 0, 1, 2, 3])


def test_narma_fixed_point_and_first_order():
    # u = 0: y* solves 0.05 y^2 - 0.7 y + 0.1 = 0, the smaller root.
    y = ref.narma(np.zeros(400), 10)
    assert np.array_equal(y[:10], np.zeros(10))
    assert abs(y[-1] - (0.7 - np.sqrt(0.49 - 0.02)) / 0.1) < 1e-12
    u = ref.input_stream(0, 50, 0.0, 0.5)
    y1 = ref.narma(u, 1)
    for k in range(1, 50):
        assert abs(y1[k] - (0.3 * y1[k - 1] + 0.05 * y1[k - 1] ** 2 + 1.5 * u[k - 1] ** 2 + 0.1)) < 1e-14


def test_readout_scores_realizable_target_as_one():
    rng = np.random.default_rng(0)
    x = np.hstack([rng.standard_normal((60, 5)), np.ones((60, 1))])
    y = x @ rng.standard_normal(6)
    assert ref.readout_scores(x, [y], 10, 30)[0] == pytest.approx(1.0, abs=1e-12)
    assert ref.readout_scores(x, [np.ones(60)], 10, 30) == [0.0]


def test_squared_correlation_is_pearson_squared():
    rng = np.random.default_rng(3)
    y, yhat = rng.standard_normal(40), rng.standard_normal(40)
    assert ref.squared_correlation(y, yhat) == pytest.approx(np.corrcoef(y, yhat)[0, 1] ** 2, rel=1e-12)
