import pickle

import numpy as np
import pytest

from nmqrc.errors import ConfigError
from nmqrc.linalg import (
    DensityMatrix,
    _ground_matrix,
    _mixed_matrix,
    assert_hermitian,
    hermitian_eig,
    partial_trace,
    pseudoinverse,
    qubit_count,
    trace_norm,
)
from nmqrc.reservoir import ReservoirConfig

import oracle

X = oracle.PAULI["X"]
Z = oracle.PAULI["Z"]


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


def random_density(rng, n_qubits):
    d = 2 ** n_qubits
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / rho.trace()


def brute_partial_trace(rho, traced, n):
    """Independent oracle: explicit sum over basis-index bit patterns.

    Qubit 0 is the most significant bit of a basis index.
    """
    traced = sorted(traced)
    keep = [q for q in range(n) if q not in traced]
    dk = 2 ** len(keep)
    out = np.zeros((dk, dk), dtype=complex)
    for a in range(2 ** n):
        bits_a = [(a >> (n - 1 - q)) & 1 for q in range(n)]
        for b in range(2 ** n):
            bits_b = [(b >> (n - 1 - q)) & 1 for q in range(n)]
            if any(bits_a[q] != bits_b[q] for q in traced):
                continue
            ia = 0
            ib = 0
            for q in keep:
                ia = (ia << 1) | bits_a[q]
                ib = (ib << 1) | bits_b[q]
            out[ia, ib] += rho[a, b]
    return out


def expm_series(a):
    """Independent oracle: scaling-and-squaring Taylor series for exp(A)."""
    norm = np.linalg.norm(a, ord=np.inf)
    s = max(0, int(np.ceil(np.log2(max(norm, 1e-30)))) + 4)
    b = a / (2 ** s)
    term = np.eye(a.shape[0], dtype=complex)
    total = term.copy()
    for k in range(1, 30):
        term = term @ b / k
        total += term
    for _ in range(s):
        total = total @ total
    return total


class TestKron:
    """Kronecker products in register order, qubit 0 the most significant
    bit, as the oracle builds its operators; and the register cap and finite
    entries that the package's own arrays must have."""

    def test_identity(self):
        assert np.array_equal(oracle.embed({}, 2), np.eye(4))

    def test_dimension_law(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 2))
        assert oracle.embed({1: a}, 3).shape == (8, 8)

    def test_zz_on_01(self):
        # hand oracle: entry (2i+k, 2j+l) = a[i,j] b[k,l]
        zz_hand = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        zz_hand[2 * i + k, 2 * j + l] = Z[i, j] * Z[k, l]
        zz = oracle.embed({0: Z, 1: Z}, 2)
        assert np.array_equal(zz, zz_hand)
        ket01 = np.zeros(4)
        ket01[1] = 1.0  # |01>: qubit0=0 (msb), qubit1=1
        assert np.allclose(zz @ ket01, -ket01)

    def test_mixed_product_property(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(4))
            lhs = oracle.embed({0: a, 1: b}, 2) @ oracle.embed({0: c, 1: d}, 2)
            rhs = oracle.embed({0: a @ c, 1: b @ d}, 2)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_register_cap(self):
        with pytest.raises(ValueError, match="cap"):
            qubit_count(2 ** 13)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(np.array([[np.nan, 0], [0, 1]]))


class TestAssertHermitian:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    @pytest.mark.parametrize("at", [(1, 2), (1, 1)])
    def test_rejects_a_non_finite_entry(self, bad, at):
        m = np.eye(3, dtype=complex)
        m[at] = bad
        with pytest.raises(ValueError, match="non-finite"):
            assert_hermitian(m)


class TestHermitianEig:
    def test_diagonal(self):
        w, _ = hermitian_eig(np.diag([3.0, -1.0]).astype(complex))
        assert np.allclose(w, [-1.0, 3.0])

    def test_pauli_x_spectrum(self):
        w, _ = hermitian_eig(X)
        assert np.allclose(w, [-1.0, 1.0])

    def test_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 8)
        w, v = hermitian_eig(h)
        recon = (v * w) @ v.conj().T
        rel = np.linalg.norm(recon - h) / np.linalg.norm(h)
        assert rel < 1e-9
        assert np.max(np.abs(v.conj().T @ v - np.eye(8))) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


class TestPropagator:
    """The oracle's U = exp(-i H t); the package rejects evolution times
    that are not positive."""

    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 4)
        assert np.max(np.abs(oracle.propagator(h, 0.0) - np.eye(4))) < 1e-12

    def test_sigma_z_pi(self):
        u = oracle.propagator(Z, np.pi)
        assert np.allclose(u, -np.eye(2), atol=1e-12)

    def test_sigma_x_closed_form(self):
        # exp(-i X pi/2) = cos(pi/2) I - i sin(pi/2) X = -i X
        u = oracle.propagator(X, np.pi / 2)
        assert np.allclose(u, -1j * X, atol=1e-12)

    def test_matches_series_expm(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(rng, 8)
        u = oracle.propagator(h, 0.7)
        ref = expm_series(-1j * h * 0.7)
        assert np.max(np.abs(u - ref)) < 1e-11

    def test_unitarity_sweep(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            d = int(rng.integers(2, 17))
            h = random_hermitian(rng, d)
            for t in (0.01, 0.5, 5.0):
                u = oracle.propagator(h, t)
                assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-9

    def test_conjugation_preserves_density_invariants(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            rho = random_density(rng, 3)
            h = random_hermitian(rng, 8)
            u = oracle.propagator(h, 1.3)
            out = u @ rho @ u.conj().T
            assert abs(out.trace() - rho.trace()) < 1e-10
            assert np.max(np.abs(out - out.conj().T)) < 1e-10
            assert np.linalg.eigvalsh(out)[0] >= -1e-9

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError, match="> 0"):
            ReservoirConfig(tau=-1.0, v=1)


class TestPartialTrace:
    def test_product_state_factorization(self):
        rng = np.random.default_rng(19)
        rho_a = random_density(rng, 1)
        rho_b = random_density(rng, 2)
        joint = np.kron(rho_a, rho_b)
        assert np.max(np.abs(partial_trace(joint, {1, 2}, 3) - rho_a)) < 1e-12
        assert np.max(np.abs(partial_trace(joint, {0}, 3) - rho_b)) < 1e-12

    def test_maximally_mixed(self):
        rho = np.eye(8) / 8
        out = partial_trace(rho, {2}, 3)
        assert np.allclose(out, np.eye(4) / 4)

    def test_bell_state(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        assert np.allclose(partial_trace(rho, {1}, 2), np.eye(2) / 2, atol=1e-12)

    def test_register_order_preserved(self):
        rng = np.random.default_rng(23)
        parts = [random_density(rng, 1) for _ in range(3)]
        joint = np.kron(np.kron(parts[0], parts[1]), parts[2])
        out = partial_trace(joint, {1}, 3)
        assert np.max(np.abs(out - np.kron(parts[0], parts[2]))) < 1e-12

    def test_against_brute_force(self):
        rng = np.random.default_rng(29)
        rho = random_density(rng, 3)
        for traced in ({0}, {1}, {2}, {0, 2}, {1, 2}):
            got = partial_trace(rho, traced, 3)
            want = brute_partial_trace(rho, traced, 3)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_trace_preserved_and_linear(self):
        rng = np.random.default_rng(31)
        r1, r2 = random_density(rng, 3), random_density(rng, 3)
        assert abs(partial_trace(r1, {0, 1}, 3).trace() - r1.trace()) < 1e-10
        mix = 0.3 * r1 + 0.7 * r2
        lhs = partial_trace(mix, {1}, 3)
        rhs = 0.3 * partial_trace(r1, {1}, 3) + 0.7 * partial_trace(r2, {1}, 3)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_errors(self):
        rho = np.eye(4) / 4
        with pytest.raises(ValueError, match="at least one"):
            partial_trace(rho, {0, 1}, 2)
        with pytest.raises(ValueError, match="out of range"):
            partial_trace(rho, {5}, 2)


class TestTraceNorm:
    def test_zero(self):
        assert trace_norm(np.zeros((2, 2))) == 0.0

    def test_projector_difference(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        assert abs(trace_norm(p0 - p1) - 2.0) < 1e-12

    def test_zero_vs_plus(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        p0 = np.diag([1.0, 0.0]).astype(complex)
        assert abs(trace_norm(p0 - plus) - np.sqrt(2)) < 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            a = random_hermitian(rng, 4)
            b = random_hermitian(rng, 4)
            assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            trace_norm(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("shape", [(3,), (2, 2)])
    def test_stack_is_the_norm_of_the_block_diagonal_matrix(self, shape):
        rng = np.random.default_rng(39)
        d = 5
        blocks = np.array([random_hermitian(rng, d) for _ in range(int(np.prod(shape)))])
        full = np.zeros((blocks.shape[0] * d,) * 2, dtype=complex)
        for i, block in enumerate(blocks):
            full[i * d:(i + 1) * d, i * d:(i + 1) * d] = block
        want = float(np.sum(np.abs(np.linalg.eigvalsh(full))))
        assert abs(trace_norm(blocks.reshape(*shape, d, d)) - want) < 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_inf_diagonal_entry_raises_the_documented_error(self, bad):
        # inf - inf in A - A^dag gives NaN there; it must reach the ValueError
        # without numpy's invalid-value warning on the way
        m = np.eye(3, dtype=complex)
        m[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            trace_norm(m)

    def test_stack_rejects_a_non_hermitian_block(self):
        rng = np.random.default_rng(41)
        blocks = np.array([random_hermitian(rng, 4) for _ in range(3)])
        blocks[1, 0, 2] += 1e-8
        with pytest.raises(ValueError, match="Hermitian"):
            trace_norm(blocks)

    def test_stack_rejects_a_nan_block(self):
        rng = np.random.default_rng(43)
        blocks = np.array([random_hermitian(rng, 4) for _ in range(3)])
        blocks[2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            trace_norm(blocks)


class TestPseudoinverse:
    def test_rank_deficient_diagonal(self):
        out = pseudoinverse(np.diag([2.0, 0.0]))
        assert np.allclose(out, np.diag([0.5, 0.0]))

    def test_identity(self):
        assert np.allclose(pseudoinverse(np.eye(5)), np.eye(5))

    def test_penrose_identities(self):
        rng = np.random.default_rng(41)
        a = rng.standard_normal((20, 5))
        ap = pseudoinverse(a)
        scale = np.linalg.norm(a)
        assert np.linalg.norm(a @ ap @ a - a) / scale < 1e-8
        assert np.linalg.norm(ap @ a @ ap - ap) / np.linalg.norm(ap) < 1e-8
        assert np.max(np.abs(ap @ a - np.eye(5))) < 1e-8  # full column rank


class TestDensityMatrix:
    def test_ground_and_mixed(self):
        # the package's two default states are valid density matrices
        g = DensityMatrix(_ground_matrix(3))
        assert g.qubit_count == 3
        assert g.matrix[0, 0] == 1.0
        m = DensityMatrix(_mixed_matrix(2))
        assert np.allclose(m.matrix, np.eye(4) / 4)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_immutable(self):
        g = DensityMatrix(oracle.ground(1))
        with pytest.raises(ValueError):
            g.matrix[0, 0] = 0.0

    def test_pickle_keeps_matrix_read_only(self):
        dm = DensityMatrix(random_density(np.random.default_rng(41), 2))
        back = pickle.loads(pickle.dumps(dm))
        assert not back.matrix.flags.writeable
        assert np.array_equal(back.matrix, dm.matrix)

    def test_partial_trace_method(self):
        # the partial trace of a density matrix is one
        rng = np.random.default_rng(43)
        dm = DensityMatrix(random_density(rng, 2))
        reduced = DensityMatrix(partial_trace(dm.matrix, {1}, dm.qubit_count))
        assert reduced.qubit_count == 1
