"""Plain-numpy references the tests check the package against.

Nothing here calls the package's stepping or linear-algebra code: the
register-order density matrix is stepped the textbook way. Qubit 0 is the
most significant bit of a basis index, as in the package.
"""

import numpy as np

PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def embed(factors, n):
    """Kronecker product over an n-qubit register of ``factors`` (qubit ->
    2x2 operator), with the identity at every other qubit."""
    out = np.eye(1, dtype=complex)
    for q in range(n):
        out = np.kron(out, factors.get(q, np.eye(2)))
    return out


def embed_pauli(axis, qubit, n):
    """I x ... x sigma^axis x ... x I with sigma at register position ``qubit``."""
    return embed({qubit: PAULI[axis]}, n)


def propagator(h, t):
    """U = exp(-i H t) from the eigendecomposition of Hermitian ``h``."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def encode(s):
    """The input state sqrt(1-s)|0> + sqrt(s)|1> as a density matrix."""
    off = np.sqrt(s * (1.0 - s))
    return np.array([[1.0 - s, off], [off, s]])


def trace_qubit(rho, q, n):
    """Tr_q rho over register position q, as a tensor with two axes per
    remaining qubit (rows, then columns)."""
    return np.trace(rho.reshape((2,) * (2 * n)), axis1=q, axis2=n + q)


def inject(rho, s, q, n):
    """The encoded input s at register position q, tensored with Tr_q rho."""
    out = np.moveaxis(np.multiply.outer(encode(s), trace_qubit(rho, q, n)), (0, 1), (q, n + q))
    return out.reshape(rho.shape)


def run(real, inputs, cfg, rho, obs):
    """Feature rows (one per input, bias column left out) and the final
    state: inject each input, then conjugate by U = exp(-i H dt) once per
    virtual node and read Tr[(O x I_env) rho] after each."""
    p = real.params
    u = propagator(real.h_full, cfg.tau * cfg.sub_dt_factor)
    ops = [np.kron(o, np.eye(2 ** p.n_env)) for o in obs.operators]
    rows = []
    for s in inputs:
        rho = inject(rho, s, cfg.input_qubit, p.n_qubits)
        feats = []
        for _ in range(cfg.v):
            rho = u @ rho @ u.conj().T
            feats.extend(np.trace(op @ rho).real for op in ops)
        rows.append(feats)
    return np.array(rows).reshape(len(inputs), -1), rho
