"""Plain-numpy references the tests check the package against.

Nothing here calls the package's stepping or linear-algebra code: the
register-order density matrix is stepped the textbook way. Qubit 0 is the
most significant bit of a basis index, as in the package.
"""

from itertools import combinations

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


def ground(n):
    """|0...0><0...0| on n qubits."""
    rho = np.zeros((2 ** n, 2 ** n), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def mixed(n):
    """I / 2^n on n qubits."""
    return np.eye(2 ** n, dtype=complex) / 2 ** n


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


def observables(kind, n_sys, n):
    """The readout of ``kind`` on an n-qubit register whose first ``n_sys``
    qubits are the system: every Z_i, then for "z_and_zz" every Z_i Z_j, i < j."""
    ops = [embed_pauli("Z", i, n) for i in range(n_sys)]
    if kind == "z_and_zz":
        ops += [embed({i: PAULI["Z"], j: PAULI["Z"]}, n) for i, j in combinations(range(n_sys), 2)]
    return ops


def run(real, inputs, cfg, rho):
    """Feature rows (one per input, bias column left out) and the final
    state: inject each input at qubit 0, then conjugate by U = exp(-i H dt) once per
    virtual node and read Tr[O rho] after each, for the observables
    ``cfg.observables`` names."""
    p = real.params
    u = propagator(real.h_full, cfg.tau * cfg.sub_dt_factor)
    ops = observables(cfg.observables, p.n_sys, p.n_qubits)
    rows = []
    for s in inputs:
        rho = inject(rho, s, 0, p.n_qubits)
        feats = []
        for _ in range(cfg.v):
            rho = u @ rho @ u.conj().T
            feats.extend(np.trace(op @ rho).real for op in ops)
        rows.append(feats)
    return np.array(rows).reshape(len(inputs), -1), rho
