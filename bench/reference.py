"""Independent plain-numpy reference for the benchmark's output checks.

Nothing here imports ``nmqrc``. It rebuilds each documented piece of the
protocol from the written outputs and the README:

* the Hamiltonian, by ``np.kron`` from a ``couplings_seed{k}.json`` document;
* the input stream of seed k, from ``SeedSequence([k, 1])``;
* the reservoir, by ``U rho U^dag`` stepping with U = exp(-i H dt) from
  ``np.linalg.eigh``: the input qubit
  (register position 0, the most significant bit) is traced out and replaced
  by ``sqrt(1-s)|0> + sqrt(s)|1>``, then ``v`` sub-steps of length ``tau``
  (``per_node``) or ``tau / v`` (``sub_step``) each read out the system
  observables Z_i (then Z_i Z_j, i < j, for ``z_and_zz``);
* the STM and NARMA targets, the NARMA recurrence with constants
  (0.3, 0.05, 1.5, 0.1);
* a ``np.linalg.pinv`` readout scored by squared Pearson correlation.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)

NARMA_CONSTANTS = (0.3, 0.05, 1.5, 0.1)
PINV_RCOND = 1e-12


def operator(factors: dict, n: int) -> np.ndarray:
    """Tensor product over n qubits with ``factors[q]`` at site q, identity elsewhere."""
    out = np.ones((1, 1), dtype=complex)
    for q in range(n):
        out = np.kron(out, factors.get(q, I2))
    return out


def hamiltonian(doc: dict) -> np.ndarray:
    """Full-register H from an exported couplings document {params, j_sys, j_env, g}."""
    p = doc["params"]
    n_sys, n_env = p["n_sys"], p["n_env"]
    n = n_sys + n_env
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for j, (a, b) in zip(doc["j_sys"], combinations(range(n_sys), 2)):
        h += j * operator({a: X, b: X}, n)
    for j, (a, b) in zip(doc["j_env"], combinations(range(n_sys, n), 2)):
        h += j * operator({a: X, b: X}, n)
    for a in range(n_sys):
        h += p["h_sys"] * operator({a: Z}, n)
    for a in range(n_sys, n):
        h += p["h_env"] * operator({a: Z}, n)
    for a in range(n_sys):
        for k in range(n_env):
            h += doc["g"][a][k] * operator({a: Z, n_sys + k: Z}, n)
    return h


def input_stream(seed: int, length: int, lo: float, hi: float) -> np.ndarray:
    """The documented input policy: uniform draws from SeedSequence([seed, 1])."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 1]))
    return rng.uniform(lo, hi, size=length)


def observables(n_sys: int, n: int, kind: str) -> np.ndarray:
    """Diagonals of the full-register Z_i (and Z_i Z_j) operators on the
    system sites; all of them are diagonal in the computational basis, so
    Tr[O rho] is the diagonal of O dotted with the diagonal of rho."""
    ops = [operator({i: Z}, n) for i in range(n_sys)]
    if kind == "z_and_zz":
        ops += [operator({i: Z, j: Z}, n) for i, j in combinations(range(n_sys), 2)]
    return np.array([np.diagonal(op).real for op in ops])


def inject(rho: np.ndarray, s: float) -> np.ndarray:
    """rho_in(s) tensor Tr_0(rho): replace the state of register position 0."""
    half = rho.shape[0] // 2
    rest = np.einsum("aiaj->ij", rho.reshape(2, half, 2, half))
    off = np.sqrt(s * (1.0 - s))
    return np.kron(np.array([[1.0 - s, off], [off, s]]), rest)


def features(h, inputs, n_sys, tau, v, kind="z_only", multiplex="per_node") -> np.ndarray:
    """Feature rows (node-major, observable fastest, trailing bias 1) from |0..0>.

    Node j of a step reads the diagonal of U^j rho U^j^dag, which is all the
    diagonal observables need: row a of (U^j rho) dotted with row a of
    conj(U^j). The carried state is U^v rho U^v^dag.
    """
    d = h.shape[0]
    n = d.bit_length() - 1
    dt = tau / v if multiplex == "sub_step" else tau
    w, vecs = np.linalg.eigh(h)
    powers = np.array([(vecs * np.exp(-1j * w * dt * j)) @ vecs.conj().T for j in range(1, v + 1)])
    stacked = powers.reshape(v * d, d)
    u_v, u_v_dag = powers[-1], powers[-1].conj().T
    ops = observables(n_sys, n, kind)
    rows = np.ones((len(inputs), v * len(ops) + 1))
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    for k, s in enumerate(inputs):
        rho = inject(rho, s)
        diags = np.einsum("ab,ab->a", stacked @ rho, stacked.conj()).real.reshape(v, d)
        rows[k, :-1] = (diags @ ops.T).ravel()
        rho = u_v @ rho @ u_v_dag
    return rows


def stm_targets(s, tau_d: int) -> np.ndarray:
    """y[k] = s[k - tau_d], with 0 where no source sample exists."""
    y = np.zeros(len(s))
    y[tau_d:] = s[:len(s) - tau_d]
    return y


def narma(u, order: int) -> np.ndarray:
    """y[k] = a y[k-1] + b y[k-1] mean(y[k-order..k-1]) + c u[k-order] u[k-1] + d,
    with y = 0 on the first ``order`` steps."""
    a, b, c, d = NARMA_CONSTANTS
    u = [float(x) for x in u]
    y = [0.0] * len(u)
    for k in range(order, len(u)):
        y[k] = a * y[k - 1] + b * y[k - 1] * sum(y[k - order:k]) / order + c * u[k - order] * u[k - 1] + d
    return np.array(y)


def squared_correlation(y, yhat) -> float:
    """Squared Pearson correlation; 0 for a constant series."""
    yc, hc = y - y.mean(), yhat - yhat.mean()
    var_y, var_h = np.mean(yc ** 2), np.mean(hc ** 2)
    if var_y <= 0 or var_h <= 0:
        return 0.0
    return min(float(np.mean(yc * hc) ** 2 / (var_y * var_h)), 1.0)


def readout_scores(x, targets, washout: int, train: int) -> list[float]:
    """Fit each target on rows [washout, washout+train) by pseudoinverse and
    score it on the rows after them."""
    tr = slice(washout, washout + train)
    va = slice(washout + train, None)
    pinv = np.linalg.pinv(x[tr], rcond=PINV_RCOND)
    return [squared_correlation(y[va], x[va] @ (pinv @ y[tr])) for y in targets]
