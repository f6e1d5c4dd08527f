"""Input-driven reservoir evolution and time-multiplexed feature extraction.

Each input step replaces the state of the input qubit (system site 0 by
default) with a pure state encoding the scalar input, then evolves the full
register unitarily through ``v`` equal sub-steps, reading out system
observables after each one. Two multiplexing conventions are supported:

* ``per_node`` (default): every virtual node evolves a full ``tau``, so one
  input step spans ``v * tau`` of physical time,
* ``sub_step``: the ``v`` nodes subdivide a single ``tau`` into slices of
  ``tau / v``.

The per-step feature slice is laid out node-major with the observable index
varying fastest, and a constant bias 1 is appended as the last column.

Internally a step engine uses the sectors of the register basis that H
never mixes: the connected components of its nonzero pattern. Every term of
the Hamiltonian keeps the Z-parity of the system block and of the
environment block, so there are k = 4 sectors (more when alpha = 0 or
n_env <= 1), and H, its eigenvectors W and the Z_i / Z_i Z_j readout are all
block diagonal over them. With the state kept in sector order, a step

* injects the input through precomputed gathers,
* evolves by exp(-i H v dt) with one stacked product of k blocks per side,
* reads all v nodes from the k diagonal blocks of sigma = W^dag rho W: a
  sub-step of length dt multiplies sigma elementwise by the phases
  exp(-i (lam_p - lam_q) dt), so the readouts reduce to one product against
  a precomputed phase table of d^2/k entries per node.

This is exactly unitary conjugation by exp(-i H dt), just associated
differently. An observable that couples two sectors joins them into one, and
sectors of unequal size make the engine treat the whole register as one
sector (k = 1), so a term that breaks the symmetry costs speed, not
correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import linalg
from .errors import ConfigError, NumericalError
from .hamiltonian import PAULI, HamiltonianRealization, _sector_eig
from .linalg import DensityMatrix

OBSERVABLE_KINDS = ("z_only", "z_and_zz")
MULTIPLEX_MODES = ("per_node", "sub_step")

FEATURE_IMAG_ATOL = 1e-9
STEP_TRACE_ATOL = 1e-9

# The phase table holds as many nodes as fit in this many entries (d^2/k per
# node), and at least one; further nodes reuse it after a phase shift.
_BATCH_LIMIT = 4_000_000


@dataclass(frozen=True)
class ReservoirConfig:
    """Per-input evolution time, multiplexing depth and observable choice."""

    tau: float
    v: int
    observables: str = "z_only"
    input_qubit: int = 0
    multiplex: str = "per_node"

    def __post_init__(self):
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise ConfigError(f"tau must be finite and > 0, got {self.tau}")
        if self.v < 1:
            raise ConfigError(f"virtual-node count v must be >= 1, got {self.v}")
        if self.observables not in OBSERVABLE_KINDS:
            raise ConfigError(f"observables must be one of {OBSERVABLE_KINDS}, got {self.observables!r}")
        if self.multiplex not in MULTIPLEX_MODES:
            raise ConfigError(f"multiplex must be one of {MULTIPLEX_MODES}, got {self.multiplex!r}")
        if self.input_qubit < 0:
            raise ConfigError(f"input_qubit must be >= 0, got {self.input_qubit}")

    @property
    def sub_dt_factor(self) -> float:
        """Sub-step length as a fraction of tau."""
        return 1.0 / self.v if self.multiplex == "sub_step" else 1.0


@dataclass(frozen=True)
class ObservableSet:
    """Labeled Hermitian observables on the system register."""

    labels: tuple[str, ...]
    operators: np.ndarray  # stacked (m, 2^n_sys, 2^n_sys)

    def __post_init__(self):
        ops = np.asarray(self.operators, dtype=complex)
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise ValueError(f"operators must be a stacked (m, d, d) array, got shape {ops.shape}")
        if len(self.labels) != ops.shape[0]:
            raise ValueError("label count does not match operator count")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("observable labels must be unique")
        for k in range(ops.shape[0]):
            linalg.assert_hermitian(ops[k], what=f"observable {self.labels[k]}")
        ops = ops.copy()
        ops.flags.writeable = False
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "labels", tuple(self.labels))

    def __len__(self) -> int:
        return self.operators.shape[0]

    @classmethod
    def build(cls, n_sys: int, kind: str = "z_only") -> "ObservableSet":
        """Z_i observables, optionally extended with Z_i Z_j correlators (i < j)."""
        if kind not in OBSERVABLE_KINDS:
            raise ConfigError(f"observables must be one of {OBSERVABLE_KINDS}, got {kind!r}")
        z_diag = np.diagonal(PAULI["Z"]).real
        ops, labels = [], []
        signs = []
        for i in range(n_sys):
            s = np.ones(1)
            for q in range(n_sys):
                s = np.kron(s, z_diag if q == i else np.ones(2))
            signs.append(s)
            ops.append(np.diag(s).astype(complex))
            labels.append(f"Z{i}")
        if kind == "z_and_zz":
            for i, j in combinations(range(n_sys), 2):
                ops.append(np.diag(signs[i] * signs[j]).astype(complex))
                labels.append(f"Z{i}Z{j}")
        return cls(labels=tuple(labels), operators=np.array(ops))


def feature_labels(obs: ObservableSet, v: int) -> tuple[str, ...]:
    """Column labels: v1_<obs> ... v{V}_<obs>, then the trailing bias."""
    cols = [f"v{j + 1}_{lab}" for j in range(v) for lab in obs.labels]
    cols.append("bias")
    return tuple(cols)


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-step reservoir feature rows; last column is the constant bias 1."""

    values: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValueError(f"feature matrix must be 2-dimensional, got shape {vals.shape}")
        if vals.shape[1] != len(self.labels):
            raise ValueError(f"{vals.shape[1]} columns but {len(self.labels)} labels")
        if not np.all(np.isfinite(vals)):
            raise ValueError("feature matrix contains non-finite entries")
        if vals.shape[0]:
            if np.max(np.abs(vals[:, :-1]), initial=0.0) > 1.0 + 1e-9:
                raise ValueError("non-bias feature outside [-1, 1] tolerance band")
            if not np.all(vals[:, -1] == 1.0):
                raise ValueError("bias column must be identically 1")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def steps(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


def encode_input(s: float) -> DensityMatrix:
    """Pure single-qubit state sqrt(1-s)|0> + sqrt(s)|1> for s in [0, 1]."""
    return DensityMatrix(_encode(s))


def _encode(s: float) -> np.ndarray:
    s = float(s)
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"input must lie in [0, 1], got {s}")
    off = np.sqrt(s * (1.0 - s))
    return np.array([[1.0 - s, off], [off, s]], dtype=complex)


def _trace_out_qubit(rho: np.ndarray, q: int, n: int) -> np.ndarray:
    """Trace out a single qubit from an n-qubit matrix (raw, no validation)."""
    d_rest = rho.shape[0] // 2
    if q == 0:
        t = rho.reshape(2, d_rest, 2, d_rest)
        return t[0, :, 0, :] + t[1, :, 1, :]
    return linalg.partial_trace(rho, {q}, n)


def _insert_qubit(rho_one: np.ndarray, rest: np.ndarray, q: int, n: int) -> np.ndarray:
    """Tensor a single-qubit state back in at register position ``q``."""
    out = np.kron(rho_one, rest)
    if q == 0:
        return out
    t = out.reshape((2,) * (2 * n))
    t = np.moveaxis(t, (0, n), (q, n + q))
    d = 2 ** n
    return t.reshape(d, d)


def _inject(rho: np.ndarray, rho_in: np.ndarray, q: int, n: int) -> np.ndarray:
    return _insert_qubit(rho_in, _trace_out_qubit(rho, q, n), q, n)


def inject_input(rho: DensityMatrix, rho_in: DensityMatrix, input_qubit: int = 0) -> DensityMatrix:
    """Replace the input qubit's state: trace it out, tensor ``rho_in`` back in."""
    if rho_in.qubit_count != 1:
        raise ValueError(f"rho_in must be a single-qubit state, got {rho_in.qubit_count} qubits")
    n = rho.qubit_count
    if not 0 <= input_qubit < n:
        raise ValueError(f"input qubit {input_qubit} out of range for a {n}-qubit register")
    return DensityMatrix(_inject(rho.matrix, rho_in.matrix, input_qubit, n))


def measure(rho_sys, obs: ObservableSet) -> np.ndarray:
    """Expectation values Tr[rho O_i]; imaginary parts below 1e-9 are discarded."""
    mat = rho_sys.matrix if isinstance(rho_sys, DensityMatrix) else np.asarray(rho_sys, dtype=complex)
    if mat.shape != obs.operators.shape[1:]:
        raise ValueError(f"state dimension {mat.shape} does not match observables {obs.operators.shape[1:]}")
    vals = np.einsum("aij,ji->a", obs.operators, mat)
    _check_real(vals)
    return vals.real.copy()


def _check_real(vals: np.ndarray) -> None:
    worst = float(np.max(np.abs(vals.imag), initial=0.0))
    if worst > FEATURE_IMAG_ATOL:
        raise NumericalError(
            f"observable expectation has imaginary part {worst:.3e} > {FEATURE_IMAG_ATOL:.1e}; "
            "state is corrupted"
        )


class _StepEngine:
    """Precomputed machinery for one (realization, config, observables) triple.

    The state it steps is the full-register density matrix in sector order,
    stored as its k column blocks, shape (k, d, m): the layout the right-hand
    block product leaves it in, so no step copies it into another. The
    injection gathers read that layout directly. ``to_state`` and
    ``to_register`` convert from and to a register-order (d, d) matrix.
    """

    def __init__(self, real: HamiltonianRealization, cfg: ReservoirConfig, obs: ObservableSet):
        p = real.params
        if cfg.input_qubit >= p.n_sys:
            raise ConfigError(f"input qubit {cfg.input_qubit} is not a system qubit (n_sys={p.n_sys})")
        if obs.operators.shape[1] != 2 ** p.n_sys:
            raise ValueError("observable dimension does not match the system register")
        d = p.dim
        self.v = cfg.v
        self.n_obs = len(obs)
        self.dt = cfg.tau * cfg.sub_dt_factor

        # Sectors are split on the pattern of H joined with that of every
        # O_i x I_env, so an observable with entries between two sectors (none
        # of the built-in ones has them) joins them.
        obs_pattern = np.kron(np.any(obs.operators != 0, axis=0), np.eye(2 ** p.n_env, dtype=bool))
        order, eig = _sector_eig(real.h_full, (real.h_full != 0) | obs_pattern)
        k, m = eig.eigenvalues.shape
        self.shape = (k, m, d)
        self.order = order
        self.position = np.argsort(order)
        self.diag = np.arange(k)

        # Eigenvectors W and the step propagator exp(-i H v dt), as stacks of
        # k blocks.
        lam = eig.eigenvalues
        self.w = eig.eigenvectors
        self.w_h = np.ascontiguousarray(self.w.conj().transpose(0, 2, 1))
        self.u = (self.w * np.exp(-1j * self.v * self.dt * lam)[:, None, :]) @ self.w_h
        self.u_h = np.ascontiguousarray(self.u.conj().transpose(0, 2, 1))

        # Injection as gathers from the stored state: the trace over the input
        # qubit adds the two entries that differ only in its bit, and entry
        # (i, j) of the product state is rho_in at the pair of input bits of
        # i and j times that trace at the pair of their remaining bits.
        def flat(i, j):  # offset of sector-order entry (i, j) in a (k, d, m) state
            return (j // m) * (d * m) + i * m + j % m

        shift = p.n_qubits - 1 - cfg.input_qubit
        low = (1 << shift) - 1
        reg = order
        r = np.arange(d // 2)
        reg0 = ((r >> shift) << (shift + 1)) | (r & low)
        p0, p1 = self.position[reg0], self.position[reg0 | (1 << shift)]
        self.trace_idx = (flat(p0[:, None], p0), flat(p1[:, None], p1))
        rest = ((reg >> (shift + 1)) << shift) | (reg & low)
        bit = (reg >> shift) & 1
        self.inject_idx = (bit[:, None] * 2 + bit) * (d // 2) ** 2 + rest[:, None] * (d // 2) + rest

        # Readout from the diagonal blocks of sigma = W^dag rho W. Row i holds
        # the blocks of (W^dag O_i W)^T flattened, so a feature at node j is a
        # dot product with the flattened blocks of sigma times column j of the
        # phase table exp(-i (lam_p - lam_q) j dt). The table holds as many
        # nodes as fit under _BATCH_LIMIT entries; later nodes reuse it after
        # a phase shift by its whole span.
        delta = (lam[:, :, None] - lam[:, None, :]).ravel()
        nodes = max(1, min(self.v, _BATCH_LIMIT // delta.size))
        self.phase_table = np.exp(np.outer(-1j * self.dt * delta, np.arange(1, nodes + 1)))
        self.phase_shift = np.exp(-1j * nodes * self.dt * delta)
        rows = np.empty((self.n_obs, delta.size), dtype=complex)
        for i, op in enumerate(obs.operators):
            block = _diagonal_blocks(op, self.order, k, p.n_env)
            rows[i] = (self.w_h @ block @ self.w).transpose(0, 2, 1).ravel()
        self.obs_rows = rows

    def to_state(self, rho: np.ndarray) -> np.ndarray:
        k, m, d = self.shape
        sectors = rho[np.ix_(self.order, self.order)]
        return np.ascontiguousarray(sectors.reshape(d, k, m).transpose(1, 0, 2))

    def to_register(self, state: np.ndarray) -> np.ndarray:
        k, m, d = self.shape
        return state.transpose(1, 0, 2).reshape(d, d)[np.ix_(self.position, self.position)]

    def step(self, state: np.ndarray, s: float) -> tuple[np.ndarray, np.ndarray]:
        """One input step: inject, evolve v sub-steps, read out after each."""
        k, m, d = self.shape
        traced = state.take(self.trace_idx[0]) + state.take(self.trace_idx[1])
        rho = np.multiply.outer(_encode(s).ravel(), traced).take(self.inject_idx)  # (d, d), sector order

        sigma = self.w_h @ rho.reshape(k, m, k, m)[self.diag, :, self.diag, :] @ self.w
        weighted = self.obs_rows * sigma.ravel()
        feats = np.empty((self.v, self.n_obs))
        span = self.phase_table.shape[1]
        for start in range(0, self.v, span):
            if start:
                weighted *= self.phase_shift
            stop = min(start + span, self.v)
            fmat = weighted @ self.phase_table[:, : stop - start]  # (n_obs, nodes)
            _check_real(fmat)
            feats[start:stop] = fmat.real.T

        half = (self.u @ rho.reshape(k, m, d)).reshape(d, k, m).transpose(1, 0, 2)
        state = half @ self.u_h
        trace_err = abs(float(np.einsum("aapp->", state.reshape(k, k, m, m)).real) - 1.0)
        if trace_err > STEP_TRACE_ATOL:
            raise NumericalError(f"state trace drifted by {trace_err:.3e} > {STEP_TRACE_ATOL:.1e}")
        return state, feats.ravel()


def _diagonal_blocks(op: np.ndarray, order: np.ndarray, k: int, n_env: int) -> np.ndarray:
    """The k diagonal blocks, shape (k, m, m), of the system operator
    ``op`` x I_env with the register basis taken in ``order``."""
    idx = order.reshape(k, -1)
    sys_idx, env_idx = idx >> n_env, idx & ((1 << n_env) - 1)
    same_env = env_idx[:, :, None] == env_idx[:, None, :]
    return op[sys_idx[:, :, None], sys_idx[:, None, :]] * same_env


def evolve_step(
    rho: DensityMatrix,
    s: float,
    real: HamiltonianRealization,
    cfg: ReservoirConfig,
    obs: ObservableSet | None = None,
) -> tuple[DensityMatrix, np.ndarray]:
    """Single input step on a validated state; returns (next state, feature slice).

    Each call builds the step engine (sector eigendecomposition, propagator,
    phase table), which costs far more than the step itself; drive a
    sequence of inputs through ``run_trajectory``, which builds it once.
    """
    if obs is None:
        obs = ObservableSet.build(real.params.n_sys, cfg.observables)
    if rho.qubit_count != real.params.n_qubits:
        raise ValueError(
            f"state has {rho.qubit_count} qubits but the realization has {real.params.n_qubits}"
        )
    engine = _StepEngine(real, cfg, obs)
    mat, feats = engine.step(engine.to_state(rho.matrix), s)
    return DensityMatrix(engine.to_register(mat)), feats


def run_trajectory(
    real: HamiltonianRealization,
    inputs,
    cfg: ReservoirConfig,
    initial_state: DensityMatrix | None = None,
) -> tuple[FeatureMatrix, DensityMatrix]:
    """Drive the reservoir with an input sequence and collect feature rows.

    Returns the feature matrix (one row per input, trailing bias column) and
    the final full-register state for chaining or diagnostics.
    """
    inputs = np.asarray(inputs, dtype=float).ravel()
    if inputs.size and (inputs.min() < 0.0 or inputs.max() > 1.0):
        raise ValueError("inputs must lie in [0, 1]")
    obs = ObservableSet.build(real.params.n_sys, cfg.observables)
    engine = _StepEngine(real, cfg, obs)
    if initial_state is None:
        initial_state = DensityMatrix.ground(real.params.n_qubits)
    elif initial_state.qubit_count != real.params.n_qubits:
        raise ValueError(
            f"initial state has {initial_state.qubit_count} qubits but the realization "
            f"has {real.params.n_qubits}"
        )
    labels = feature_labels(obs, cfg.v)
    rows = np.ones((inputs.size, len(labels)))
    rho = engine.to_state(initial_state.matrix)
    for k, s in enumerate(inputs):
        try:
            rho, feats = engine.step(rho, s)
        except (NumericalError, ValueError) as exc:
            raise NumericalError(f"trajectory failed at step {k}: {exc}") from exc
        rows[k, :-1] = feats
    return FeatureMatrix(values=rows, labels=labels), DensityMatrix(engine.to_register(rho))
