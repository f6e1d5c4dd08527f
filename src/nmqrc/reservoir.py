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

Internally a step engine works on two levels of structure. Classes: the
parts of the register basis that no step connects, the connected components
of the patterns of H, of the input-qubit flip, of the observables and of the
initial state. Every term of the Hamiltonian keeps the Z-parity of the
environment block and the injection touches only a system qubit, so a state
that starts inside one environment-parity class stays there: from the ground
state the engine steps one class of half the register (a smaller one when
alpha = 0, where every environment Z is conserved; the whole register when
there is no environment). It keeps only the classes the initial state
occupies and steps them as one stack of blocks. Sectors: within
a class, the connected components of the pattern of H, on which H, its
eigenvectors W and the Z_i / Z_i Z_j readout are block diagonal (k = 2 per
class here, as H also keeps the system-block parity). With each class block
kept in sector order, a step

* injects the input through precomputed gathers,
* evolves by exp(-i H v dt) with one stacked product of k blocks per class
  and side,
* reads all v nodes from the diagonal sector blocks of sigma = W^dag rho W:
  a sub-step of length dt multiplies sigma elementwise by the phases
  exp(-i (lam_p - lam_q) dt). sigma and each observable's blocks are
  Hermitian, so entry (q, p) of a block is the conjugate of entry (p, q) and
  the readouts reduce to one real product over the upper triangles of the
  blocks against a precomputed table of cosines and sines, one pair per
  upper-triangle entry and node.

This is exactly unitary conjugation by exp(-i H dt), just associated
differently. Structure that is not there joins the pieces instead of being
lost, so it costs speed, not correctness: an initial state with coherence
between classes (a dense one, say) or a term that flips an environment
qubit joins the classes, an observable that couples two sectors joins them,
and kept classes or sectors of unequal size make the engine treat them as
one. With every class joined the engine steps the whole register.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import linalg
from .errors import ConfigError, NumericalError
from .hamiltonian import PAULI, HamiltonianRealization, _components, _sector_eig
from .linalg import DensityMatrix

OBSERVABLE_KINDS = ("z_only", "z_and_zz")
MULTIPLEX_MODES = ("per_node", "sub_step")

FEATURE_IMAG_ATOL = 1e-9
STEP_TRACE_ATOL = 1e-9

# The phase table holds as many nodes as fit in this many reals (two per
# upper-triangle entry of the k diagonal blocks, d(m+1) per class and node),
# and at least one node; further nodes reuse it after a phase shift.
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

    def __reduce__(self):
        # Unpickled arrays come back writable; the constructor freezes them.
        return type(self), (self.labels, self.operators)

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

    def __reduce__(self):
        # Unpickled arrays come back writable; the constructor freezes them.
        return type(self), (self.values, self.labels)

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

    The register basis splits into classes that no step ever connects: the
    connected components of the patterns of H, of the input-qubit flip, of
    every O_i x I_env and of ``support``, the nonzero pattern of the initial
    state (None for any state, which makes the whole register one class). A
    state with no entries outside its diagonal class blocks keeps none, so
    the engine keeps only the classes the support touches and steps each as
    a block of its own; within a class it splits into the sectors of H.
    ``shape`` is (k sectors per class, m states per sector, d states per
    class) and ``classes`` the number of classes kept.

    The state it steps is the stack of class blocks in sector order, each
    stored as its k column blocks, shape (classes, k, d, m): the layout the
    right-hand block product leaves it in, so no step copies it into
    another. The injection gathers read that layout directly. ``to_state``
    and ``to_register`` convert from and to a register-order matrix, which
    is zero outside the kept class blocks.
    """

    def __init__(self, real: HamiltonianRealization, cfg: ReservoirConfig, obs: ObservableSet,
                 support: np.ndarray | None = None):
        p = real.params
        if cfg.input_qubit >= p.n_sys:
            raise ConfigError(f"input qubit {cfg.input_qubit} is not a system qubit (n_sys={p.n_sys})")
        if obs.operators.shape[1] != 2 ** p.n_sys:
            raise ValueError("observable dimension does not match the system register")
        self.n_qubits = n = p.n_qubits
        self.v = cfg.v
        self.n_obs = len(obs)
        self.dt = cfg.tau * cfg.sub_dt_factor
        shift = n - 1 - cfg.input_qubit
        low = (1 << shift) - 1

        # Sectors are split on the pattern of H joined with that of every
        # O_i x I_env, so an observable with entries between two sectors (none
        # of the built-in ones has them) joins them. Classes join sectors that
        # the input-qubit flip or the initial state connects. Kept classes of
        # unequal size are joined into one.
        obs_pattern = np.kron(np.any(obs.operators != 0, axis=0), np.eye(2 ** p.n_env, dtype=bool))
        pattern = (real.h_full != 0) | obs_pattern
        if support is None:
            label = np.zeros(p.dim, dtype=int)
        else:
            basis = np.arange(p.dim)
            linked = pattern | support
            linked[basis, basis ^ (1 << shift)] = True
            label = _components(linked)  # each class is labeled by a basis index
            touched = np.zeros(p.dim, dtype=bool)
            touched[label[np.any(support, axis=1)]] = True
            occupied = touched[label]
            sizes = np.unique(label[occupied], return_counts=True)[1]
            if sizes.min() != sizes.max():
                label = np.zeros_like(label)
            label = np.where(occupied, label, -1)
        members = np.argsort(label, kind="stable")[np.count_nonzero(label < 0):]  # class after class
        order, eig = _sector_eig(real.h_full, pattern, members)
        n_sectors, m = eig.eigenvalues.shape
        # Sectors of unequal size come back as one, which may span classes.
        # Members are sorted by class, so each change of label starts one.
        c = np.count_nonzero(np.diff(label[members])) + 1 if n_sectors > 1 else 1
        k, d = n_sectors // c, order.size // c
        self.shape = (k, m, d)
        self.classes = c
        self.order = order.reshape(c, d)
        self.position = np.full(p.dim, -1)
        self.position[order] = np.arange(order.size)
        self.cls = np.arange(c)[:, None]
        self.diag = np.arange(k)

        # Eigenvectors W and the step propagator exp(-i H v dt), as stacks of
        # c x k blocks.
        lam = eig.eigenvalues
        self.w = eig.eigenvectors.reshape(c, k, m, m)
        self.w_h = np.ascontiguousarray(self.w.conj().transpose(0, 1, 3, 2))
        self.u = (self.w * np.exp(-1j * self.v * self.dt * lam).reshape(c, k, 1, m)) @ self.w_h
        self.u_h = np.ascontiguousarray(self.u.conj().transpose(0, 1, 3, 2))

        # Injection as gathers from the stored state: the trace over the input
        # qubit of each class block, over the r = d/2 values ``rests`` its
        # remaining bits take in that class, then entry (i, j) of the product
        # state is rho_in at the pair of input bits of i and j times that
        # trace at the pair of their remaining bits.
        reg = self.order
        rest = ((reg >> (shift + 1)) << shift) | (reg & low)
        bit = (reg >> shift) & 1
        r = d // 2
        rests = np.sort(rest, axis=1)[:, ::2]  # each rest of a class comes with both input bits
        with_bit = ((rests >> shift) << (shift + 1)) | (rests & low)
        pos = self.position[np.stack([with_bit, with_bit | (1 << shift)])]  # (2, c, r)
        self.trace_idx = self._offset(pos[..., :, None], pos[..., None, :])
        rank = np.empty(p.dim // 2, dtype=int)
        rank[rests] = np.arange(r)
        a = rank[rest]
        self.inject_idx = ((bit[:, :, None] * 2 + bit[:, None, :]) * (c * r * r)
                           + self.cls[:, :, None] * (r * r) + a[:, :, None] * r + a[:, None, :])

        # Readout from the diagonal blocks of sigma = W^dag rho W. With R_i the
        # blocks of (W^dag O_i W)^T, the feature at node j is the sum over all
        # block entries of R_i sigma exp(-i (lam_p - lam_q) j dt). R_i and sigma
        # are Hermitian, so that is the sum over the upper triangles p <= q of
        # w Re(z exp(-i (lam_p - lam_q) j dt)), z = R_i (sigma + sigma^dag)/2,
        # w = 1 on the diagonal and 2 off it: z viewed as interleaved reals
        # (Re, Im) times a table of interleaved rows (w cos, w sin). The table
        # holds as many nodes as fit under _BATCH_LIMIT reals; later nodes
        # reuse it after a phase shift of z by its whole span.
        p_idx, q_idx = np.triu_indices(m)
        base = np.arange(c * k)[:, None] * (m * m)  # offset of each block in sigma
        self.upper = (base + p_idx * m + q_idx).ravel()
        self.lower = (base + q_idx * m + p_idx).ravel()
        self.tri_weight = np.tile(np.where(p_idx == q_idx, 1.0, 2.0), c * k)
        delta = (lam[:, p_idx] - lam[:, q_idx]).ravel()
        nodes = max(1, min(self.v, _BATCH_LIMIT // (2 * delta.size)))
        angle = np.outer(self.dt * delta, np.arange(1, nodes + 1))
        table = np.empty((delta.size, 2, nodes))
        np.cos(angle, out=table[:, 0])
        np.sin(angle, out=table[:, 1])
        table *= self.tri_weight[:, None, None]
        self.phase_table = table.reshape(2 * delta.size, nodes)
        self.phase_shift = np.exp(-1j * nodes * self.dt * delta)
        rows = np.empty((self.n_obs, c * k * m * m), dtype=complex)
        for i, op in enumerate(obs.operators):
            block = _diagonal_blocks(op, order, c * k, p.n_env).reshape(c, k, m, m)
            rows[i] = (self.w_h @ block @ self.w).transpose(0, 1, 3, 2).ravel()
        self.obs_rows = np.ascontiguousarray(rows[:, self.upper])
        # |Im feature| <= ||sigma - sigma^dag||_F / 2 * max_i ||R_i||_F
        self.row_norm = float(np.max(np.linalg.norm(rows, axis=1), initial=0.0))

    def _offset(self, row: np.ndarray, col: np.ndarray) -> np.ndarray:
        """Offset in a stored state of entry (row, col) of a class block, both
        given as positions in ``order``."""
        k, m, d = self.shape
        return (row // d) * (d * d) + (col % d // m) * (d * m) + row % d * m + col % m

    def to_state(self, rho: np.ndarray) -> np.ndarray:
        k, m, d = self.shape
        blocks = rho[self.order[:, :, None], self.order[:, None, :]]
        return np.ascontiguousarray(blocks.reshape(self.classes, d, k, m).transpose(0, 2, 1, 3))

    def to_register(self, state: np.ndarray) -> np.ndarray:
        k, m, d = self.shape
        rho = np.zeros((2 ** self.n_qubits,) * 2, dtype=complex)
        rho[self.order[:, :, None], self.order[:, None, :]] = state.transpose(0, 2, 1, 3).reshape(-1, d, d)
        return rho

    def input_trace(self, state: np.ndarray) -> np.ndarray:
        """The trace over the input qubit of each class block, (classes, r, r)."""
        return state.take(self.trace_idx).sum(axis=0)

    def trace_index(self, traced) -> tuple[np.ndarray, np.ndarray]:
        """Gather for the partial trace of the register state over the
        register qubits ``traced``: offsets into the stored state and 0/1
        weights, both shape (2^t, r, r). Entry [b, i, j] is register entry
        (i, j) of the kept qubits with the traced bits b on both sides, of
        weight 0 where that entry lies outside every kept class block (the
        register state is zero there). Kept qubits stay in register order."""
        n, d = self.n_qubits, self.shape[2]
        traced = sorted(traced)
        keep = [q for q in range(n) if q not in traced]

        def place(qubits):  # register indices carrying each value's bits on ``qubits``
            vals = np.arange(2 ** len(qubits))
            out = np.zeros_like(vals)
            for i, q in enumerate(qubits):
                out |= ((vals >> (len(qubits) - 1 - i)) & 1) << (n - 1 - q)
            return out

        pos = self.position[place(traced)[:, None] | place(keep)]  # (2^t, r), -1 outside the classes
        row, col = pos[:, :, None], pos[:, None, :]
        inside = (row >= 0) & (row // d == col // d)
        return np.where(inside, self._offset(row, col), 0), inside.astype(float)

    @staticmethod
    def trace_out(state: np.ndarray, gather: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Partial trace of a stored state over a ``trace_index`` gather."""
        idx, weight = gather
        return (state.take(idx) * weight).sum(axis=0)

    def step(self, state: np.ndarray, s: float, trace: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        """One input step: inject, evolve v sub-steps, read out after each.

        The map is linear in ``state``, so it also steps the difference of two
        states; ``trace`` is the trace the stepped state must keep: 1 for a
        density matrix, 0 up to rounding for a difference of two.
        """
        k, m, d = self.shape
        c = self.classes
        rho = np.multiply.outer(_encode(s).ravel(), self.input_trace(state)).take(self.inject_idx)  # (c, d, d)

        sigma = (self.w_h @ rho.reshape(c, k, m, k, m)[self.cls, self.diag, :, self.diag, :] @ self.w).ravel()
        upper, lower = sigma[self.upper], sigma[self.lower].conj()
        skew = upper - lower  # sigma - sigma^dag on the upper triangles
        imag_bound = 0.5 * np.sqrt(self.tri_weight @ (skew.real ** 2 + skew.imag ** 2)) * self.row_norm
        if imag_bound > FEATURE_IMAG_ATOL:
            raise NumericalError(
                f"features may have an imaginary part up to {imag_bound:.3e} > {FEATURE_IMAG_ATOL:.1e}; "
                "state is corrupted"
            )
        z = self.obs_rows * (0.5 * (upper + lower))
        feats = np.empty((self.v, self.n_obs))
        span = self.phase_table.shape[1]
        for start in range(0, self.v, span):
            if start:
                z *= self.phase_shift
            stop = min(start + span, self.v)
            feats[start:stop] = (z.view(float) @ self.phase_table[:, : stop - start]).T

        half = (self.u @ rho.reshape(c, k, m, d)).reshape(c, d, k, m).transpose(0, 2, 1, 3)
        state = half @ self.u_h
        trace_err = abs(float(np.einsum("caapp->", state.reshape(c, k, k, m, m)).real) - trace)
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
    engine = _StepEngine(real, cfg, obs, rho.matrix != 0)
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
    if initial_state is None:
        initial_state = DensityMatrix.ground(real.params.n_qubits)
    elif initial_state.qubit_count != real.params.n_qubits:
        raise ValueError(
            f"initial state has {initial_state.qubit_count} qubits but the realization "
            f"has {real.params.n_qubits}"
        )
    engine = _StepEngine(real, cfg, obs, initial_state.matrix != 0)
    labels = feature_labels(obs, cfg.v)
    rows = np.ones((inputs.size, len(labels)))
    # A validated state is Hermitian only to 1e-10, too loose for the bound
    # ``step`` puts on the imaginary part of the features. Its Hermitian part
    # has the same features, and it is what is stepped; to_state(m.T).conj()
    # is the stored form of m^dag, gathered without a register-size copy.
    m = initial_state.matrix
    rho = (engine.to_state(m) + engine.to_state(m.T).conj()) / 2
    for k, s in enumerate(inputs):
        try:
            rho, feats = engine.step(rho, s)
        except (NumericalError, ValueError) as exc:
            raise NumericalError(f"trajectory failed at step {k}: {exc}") from exc
        rows[k, :-1] = feats
    return FeatureMatrix(values=rows, labels=labels), DensityMatrix(engine.to_register(rho))
