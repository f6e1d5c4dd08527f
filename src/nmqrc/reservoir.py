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
of the patterns of H, of the input-qubit flip and of the initial state.
Every term of the Hamiltonian keeps the Z-parity of the environment block
and the injection touches only a system qubit, so a state that starts
inside one environment-parity class stays there: from the ground state the
engine steps one class of half the register (a smaller one when alpha = 0,
where every environment Z is conserved; the whole register when there is no
environment). It keeps only the classes the initial state occupies and
steps them as one stack of blocks. Sectors: within a class, the connected
components of the pattern of H alone, on which H and its eigenvectors W are
block diagonal (k = 2 per class here, as H also keeps the system-block
parity). The Z_i / Z_i Z_j readout is diagonal, so it is block diagonal
over any split.

Before every input the input qubit is re-prepared in the pure state
psi_s = (sqrt(1-s), sqrt(s)), so the injected class block is P_s tau P_s^dag
with tau = Tr_q rho, a quarter of the block, and P_s = sqrt(1-s) P_0 +
sqrt(s) P_1 the d x r isometry (r = d/2) that puts psi_s on the input
qubit. tau is the state carried from one input to the next. Every
Hamiltonian ``build_hamiltonian`` makes is real (XX, Z and ZZ terms), so its
sector eigenvectors W are real, and so are the readout factors
G_b = W^dag P_b. At build time the engine stacks, for each input bit b,
G_b (split by sector) and the conjugate of A_b = U P_b, the evolution by
U = W E W^dag, E = exp(-i Lambda v dt), as evolution rows. A step mixes
each pair by the input's amplitudes into G_s and conj(A_s), then

* takes the readout rows Y = G_s tau;
* forms the diagonal sector blocks of sigma = W^dag rho W, as
  sigma^dag = G_s Y^dag sector by sector: a sub-step of length dt
  multiplies sigma elementwise by the phases exp(-i (lam_p - lam_q) dt).
  sigma and each observable's blocks are Hermitian, so entry (q, p) of a
  block is the conjugate of entry (p, q), and every node's readout is a
  real product of the node operand z, sigma + sigma^dag on the upper
  triangles of the blocks, with a precomputed table that folds in the
  observables and the phases of each node;
* takes the evolution rows U P_s tau = W (E o Y), gathered into evolution
  order, and carries tau' = Tr_q (U rho U^dag) = sum_b Y_b A_b^dag, with
  Y_b and A_b the evolution rows whose input bit is b.

The first three products are real times complex: the real factor multiplies
the complex operand read as interleaved reals, half the work of a complex
product, and only Y^dag is copied (to be contiguous). Only tau' takes a
complex product. A
complex H (a test's dense or Y-field Hamiltonian) has complex W and G_b, and
those three products stay complex.

Each step checks the Hermiticity the readout relies on and the trace of the
stepped state, and writes its node operand into a block buffer; the product
with the folded table then runs once for the whole block of inputs, so the
table is read once per block. No d x d class block is formed on the way.
The stepped state is Y A^dag over the evolution rows; ``run_trajectory``
builds the final register-order state from it once, and ``dual_trajectory``
traces the environment out of it.

This is exactly unitary conjugation by exp(-i H dt), just associated
differently. Structure that is not there joins the pieces instead of being
lost, so it costs speed, not correctness: an initial state with coherence
between classes (a dense one, say) or a term that flips an environment
qubit joins the classes, and kept classes or sectors of unequal size make
the engine treat them as one. With every class joined the engine steps the
whole register.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ConfigError, NumericalError
from .hamiltonian import HamiltonianRealization, _components, _sector_eig
from .linalg import DensityMatrix, _ground_matrix

OBSERVABLE_KINDS = ("z_only", "z_and_zz")
MULTIPLEX_MODES = ("per_node", "sub_step")

FEATURE_IMAG_ATOL = 1e-9
STEP_TRACE_ATOL = 1e-9

# The folded phase table holds as many nodes as fit in this many reals (two
# per upper-triangle entry of the k diagonal blocks and observable:
# n_obs d(m+1) per class and node), and at least one node; further nodes
# reuse it after a phase shift. About 2 MB: a 4+3 register at z_only takes
# 8,448 reals per node and class, so one class reads v = 10 nodes in one span
# (0.68 MB) and the two classes of the echo-state pair read v = 50 in 4 spans
# of 14 nodes (1.9 MB).
_BATCH_LIMIT = 250_000
# The node operands of a block of inputs, read out by one product with the
# phase table, take at most this many reals (2 per upper-triangle entry and
# input, a block buffer of inputs x entries complex), and a block holds at
# least one input. About 1 MB: 66 inputs of one 4+3 class (1,056 entries),
# 33 of the echo-state pair's two.
_BLOCK_LIMIT = 140_000


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


def _observables(n_sys: int, kind: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Labels and diagonals, shape (n_obs, 2^n_sys), of the Z_i observables on
    the system register, followed for ``z_and_zz`` by the Z_i Z_j (i < j)."""
    bits = (np.arange(2 ** n_sys) >> np.arange(n_sys - 1, -1, -1)[:, None]) & 1
    z = 1.0 - 2.0 * bits  # row i: the eigenvalues of Z_i, qubit 0 the most significant bit
    pairs = list(combinations(range(n_sys), 2)) if kind == "z_and_zz" else []
    labels = [f"Z{i}" for i in range(n_sys)] + [f"Z{i}Z{j}" for i, j in pairs]
    return tuple(labels), np.array([*z, *(z[i] * z[j] for i, j in pairs)])


def feature_labels(labels: tuple[str, ...], v: int) -> tuple[str, ...]:
    """Column labels: v1_<obs> ... v{V}_<obs>, then the trailing bias."""
    cols = [f"v{j + 1}_{lab}" for j in range(v) for lab in labels]
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


def _encode(s: float) -> tuple[float, float]:
    """The amplitudes (sqrt(1-s), sqrt(s)) of the pure input state
    sqrt(1-s)|0> + sqrt(s)|1>."""
    s = float(s)
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"input must lie in [0, 1], got {s}")
    return math.sqrt(1.0 - s), math.sqrt(s)


def _check_inputs(inputs) -> np.ndarray:
    """``inputs`` as a flat float array; every value (so no NaN) must lie in
    [0, 1], checked before any step."""
    inputs = np.asarray(inputs, dtype=float).ravel()
    if not np.all((inputs >= 0.0) & (inputs <= 1.0)):
        raise ValueError("inputs must lie in [0, 1]")
    return inputs


class _StepEngine:
    """Precomputed machinery for one (realization, config, support) triple.

    The register basis splits into classes that no step ever connects: the
    connected components of the patterns of H, of the input-qubit flip and
    of ``support``, the nonzero pattern of the initial state (all True for
    any state, which makes the whole register one class). A state with no
    entries outside its diagonal class blocks keeps none, so the engine
    keeps only the classes the support touches and steps each as a block of
    its own; within a class it splits into the sectors of H. The readout is
    the Z strings of ``cfg.observables``, ``labels`` in feature order.
    ``shape`` is (k sectors per class, m states per sector, d states per
    class) and ``classes`` the number of classes kept.

    The state carried between inputs is tau = Tr_q rho, the class blocks of
    the state with the input qubit q traced out: shape (classes, r, r),
    r = d/2, indexed by the rest of the basis index (its bits other than
    q) in ascending order. That is all a step needs, as the input qubit is
    re-prepared in a pure state first. Each class basis state is one
    evolution row: row 2a + b holds the state with rest a and input bit b
    (``rows`` gives its register index). ``to_state`` gathers tau from a
    register-order matrix. ``step`` writes the input's node operand,
    sigma + sigma^dag on the ``entries`` upper-triangle entries of the
    sector blocks, and ``features`` reads the v nodes of a whole block of
    those operands with one product per span of the folded phase table,
    whose columns hold the observables of each node. ``step`` also returns
    the stepped class blocks in factored form (Y, conj(A)), rho = Y A^dag
    with one evolution row each, and ``trace_out`` takes partial traces of
    that, the register-order state included.

    A real H gives real eigenvectors ``w`` and real readout factors, and
    three of the step's four products then take a real factor times the
    float view of a complex operand; a complex H keeps complex products.
    ``_product`` is the one place that tells the two apart.
    """

    def __init__(self, real: HamiltonianRealization, cfg: ReservoirConfig, support: np.ndarray):
        p = real.params
        if cfg.input_qubit >= p.n_sys:
            raise ConfigError(f"input qubit {cfg.input_qubit} is not a system qubit (n_sys={p.n_sys})")
        self.labels, signs = _observables(p.n_sys, cfg.observables)
        self.n_qubits = n = p.n_qubits
        self.v = cfg.v
        self.n_obs = len(self.labels)
        self.dt = cfg.tau * cfg.sub_dt_factor
        shift = n - 1 - cfg.input_qubit

        # Sectors are split on the pattern of H; the Z-string readout is
        # diagonal, so it joins none. Classes join sectors that the input-qubit
        # flip or the initial state connects. Kept classes of unequal size are
        # joined into one.
        pattern = real.h_full != 0
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
        c = int(np.count_nonzero(np.diff(label[members]))) + 1 if n_sectors > 1 else 1
        k, d = n_sectors // c, order.size // c
        self.shape = (k, m, d)
        self.classes = c

        # Eigenvectors W (real for a real H) and the step propagator
        # U = W E W^dag, E = exp(-i Lambda v dt), as stacks of c x k blocks.
        lam = eig.eigenvalues
        self.w = w = eig.eigenvectors.reshape(c, k, m, m)
        w_h = w.conj().swapaxes(-1, -2)
        self.evolve_phase = np.exp(-1j * self.v * self.dt * lam).reshape(c, k, m, 1)
        self.u = (w * self.evolve_phase.swapaxes(-1, -2)) @ w_h

        # Readout from the diagonal blocks of sigma = W^dag rho W. Each O_i is a
        # Z string, diagonal with signs s_i, so W^dag O_i is W^dag with its
        # columns scaled by s_i. With R_i the blocks of (W^dag O_i W)^T, the
        # feature at node j is the sum over all block entries of
        # R_i sigma exp(-i (lam_p - lam_q) j dt). R_i and sigma are Hermitian,
        # so that is the sum over the upper triangles p <= q of Re(z c_ij),
        # z = sigma + sigma^dag and c_ij = w R_i exp(-i (lam_p - lam_q) j dt),
        # w = 1/2 on the diagonal and 1 off it: z viewed as interleaved reals
        # (Re, Im) times the folded table of interleaved rows (Re c, -Im c),
        # one column per (node, observable). The table holds as many nodes as
        # fit under _BATCH_LIMIT reals; later nodes reuse it after a phase
        # shift of z by its whole span. It is built in Fortran order, each
        # column contiguous, which the product with a block of operands reads
        # fastest.
        p_idx, q_idx = np.triu_indices(m)
        base = np.arange(c * k)[:, None] * (m * m)  # offset of each block in sigma
        upper = (base + p_idx * m + q_idx).ravel()
        self.triangles = np.stack([upper, (base + q_idx * m + p_idx).ravel()])
        self.entries = upper.size
        diagonal = np.tile(p_idx == q_idx, c * k)
        # |Im feature| <= ||sigma - sigma^dag||_F / 2 * max_i ||R_i||_F: an
        # upper entry off the diagonal stands for two entries of
        # sigma - sigma^dag, and each weight is repeated for its two reals
        self.skew_weight = np.repeat(np.where(diagonal, 1.0, 2.0), 2)
        delta = (lam[:, p_idx] - lam[:, q_idx]).ravel()
        sign = signs[:, order >> p.n_env].reshape(self.n_obs, c, k, 1, m)
        rows = ((w_h * sign) @ w).swapaxes(-1, -2).reshape(self.n_obs, -1)
        self.row_norm = float(np.max(np.linalg.norm(rows, axis=1), initial=0.0))
        nodes = max(1, min(self.v, _BATCH_LIMIT // (2 * self.entries * self.n_obs)))
        # conj(c_ij), (node, obs, entry), read as reals is (Re c, -Im c)
        phases = np.exp(1j * self.dt * np.outer(np.arange(1, nodes + 1), delta))
        weighted = (rows[:, upper] * np.where(diagonal, 0.5, 1.0)).conj()
        table = np.multiply(phases[:, None, :], weighted, order="C")
        self.phase_table = table.reshape(nodes * self.n_obs, -1).view(float).T
        self.phase_shift = np.exp(-1j * nodes * self.dt * delta)

        # The injected class block is P_s tau P_s^dag, where P_s, d x r, puts
        # the input state on the input qubit: P_s = sqrt(1-s) P_0 + sqrt(s) P_1
        # and P_b maps rest a to the class basis state with rest a and input
        # bit b. Factor rows per input bit b, each (c, d, r): the conjugate of
        # U P_b as evolution rows, then the sector blocks of G_b = W^dag P_b,
        # real for a real W. Column a of W^dag P_b is the column of W^dag at
        # the state (a, b), in its sector's rows; column a of U P_b is the
        # column of U there, in that sector's evolution rows. ``gather`` takes
        # the rows of W (E o G_s tau), one per class basis state sector after
        # sector, into evolution order.
        r = d // 2
        reg = order.reshape(c, d)  # class basis, sector after sector
        rest = ((reg >> (shift + 1)) << shift) | (reg & ((1 << shift) - 1))
        bit = (reg >> shift) & 1
        rests = np.sort(rest, axis=1)[:, ::2]  # each rest of a class comes with both input bits
        rank = np.empty(p.dim // 2, dtype=int)
        rank[rests] = np.arange(r)
        a = rank[rest]
        row = 2 * a + bit  # evolution row of each class basis state
        cls = np.arange(c)[:, None]
        self.rows = np.empty_like(reg)
        self.rows[cls, row] = reg
        gather = np.empty_like(reg)
        gather[cls, row] = cls * d + np.arange(d)
        self.gather = gather.ravel()
        sector, at = np.arange(d) // m, np.arange(d) % m
        evolve = np.zeros((2, c, d, r), dtype=complex)
        readout = np.zeros((2, c, d, r), dtype=w.dtype)
        b, g, col = bit[..., None], cls[..., None], a[..., None]
        evolve[b, g, row.reshape(c, k, m)[cls, sector], col] = self.u[cls, sector, :, at].conj()
        readout[b, g, sector[:, None] * m + np.arange(m), col] = w_h[cls, sector, :, at]
        # (amplitudes) @ factors gives conj(A_s), then G_s, as reals
        self.factors = np.hstack([x.reshape(2, -1).view(float) for x in (evolve, readout)])
        self.split = 2 * evolve[0].size

    def to_state(self, rho: np.ndarray) -> np.ndarray:
        """tau of the register-order matrix ``rho``: the Hermitian part of the
        trace over the input qubit of each kept class block."""
        c, d = self.rows.shape
        idx = self.rows.reshape(c, d // 2, 2)
        tau = sum(rho[idx[:, :, b, None], idx[:, None, :, b]] for b in (0, 1))
        return (tau + tau.conj().swapaxes(-1, -2)) / 2

    def trace_index(self, traced) -> tuple[np.ndarray, np.ndarray, tuple[int, int]]:
        """Gather for the partial trace of a stepped state over the register
        qubits ``traced``. The groups are the (class, traced bits) pairs that
        hold an evolution row; the row with kept bits e (in register order) in
        group g fills slot e * groups + g. Returns the evolution row of each
        slot (counting the rows of all classes in turn), the slots no row
        fills, and (2^kept, groups)."""
        n = self.n_qubits
        traced = sorted(traced)
        keep = [q for q in range(n) if q not in traced]

        def bits(qubits):  # each row's register index read on ``qubits``
            out = np.zeros_like(self.rows)
            for q in qubits:
                out = (out << 1) | ((self.rows >> (n - 1 - q)) & 1)
            return out

        group = (np.arange(self.classes)[:, None] << len(traced)) | bits(traced)
        present = np.zeros(self.classes << len(traced), dtype=bool)
        present[group] = True
        rank = np.zeros(present.size, dtype=int)
        groups = np.flatnonzero(present)
        rank[groups] = np.arange(groups.size)
        slot = (bits(keep) * groups.size + rank[group]).ravel()
        gather = np.full((1 << len(keep)) * groups.size, -1)
        gather[slot] = np.arange(slot.size)
        empty = np.flatnonzero(gather < 0)
        gather[empty] = 0  # any row: trace_out zeroes these slots
        return gather, empty, (1 << len(keep), groups.size)

    @staticmethod
    def trace_out(stepped: tuple[np.ndarray, np.ndarray], index) -> np.ndarray:
        """Partial trace of a stepped state (Y, conj(A)), rho = Y A^dag, over a
        ``trace_index`` gather: the sum over groups g of Y_g A_g^dag."""
        gather, empty, (size, groups) = index
        y, a_conj = (x.reshape(-1, x.shape[-1]).take(gather, axis=0) for x in stepped)
        y[empty] = 0
        a_conj[empty] = 0
        return y.reshape(size, -1) @ a_conj.reshape(size, -1).T

    def step(self, tau: np.ndarray, s: float, z: np.ndarray,
             trace: float = 1.0) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """One input step: inject, evolve v sub-steps, and form the readout.

        Writes the node operand z, sigma + sigma^dag on the ``entries``
        upper-triangle entries of the sector blocks, from which ``features``
        reads the v nodes, and returns the next tau and the stepped class
        blocks as (Y, conj(A)), rho = Y A^dag, each (classes, d, r) over the
        evolution rows. The map is linear in ``tau``, so it also steps the
        difference of two states; ``trace`` is the trace the stepped state
        must keep: 1 for a density matrix, 0 up to rounding for a difference
        of two.
        """
        k, m, d = self.shape
        c, r = self.classes, d // 2
        f = np.array(_encode(s)) @ self.factors
        a_conj = f[:self.split].view(complex).reshape(c, d, r)
        g = f[self.split:].view(self.w.dtype).reshape(c, d, r)
        y = _product(g, tau).reshape(c, k, m, r)  # the readout rows G_s tau
        g = g.reshape(c, k, m, r)

        # sigma^dag = G_s Y^dag, sector by sector
        sigma_h = _product(g, np.conjugate(y.swapaxes(-1, -2), order="C")).ravel()
        upper, lower = sigma_h.take(self.triangles)
        np.conjugate(lower, out=lower)
        skew = (upper - lower).view(float)  # sigma^dag - sigma on the upper triangles
        imag_bound = 0.5 * math.sqrt(self.skew_weight @ (skew * skew)) * self.row_norm
        if not imag_bound <= FEATURE_IMAG_ATOL:  # NaN included
            raise NumericalError(
                f"features may have an imaginary part up to {imag_bound:.3e} > {FEATURE_IMAG_ATOL:.1e}; "
                "state is corrupted"
            )
        np.add(upper, lower, out=z)

        # U P_s tau = W (E o Y), gathered into evolution rows. Tr_q (Y A^dag):
        # rows 2a and 2a + 1 hold rest a, so each class's evolution rows read
        # as r x 2r make it one product. Its trace is Tr (Y A^dag), the sum of
        # Y times conj(A).
        y_ev = _product(self.w, y * self.evolve_phase).reshape(c * d, r).take(self.gather, axis=0)
        y_ev = y_ev.reshape(c, d, r)
        trace_err = abs(np.dot(y_ev.ravel(), a_conj.ravel()).real - trace)
        if not trace_err <= STEP_TRACE_ATOL:
            raise NumericalError(f"state trace drifted by {trace_err:.3e} > {STEP_TRACE_ATOL:.1e}")
        tau = y_ev.reshape(c, r, 2 * r) @ a_conj.reshape(c, r, 2 * r).swapaxes(-1, -2)
        return tau, (y_ev, a_conj)

    def features(self, z: np.ndarray) -> np.ndarray:
        """Feature rows, (b, v x n_obs) node-major, of a block of b node
        operands z, (b, entries): one product with the folded table per span
        of nodes it holds. Later spans shift the phases of z in place."""
        out = np.empty((z.shape[0], self.v * self.n_obs))
        z_real = z.view(float)
        span = self.phase_table.shape[1]
        for start in range(0, out.shape[1], span):
            if start:
                z *= self.phase_shift
            stop = min(start + span, out.shape[1])
            out[:, start:stop] = z_real @ self.phase_table[:, : stop - start]
        return out


def _product(f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """f @ x for a complex x, with x's last axis contiguous. A real f (that
    of a real Hamiltonian) multiplies the float view of x: half the work of
    a complex product."""
    if f.dtype.kind == "c":
        return f @ x
    return (f @ x.view(float)).view(complex)


def _block_inputs(entries: int) -> int:
    """Inputs per block: as many node operands, ``entries`` complex each, as
    fit under _BLOCK_LIMIT reals, and at least one."""
    return max(1, _BLOCK_LIMIT // (2 * entries))


def _step_inputs(engine: _StepEngine, tau: np.ndarray, inputs: np.ndarray, rows: np.ndarray,
                 trace: float = 1.0, what: str = "trajectory", visit=None):
    """Step ``inputs`` from ``tau`` and write each input's features to its row
    of ``rows``, reading them out once per block of inputs.

    ``visit(tau, stepped)``, when given, sees every input's carried state
    before its step and the stepped state after it. Returns the last stepped
    state. Every step runs its checks at once, and an error of a step or of
    ``visit`` is raised with its step index.
    """
    block = _block_inputs(engine.entries)
    z = np.empty((min(block, inputs.size), engine.entries), dtype=complex)
    stepped = None
    for start in range(0, inputs.size, block):
        chunk = inputs[start:start + block]
        for i, s in enumerate(chunk):
            try:
                carried, stepped = engine.step(tau, s, z[i], trace)
                if visit is not None:
                    visit(tau, stepped)
            except (NumericalError, ValueError) as exc:
                raise NumericalError(f"{what} failed at step {start + i}: {exc}") from exc
            tau = carried
        rows[start:start + chunk.size] = engine.features(z[:chunk.size])
    return stepped


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
    inputs = _check_inputs(inputs)
    if initial_state is None:
        rho0 = _ground_matrix(real.params.n_qubits)
    elif initial_state.qubit_count != real.params.n_qubits:
        raise ValueError(
            f"initial state has {initial_state.qubit_count} qubits but the realization "
            f"has {real.params.n_qubits}"
        )
    else:
        rho0 = initial_state.matrix
    engine = _StepEngine(real, cfg, rho0 != 0)
    labels = feature_labels(engine.labels, cfg.v)
    rows = np.ones((inputs.size, len(labels)))
    # A validated state is Hermitian only to 1e-10, too loose for the bound
    # ``step`` puts on the imaginary part of the features. Its Hermitian part
    # has the same features, and ``to_state`` takes it.
    stepped = _step_inputs(engine, engine.to_state(rho0), inputs, rows[:, :-1])
    if inputs.size:
        final = DensityMatrix(engine.trace_out(stepped, engine.trace_index(())))
    else:
        final = DensityMatrix(rho0) if initial_state is None else initial_state
    return FeatureMatrix(values=rows, labels=labels), final
