"""Input-driven reservoir evolution and time-multiplexed feature extraction.

Each input step replaces the state of the input qubit (system site 0, the
most significant bit of a basis index) with a pure state encoding the
scalar input, then evolves the full register unitarily through ``v`` equal
sub-steps, reading out system observables after each one. Two multiplexing conventions are supported:

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
psi_s = (sqrt(1-s), sqrt(s)), so the injected class block is
rho_in = P_s tau P_s^dag with tau = Tr_q rho, a quarter of the block, and
P_s = sqrt(1-s) P_0 + sqrt(s) P_1 the d x r isometry (r = d/2) that puts
psi_s on the input qubit. tau is the state carried from one input to the
next. A realization holds a real H (XX, Z and ZZ terms), so its sector
eigenvectors W are real. At build time the engine stacks, for each input
bit b, A_b = U P_b, the evolution by U = W E W^T, E = exp(-i Lambda v dt),
as evolution rows (their conjugates, in the eigenbasis). A step mixes the
stored pair by the input's amplitudes into A_s or its conjugate, takes the
evolution rows Y = U P_s tau and carries
tau' = Tr_q (U rho U^dag) = sum_b Y_b A_b^dag, with Y_b and A_b the
evolution rows whose input bit is b.

The v nodes are read in one of two bases, chosen at build time:

* The class basis, when a table of every node and observable fits
  _BATCH_LIMIT. Node j reads Tr(O_i(t_j) rho_in), with O_i(t) =
  U_t^dag O_i U_t the Heisenberg-evolved observable, block diagonal over
  the sectors. rho_in's entry at the class states (a, b), (a', b') is
  c_b c_b' tau[a, a'] for the amplitudes c = (sqrt(1-s), sqrt(s)), so a
  feature is a real product of tau's entries on the upper triangles of the
  sector blocks, each run of them scaled by its coefficient, with a table
  of O_i(t_j) on those entries. The engine stores A_b itself, not its
  conjugate; the step mixes A_s from it, takes Y = A_s tau and tau', two
  complex products, and records tau; no eigenbasis operand is formed.
* The eigenbasis otherwise, as for the echo-state pair's 50 nodes. The
  engine also stacks the real readout factors G_b = W^T P_b, and a step
  takes the readout rows G_s tau, forms the diagonal sector blocks of
  sigma = W^T rho_in W, as sigma^dag = G_s (G_s tau)^dag sector by sector,
  and the evolution rows as W (E o G_s tau), gathered into evolution order.
  A sub-step of length dt multiplies sigma elementwise by the phases
  exp(-i (lam_p - lam_q) dt), and every node's readout is a real product of
  the node operand sigma + sigma^dag on the upper triangles of the blocks
  with a table that folds in the observables and the phases of the nodes
  it holds; later nodes reuse it after a phase shift. Three of its four
  products are real times complex: the real factor multiplies the complex
  operand read as interleaved reals, half the work of a complex product.

The class basis needs a table of every node: for the echo-state pair at
v = 50 it is 3.6 times the folded table and several times slower to build,
and at the 12-qubit cap one node of it is already over the limit. Both
read the sector-diagonal entries of a Hermitian state against Hermitian
observables, so in both entry (q, p) of a block is the conjugate of entry
(p, q) and the readout runs over the upper triangles only.

Each step checks the trace of the stepped state and writes its readout
record, the node operand or tau, into a block buffer; the product with the
table then runs once for the whole block of inputs, so the table is read
once per block. The Hermiticity the readout relies on is checked by a bound
on the imaginary part of every feature: in the eigenbasis step, and in the
class basis once per block, before any row of the block is written. No
d x d class block is formed on the way. The stepped state is Y A^dag over
the evolution rows; ``run_trajectory`` builds the final register-order
state from it once, and ``dual_trajectory`` traces the environment out of
it.

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

from .errors import ConfigError, NumericalError, check_int
from .hamiltonian import HamiltonianRealization, _components, _sector_eig
from .linalg import DensityMatrix, _ground_matrix

OBSERVABLE_KINDS = ("z_only", "z_and_zz")
MULTIPLEX_MODES = ("per_node", "sub_step")

FEATURE_IMAG_ATOL = 1e-9
STEP_TRACE_ATOL = 1e-9

# The readout table takes at most this many reals, two per upper-triangle
# entry of the k diagonal blocks (d(m+1)/2 per class), node and observable,
# and at least one node's worth. An engine whose table of all v nodes fits
# reads in the class basis; otherwise it reads in the eigenbasis, whose
# folded phase table holds as many nodes as fit, and further nodes reuse it
# after a phase shift. About 2 MB: a 4+3 register at z_only takes 8,448
# reals per node and class, so one class at v = 10 (stm-serial) takes a
# class-basis table of 0.68 MB, and the 5-qubit narma-readout engine (272
# entries, 15 observables, v = 20) one of 1.3 MB; the two classes of the
# echo-state pair at v = 50 read in the eigenbasis, in 4 spans of 14 nodes
# (1.9 MB).
_BATCH_LIMIT = 250_000
# The readout of a block of inputs, one product with the table, holds at
# most this many reals, and a block holds at least one input. In the
# eigenbasis that is the block buffer of node operands, inputs x entries
# complex; in the class basis the two gathers of tau, upper and lower, each
# inputs x entries complex. About 1 MB: in the eigenbasis 66 inputs of one
# 4+3 class (1,056 entries), 33 of the echo-state pair's two; in the class
# basis 33 inputs of one 4+3 class and 128 of the 5-qubit engine.
_BLOCK_LIMIT = 140_000


@dataclass(frozen=True)
class ReservoirConfig:
    """Per-input evolution time, multiplexing depth and observable choice."""

    tau: float
    v: int
    observables: str = "z_only"
    multiplex: str = "per_node"

    def __post_init__(self):
        if isinstance(self.tau, bool) or not isinstance(self.tau, (int, float, np.integer, np.floating)):
            raise ConfigError(f"tau must be a real number, got {self.tau!r}")
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise ConfigError(f"tau must be finite and > 0, got {self.tau}")
        object.__setattr__(self, "v", check_int("v", self.v))
        if self.v < 1:
            raise ConfigError(f"virtual-node count v must be >= 1, got {self.v}")
        if self.observables not in OBSERVABLE_KINDS:
            raise ConfigError(f"observables must be one of {OBSERVABLE_KINDS}, got {self.observables!r}")
        if self.multiplex not in MULTIPLEX_MODES:
            raise ConfigError(f"multiplex must be one of {MULTIPLEX_MODES}, got {self.multiplex!r}")

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
            # max and min, not max(|x|): no full-size temporary of |x|
            body, bound = vals[:, :-1], 1.0 + 1e-9
            if np.max(body, initial=0.0) > bound or np.min(body, initial=0.0) < -bound:
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
    register-order matrix. ``step`` writes the input's readout record into
    a row of a block buffer (``record`` is its shape), and ``features``
    reads the v nodes of a whole block of them with one product per span of
    the table, whose columns hold the observables of each node. ``basis``
    names the readout basis. In the eigenbasis the record is the node
    operand, sigma + sigma^dag on the ``entries`` upper-triangle entries of
    the sector blocks, and the folded ``phase_table`` holds the nodes that
    fit. In the class basis the record is tau itself, and
    ``observable_table`` holds the Heisenberg-evolved observables of every
    node on the same entries in the class basis, read against the gathered
    entries of tau. ``step`` also returns the stepped class blocks in
    factored form (Y, conj(A)), rho = Y A^dag with one evolution row each,
    and ``trace_out`` takes partial traces of that, the register-order
    state included.

    H is real, so the eigenvectors ``w`` are real. In the eigenbasis so are
    the readout factors, and three of the step's four products take a real
    factor times the float view of a complex operand (``_product``); the
    class-basis step is two complex products.
    """

    def __init__(self, real: HamiltonianRealization, cfg: ReservoirConfig, support: np.ndarray):
        p = real.params
        self.labels, signs = _observables(p.n_sys, cfg.observables)
        self.n_qubits = n = p.n_qubits
        self.v = cfg.v
        self.n_obs = len(self.labels)
        self.dt = cfg.tau * cfg.sub_dt_factor
        half = p.dim // 2  # the input qubit, 0, is the most significant bit

        # Sectors are split on the pattern of H; the Z-string readout is
        # diagonal, so it joins none. Classes join sectors that the input-qubit
        # flip or the initial state connects. Kept classes of unequal size are
        # joined into one.
        pattern = real.h_full != 0
        basis = np.arange(p.dim)
        linked = pattern | support
        linked[basis, basis ^ half] = True
        label = _components(linked)  # each class is labeled by a basis index
        touched = np.zeros(p.dim, dtype=bool)
        touched[label[np.any(support, axis=1)]] = True
        occupied = touched[label]
        sizes = np.unique(label[occupied], return_counts=True)[1]
        if sizes.min() != sizes.max():
            label = np.zeros_like(label)
        label = np.where(occupied, label, -1)
        members = np.argsort(label, kind="stable")[np.count_nonzero(label < 0):]  # class after class
        order, lam, w = _sector_eig(real.h_full, pattern, members)
        n_sectors, m = lam.shape
        # Sectors of unequal size come back as one, which may span classes.
        # Members are sorted by class, so each change of label starts one.
        c = int(np.count_nonzero(np.diff(label[members]))) + 1 if n_sectors > 1 else 1
        k, d = n_sectors // c, order.size // c
        self.shape = (k, m, d)
        self.classes = c

        # Real eigenvectors W and the step propagator U = W E W^T,
        # E = exp(-i Lambda v dt), as stacks of c x k blocks.
        self.w = w = w.reshape(c, k, m, m)
        w_h = w.swapaxes(-1, -2)
        self.evolve_phase = np.exp(-1j * self.v * self.dt * lam).reshape(c, k, m, 1)
        self.u = (w * self.evolve_phase.swapaxes(-1, -2)) @ w_h

        # The upper triangles p <= q of the k diagonal blocks of each class,
        # entry (block, p, q) at offset block m^2 + p m + q, which both bases
        # read. |Im feature| <= ||K||_F / 2 * max_i ||O_i||_F for the
        # anti-Hermitian part K of the state read and the observable blocks
        # O_i: an upper entry off the diagonal stands for two entries of K,
        # and each weight is repeated for its two reals.
        p_idx, q_idx = np.triu_indices(m)
        base = np.arange(c * k)[:, None] * (m * m)  # offset of each block
        upper = (base + p_idx * m + q_idx).ravel()
        self.entries = upper.size
        diagonal = np.tile(p_idx == q_idx, c * k)
        self.skew_weight = np.repeat(np.where(diagonal, 1.0, 2.0), 2)
        sign = signs[:, order >> p.n_env].reshape(self.n_obs, c, k, m)
        # A table of every node and observable in the class basis costs
        # 2 entries v n_obs reals; within _BATCH_LIMIT the engine reads there.
        self.basis = "class" if 2 * self.entries * self.v * self.n_obs <= _BATCH_LIMIT else "eigen"

        # The injected class block is P_s tau P_s^dag, where P_s, d x r, puts
        # the input state on the input qubit: P_s = sqrt(1-s) P_0 + sqrt(s) P_1
        # and P_b maps rest a to the class basis state with rest a and input
        # bit b. Column a of U P_b is the column of U at the state (a, b), in
        # its sector's evolution rows.
        r = d // 2
        reg = order.reshape(c, d)  # class basis, sector after sector
        rest, bit = reg & (half - 1), reg >> (n - 1)
        rests = np.sort(rest, axis=1)[:, ::2]  # each rest of a class comes with both input bits
        rank = np.empty(half, dtype=int)
        rank[rests] = np.arange(r)
        a = rank[rest]
        row = 2 * a + bit  # evolution row of each class basis state
        cls = np.arange(c)[:, None]
        self.rows = np.empty_like(reg)
        self.rows[cls, row] = reg
        sector, at = np.arange(d) // m, np.arange(d) % m
        evolve = np.zeros((2, c, d, r), dtype=complex)
        b, g, col = bit[..., None], cls[..., None], a[..., None]
        evolve[b, g, row.reshape(c, k, m)[cls, sector], col] = self.u[cls, sector, :, at].conj()
        self.split = 2 * evolve[0].size
        # The row ``step`` writes per input, and the complex values per input
        # that a block's readout holds at once: the class basis gathers two
        # entries from each carried tau.
        self.record = (c, r, r) if self.basis == "class" else (self.entries,)
        self.block_width = 2 * self.entries if self.basis == "class" else self.entries
        if self.basis == "class":
            self._build_class_readout(lam, w, w_h, sign, p_idx, q_idx, diagonal, a, bit, evolve)
            return

        # Readout from the diagonal blocks of sigma = W^T rho W. Each O_i is a
        # Z string, diagonal with signs s_i, so W^T O_i is W^T with its
        # columns scaled by s_i. With R_i the blocks of (W^T O_i W)^T, the
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
        self.triangles = np.stack([upper, (base + q_idx * m + p_idx).ravel()])
        delta = (lam[:, p_idx] - lam[:, q_idx]).ravel()
        rows = ((w_h * sign[..., None, :]) @ w).swapaxes(-1, -2).reshape(self.n_obs, -1)
        self.row_norm = float(np.max(np.linalg.norm(rows, axis=1), initial=0.0))
        nodes = max(1, min(self.v, _BATCH_LIMIT // (2 * self.entries * self.n_obs)))
        # conj(c_ij), (node, obs, entry), read as reals is (Re c, -Im c)
        phases = np.exp(1j * self.dt * np.outer(np.arange(1, nodes + 1), delta))
        weighted = rows[:, upper] * np.where(diagonal, 0.5, 1.0)
        table = np.multiply(phases[:, None, :], weighted, order="C")
        self.phase_table = table.reshape(nodes * self.n_obs, -1).view(float).T
        self.phase_shift = np.exp(-1j * nodes * self.dt * delta)

        # Factor rows per input bit b, each (c, d, r): the conjugate of U P_b
        # as evolution rows, then the sector blocks of the real G_b = W^T P_b.
        # Column a of W^T P_b is the column of W^T at the state (a, b), in its
        # sector's rows. ``gather`` takes the rows of W (E o G_s tau), one per
        # class basis state sector after sector, into evolution order.
        gather = np.empty_like(reg)
        gather[cls, row] = cls * d + np.arange(d)
        self.gather = gather.ravel()
        readout = np.zeros((2, c, d, r))
        readout[b, g, sector[:, None] * m + np.arange(m), col] = w_h[cls, sector, :, at]
        # (amplitudes) @ factors gives conj(A_s), then G_s, as reals
        self.factors = np.hstack([x.reshape(2, -1).view(float) for x in (evolve, readout)])

    def _build_class_readout(self, lam, w, w_h, sign, p_idx, q_idx, diagonal, a, bit, evolve):
        """The class-basis readout: node j reads Tr(O_i(t_j) rho_in), the
        Heisenberg-evolved observable O_i(t) = U_t^dag O_i U_t, t_j = j dt,
        against the injected class block rho_in = P_s tau P_s^dag.

        O_i(t) is block diagonal over the sectors, and it and rho_in are
        Hermitian, so a feature is the sum over the upper triangles x <= y of
        the sector blocks of Re(conj(O_i(t)[x, y]) z), z = rho_in[x, y] +
        conj(rho_in[y, x]), weighted 1/2 on the diagonal: z viewed as
        interleaved reals (Re, Im) times a table of rows (Re O, Im O), one
        column per (node, observable). rho_in[x, y] = c_bx c_by tau[a_x, a_y]
        for the states x = (a_x, bx), y = (a_y, by) and the input amplitudes
        c = (sqrt(1-s), sqrt(s)), so ``pairs`` gathers tau[a_x, a_y] and
        tau[a_y, a_x] for each entry. The entries are sorted by bx + by, and
        ``runs`` bounds the three runs whose coefficient is c_0^2, c_0 c_1
        and c_1^2.

        The table is built node by node. U_t = W e^{-i Lambda t} W^T comes
        from the per-eigenvalue phasors e^{-i lam t}, and the upper entries
        of O_i(t) = U_t^dag S_i U_t, S_i the signs of the Z string, are the
        products conj(U_t[z, x]) U_t[z, y] of two columns of U_t summed
        against the signs, for every observable in one real product."""
        k, m, d = self.shape
        c, r = self.classes, d // 2
        n = self.n_obs
        # ||O_i(t)||_F over the sector blocks is ||S_i||_F = sqrt(c d) for every
        # node: the blocks of U_t are unitary and S_i is a diagonal of signs.
        self.row_norm = math.sqrt(c * d)
        x = (np.arange(c * k)[:, None] * m + p_idx).ravel()  # class state of each entry's row
        y = (np.arange(c * k)[:, None] * m + q_idx).ravel()  # and of its column
        kind = bit.ravel()[x] + bit.ravel()[y]
        order = np.argsort(kind, kind="stable")
        self.runs = np.searchsorted(kind[order], [0, 1, 2, 3])
        x, y = x[order], y[order]
        cls, a = x // d, a.ravel()
        self.pairs = np.stack([(cls * r + a[x]) * r + a[y], (cls * r + a[y]) * r + a[x]])
        self.skew_weight = self.skew_weight.reshape(-1, 2)[order].ravel()
        weight = np.where(diagonal, 0.5, 1.0)[order]
        signs = sign.transpose(1, 2, 0, 3)  # (c, k, n_obs, m)
        table = np.empty((self.v * n, self.entries), dtype=complex)
        # per-node buffers, reused: fresh ones would fault in every page again
        cols_x, cols_y = np.empty((2, c, k, m, p_idx.size), dtype=complex)
        for j in range(self.v):
            phasor = np.exp(-1j * (j + 1) * self.dt * lam).reshape(c, k, m, 1)
            u_t = _product(w, np.multiply(phasor, w_h, order="C"))
            np.take(u_t, p_idx, axis=-1, out=cols_x, mode="clip")
            np.take(u_t, q_idx, axis=-1, out=cols_y, mode="clip")
            np.conjugate(cols_x, out=cols_x)
            cols_x *= cols_y  # conj(U_t[z, x]) U_t[z, y], (c, k, z, entry)
            heisenberg = _product(signs, cols_x).transpose(2, 0, 1, 3).reshape(n, -1)
            rows = table[j * n:(j + 1) * n]
            np.take(heisenberg, order, axis=1, out=rows, mode="clip")
            rows *= weight
        self.observable_table = table.view(float).T  # Fortran order, each column contiguous
        self._buffers = None
        # (amplitudes) @ factors gives A_s as reals, mixed into a buffer kept
        # from step to step
        self.factors = evolve.conj().reshape(2, -1).view(float)
        self._mix = np.empty(self.factors.shape[1])

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
        """One input step: inject, evolve v sub-steps, and record the readout.

        Writes the input's row z of a block buffer, from which ``features``
        reads the v nodes: in the eigenbasis the node operand sigma +
        sigma^dag on the ``entries`` upper-triangle entries of the sector
        blocks, in the class basis tau itself. Returns the next tau and the
        stepped class blocks as (Y, conj(A)), rho = Y A^dag, each
        (classes, d, r) over the evolution rows. The map is linear in
        ``tau``, so it also steps the difference of two states; ``trace`` is
        the trace the stepped state must keep: 1 for a density matrix, 0 up
        to rounding for a difference of two.
        """
        if self.basis == "class":
            return self._class_step(tau, s, z, trace)
        k, m, d = self.shape
        c, r = self.classes, d // 2
        f = np.array(_encode(s)) @ self.factors
        a_conj = f[:self.split].view(complex).reshape(c, d, r)
        g = f[self.split:].reshape(c, d, r)
        y = _product(g, tau).reshape(c, k, m, r)  # the readout rows G_s tau
        g = g.reshape(c, k, m, r)

        # sigma^dag = G_s Y^dag, sector by sector
        sigma_h = _product(g, np.conjugate(y.swapaxes(-1, -2), order="C")).ravel()
        upper, lower = sigma_h.take(self.triangles)
        np.conjugate(lower, out=lower)
        skew = (upper - lower).view(float)  # sigma^dag - sigma on the upper triangles
        imag_bound = 0.5 * math.sqrt(self.skew_weight @ (skew * skew)) * self.row_norm
        if not imag_bound <= FEATURE_IMAG_ATOL:  # NaN included
            raise _ReadoutError(0, imag_bound)
        np.add(upper, lower, out=z)

        # U P_s tau = W (E o Y), gathered into evolution rows.
        y_ev = _product(self.w, y * self.evolve_phase).reshape(c * d, r).take(self.gather, axis=0)
        return self._carry(y_ev.reshape(c, d, r), a_conj, trace, np.dot(y_ev.ravel(), a_conj.ravel()))

    def _class_step(self, tau, s, z, trace):
        """``step`` in the class basis: z is tau, and the evolution rows are
        U P_s tau = A_s tau, one complex product. A_s is mixed from the
        stored A_b and conjugated once."""
        z[...] = tau
        d = self.shape[2]
        c, r = self.classes, d // 2
        a = np.matmul(_encode(s), self.factors, out=self._mix).view(complex).reshape(c, d, r)
        y = a @ tau
        return self._carry(y, np.conjugate(a), trace, np.vdot(a, y))

    def _carry(self, y, a_conj, trace, stepped_trace):
        """The next tau, Tr_q (Y A^dag), and the stepped state (Y, conj(A)),
        after checking that its trace ``stepped_trace``, Tr (Y A^dag), the
        sum of Y times conj(A), is ``trace``. Rows 2a and 2a + 1 hold rest a,
        so each class's evolution rows read as r x 2r make Tr_q one
        product."""
        c, d, r = y.shape
        trace_err = abs(stepped_trace.real - trace)
        if not trace_err <= STEP_TRACE_ATOL:
            raise NumericalError(f"state trace drifted by {trace_err:.3e} > {STEP_TRACE_ATOL:.1e}")
        tau = y.reshape(c, r, d) @ a_conj.reshape(c, r, d).swapaxes(-1, -2)
        return tau, (y, a_conj)

    def features(self, z: np.ndarray, inputs: np.ndarray, out: np.ndarray) -> None:
        """Write the feature rows, (b, v x n_obs) node-major, of a block of b
        rows z that ``step`` wrote for ``inputs`` to ``out``.

        Eigenbasis: one product of the operands with the folded table per
        span of nodes it holds; later spans shift the phases of z in place.
        Class basis: the Hermiticity check of every input, which raises
        ``_ReadoutError`` naming the first failing row before ``out`` is
        written, then the operands and one product with the table of every
        node."""
        if self.basis == "class":
            self._class_features(z, inputs, out)
            return
        z_real = z.view(float)
        span = self.phase_table.shape[1]
        for start in range(0, out.shape[1], span):
            if start:
                z *= self.phase_shift
            stop = min(start + span, out.shape[1])
            out[:, start:stop] = z_real @ self.phase_table[:, : stop - start]

    def _class_features(self, z, inputs, out):
        """``features`` in the class basis, from a block of carried states z.

        Takes tau[a_x, a_y] + conj(tau[a_y, a_x]) on every upper entry,
        after the same bound on the imaginary part of each input's features
        as the eigenbasis step's, with the skew part of rho_in in place of
        sigma's, then scales each run of entries by its coefficient c_bx c_by
        and takes one product with the table. The gathers are taken into
        buffers kept from block to block: a fresh array of this size costs
        the kernel a page fault per page."""
        b = len(z)
        if self._buffers is None or self._buffers.shape[1] < b:
            self._buffers = np.empty((3, b, self.entries), dtype=complex)
        upper, lower, skew = self._buffers[:, :b]
        flat = z.reshape(b, -1)
        # the indices are in range; a mode other than "raise" takes straight into out
        np.take(flat, self.pairs[0], axis=1, out=upper, mode="clip")
        np.take(flat, self.pairs[1], axis=1, out=lower, mode="clip")
        np.conjugate(lower, out=lower)
        np.subtract(upper, lower, out=skew)
        square = skew.view(float)
        square *= square
        upper += lower
        c0, c1 = np.sqrt(1.0 - inputs), np.sqrt(inputs)
        runs = list(zip((c0 * c0, c0 * c1, c1 * c1), self.runs[:-1], self.runs[1:]))
        bound = sum(coef * coef * (square[:, 2 * lo:2 * hi] @ self.skew_weight[2 * lo:2 * hi])
                    for coef, lo, hi in runs)
        bound = 0.5 * np.sqrt(bound) * self.row_norm
        failed = np.flatnonzero(~(bound <= FEATURE_IMAG_ATOL))  # NaN included
        if failed.size:
            raise _ReadoutError(int(failed[0]), bound[failed[0]])
        for coef, lo, hi in runs:
            upper[:, lo:hi] *= coef[:, None]
        np.matmul(upper.view(float), self.observable_table, out=out)


class _ReadoutError(NumericalError):
    """Features that may have an imaginary part; ``row`` is the failing
    input's row in its block."""

    def __init__(self, row: int, bound: float):
        super().__init__(f"features may have an imaginary part up to {bound:.3e} > {FEATURE_IMAG_ATOL:.1e}; "
                         "state is corrupted")
        self.row = row


def _product(f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """f @ x for a real f and a complex x, with x's last axis contiguous: f
    times the float view of x, half the work of a complex product."""
    return (f @ x.view(float)).view(complex)


def _block_inputs(entries: int) -> int:
    """Inputs per block: as many inputs, ``entries`` complex each, as fit
    under _BLOCK_LIMIT reals, and at least one."""
    return max(1, _BLOCK_LIMIT // (2 * entries))


def _step_inputs(engine: _StepEngine, tau: np.ndarray, inputs: np.ndarray, rows: np.ndarray,
                 trace: float = 1.0, what: str = "trajectory", visit=None):
    """Step ``inputs`` from ``tau`` and write each input's features to its row
    of ``rows``, reading them out once per block of inputs.

    ``visit(tau, stepped)``, when given, sees every input's carried state
    before its step and the stepped state after it. Returns the last stepped
    state. Every step checks its trace at once. The Hermiticity check of the
    readout runs in the eigenbasis step, and in the class basis once per
    block, for every input of the block before its row is written; when a
    step or ``visit`` fails, the check first runs for the inputs of the
    block so far, so the error raised is the first in step order either
    way, with its step index.
    """
    block = _block_inputs(engine.block_width)
    z = np.empty((min(block, inputs.size), *engine.record), dtype=complex)
    stepped = None

    def read(start, chunk):
        """Write the features of ``chunk``, the inputs from step ``start`` on."""
        try:
            engine.features(z[:chunk.size], chunk, rows[start:start + chunk.size])
        except _ReadoutError as exc:
            raise NumericalError(f"{what} failed at step {start + exc.row}: {exc}") from exc

    for start in range(0, inputs.size, block):
        chunk = inputs[start:start + block]
        for i, s in enumerate(chunk):
            try:
                carried, stepped = engine.step(tau, s, z[i], trace)
                if visit is not None:
                    visit(tau, stepped)
            except (NumericalError, ValueError) as exc:
                if engine.basis == "class":
                    read(start, chunk[:i + 1])
                raise NumericalError(f"{what} failed at step {start + i}: {exc}") from exc
            tau = carried
        read(start, chunk)
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
