"""Dense linear algebra for small qubit registers.

Conventions shared by the whole package:

* Qubit 0 is the most significant bit of a basis index, so a register of
  ``n`` qubits lives on C^(2^n) with product basis |b0 b1 ... b_{n-1}>.
* Operators and states are dense ndarrays: states ``complex128``, the
  real Hamiltonian, its sector eigenvectors and the readout design (with
  its pseudoinverse) ``float64``.
* Registers are capped at ``MAX_QUBITS`` qubits. Everything here targets
  exact desk-scale simulation with dense storage, nothing larger.
* ``DensityMatrix`` checks positivity per connected block of the matrix's
  nonzero pattern: the smallest eigenvalue over the blocks is that of the
  whole matrix, and a state confined to one class of a register takes an
  eigenvalue call on that class alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

from .errors import NumericalError, check_int

MAX_QUBITS = 12

HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-9
EIGENVALUE_ATOL = 1e-9
DEFAULT_RCOND = 1e-12


def _as_matrix(a, what: str = "matrix", dtype=complex) -> np.ndarray:
    a = np.asarray(a, dtype=dtype)
    if a.ndim != 2:
        raise ValueError(f"{what} must be 2-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} contains non-finite entries")
    return a


def _frozen(a, dtype=float) -> np.ndarray:
    """A read-only C-ordered copy of ``a``: the array a value type keeps, so
    the caller's array cannot change it later."""
    a = np.array(a, dtype=dtype, order="C")
    a.flags.writeable = False
    return a


def _replay(value):
    """``__reduce__`` of a frozen dataclass: unpickling re-runs the
    constructor on the fields, which checks them again and freezes the
    arrays that pickle brings back writable."""
    return type(value), tuple(getattr(value, f.name) for f in fields(value))


def qubit_count(dim: int) -> int:
    """Number of qubits for a register of dimension ``dim`` (a power of two)."""
    n = int(dim).bit_length() - 1
    if dim < 2 or 2 ** n != dim:
        raise ValueError(f"dimension {dim} is not a power of two >= 2")
    if n > MAX_QUBITS:
        raise ValueError(f"register of {n} qubits exceeds the {MAX_QUBITS}-qubit cap")
    return n


def _hermitian_skew(a: np.ndarray, what: str) -> np.ndarray:
    """A - A^dag of one matrix or a stack (..., n, n), after checking that
    every entry is finite and max |A - A^dag| <= HERMITICITY_ATOL. One pass
    serves both: an entry of A that is not finite leaves one of A - A^dag
    that is not, at the entry or its transpose. An inf facing an inf of the
    same sign gives NaN there, without numpy's warning."""
    with np.errstate(invalid="ignore"):
        skew = a - a.conj().swapaxes(-1, -2)
    err = float(np.abs(skew).max()) if a.size else 0.0
    if not math.isfinite(err):
        raise ValueError(f"{what} contains non-finite entries")
    if not err <= HERMITICITY_ATOL:
        raise ValueError(f"{what} is not Hermitian: max |A - A^dag| = {err:.3e} > {HERMITICITY_ATOL:.1e}")
    return skew


def assert_hermitian(a: np.ndarray, what: str = "matrix") -> None:
    """Raise unless every entry is finite and max entrywise |A - A^dag| <=
    HERMITICITY_ATOL, over one matrix or every matrix of a stack (..., n, n)."""
    _hermitian_skew(a, what)


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of a Hermitian matrix, as ``np.linalg.eigh``
    returns them: H = V diag(w) V^dag, w ascending. A real (symmetric) ``h``
    gets real eigenvectors, a complex one complex eigenvectors."""
    h = _as_matrix(h, "eigendecomposition input", complex if np.iscomplexobj(h) else float)
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    assert_hermitian(h, "eigendecomposition input")
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Hermitian eigendecomposition failed to converge: {exc}") from exc
    return w, v


def _components(pattern: np.ndarray) -> np.ndarray:
    """Label each basis state with the smallest index in its connected
    component of the (symmetric) nonzero ``pattern``."""
    rows, cols = np.nonzero(pattern)
    label = np.arange(pattern.shape[0])
    while True:
        new = label.copy()
        np.minimum.at(new, rows, label[cols])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _min_eigenvalue(m: np.ndarray) -> float:
    """The smallest eigenvalue of the Hermitian ``m``: the least over the
    blocks of the connected components of its nonzero pattern, over which
    ``m`` is block diagonal. A state that no entry links to another is a
    block of its own, and blocks of one size are stacked for one
    ``eigvalsh``. Each block keeps the states' order, so ``eigvalsh`` reads
    the same lower triangle as on the whole matrix."""
    nonzero = m != 0
    label = _components(nonzero | nonzero.T)
    size = np.bincount(label, minlength=label.size)[label]
    w_min = math.inf
    for s in np.unique(size):
        states = np.flatnonzero(size == s)
        blocks = states[np.argsort(label[states], kind="stable")].reshape(-1, s)
        w_min = min(w_min, float(np.linalg.eigvalsh(m[blocks[:, :, None], blocks[:, None, :]]).min()))
    return w_min


def partial_trace(rho, traced: Iterable[int], n_qubits: int | None = None) -> np.ndarray:
    """Trace out ``traced`` qubits, preserving the register order of the rest."""
    rho = _as_matrix(rho, "partial trace input")
    if rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    n = qubit_count(rho.shape[0]) if n_qubits is None else check_int("n_qubits", n_qubits, ValueError)
    if 2 ** n != rho.shape[0]:
        raise ValueError(f"matrix dimension {rho.shape[0]} does not match {n} qubits")
    traced = sorted({check_int("traced qubit", q, ValueError) for q in traced})
    for q in traced:
        if not 0 <= q < n:
            raise ValueError(f"traced qubit {q} out of range for a {n}-qubit register")
    if len(traced) == n:
        raise ValueError("cannot trace out every qubit; at least one must remain")
    if not traced:
        return rho.copy()
    keep = [q for q in range(n) if q not in traced]
    tensor = rho.reshape((2,) * (2 * n))
    # Row axis q carries label q; column axis q carries label n+q, folded onto
    # the row label for traced qubits so einsum sums them out.
    row_labels = list(range(n))
    col_labels = [q if q in traced else n + q for q in range(n)]
    out_labels = [q for q in keep] + [n + q for q in keep]
    out = np.einsum(tensor, row_labels + col_labels, out_labels)
    d_keep = 2 ** len(keep)
    return out.reshape(d_keep, d_keep)


def trace_norm(a) -> float:
    """Tr|A| for Hermitian A, computed as the sum of |eigenvalues|.

    ``a`` is one matrix or a stack (..., n, n) of them; a stack gives the
    trace norm of the block-diagonal matrix its blocks form. Finiteness and
    Hermiticity are checked on ``a`` as given; the Hermitian part is then
    taken, which only removes rounding, for one batched ``eigvalsh``.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"trace norm input must be a square matrix or a stack of them, got shape {a.shape}")
    skew = _hermitian_skew(a, "trace norm input")
    try:
        w = np.linalg.eigvalsh(a - 0.5 * skew)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue computation failed: {exc}") from exc
    return float(np.abs(w).sum())


def pseudoinverse(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse; singular values below DEFAULT_RCOND * sigma_max are dropped."""
    a = _as_matrix(a, "pseudoinverse input", float)
    try:
        return np.linalg.pinv(a, rcond=DEFAULT_RCOND)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge: {exc}") from exc


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density operator on a qubit register.

    Construction checks Hermiticity (1e-10), unit trace (1e-9) and
    positivity (min eigenvalue >= -1e-9), the last per connected block of
    the nonzero pattern; the stored array is frozen.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_matrix(self.matrix, "density matrix")
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        qubit_count(m.shape[0])
        assert_hermitian(m, "density matrix")
        tr = float(m.trace().real)
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"density matrix trace {tr!r} deviates from 1 by more than {TRACE_ATOL:.1e}")
        w_min = _min_eigenvalue(m)
        if w_min < -EIGENVALUE_ATOL:
            raise ValueError(f"density matrix has eigenvalue {w_min:.3e} < -{EIGENVALUE_ATOL:.1e}")
        object.__setattr__(self, "matrix", _frozen(m, complex))

    __reduce__ = _replay

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def qubit_count(self) -> int:
        return qubit_count(self.dim)


# The matrices of the two known states, |0...0><0...0| and I / 2^n, which
# need no validation. The trajectories start from them by default without
# the eigenvalue check of a DensityMatrix, a full-register eigvalsh.
def _ground_matrix(n_qubits: int) -> np.ndarray:
    d = 2 ** int(n_qubits)
    m = np.zeros((d, d), dtype=complex)
    m[0, 0] = 1.0
    return m


def _mixed_matrix(n_qubits: int) -> np.ndarray:
    d = 2 ** int(n_qubits)
    return np.eye(d, dtype=complex) / d
