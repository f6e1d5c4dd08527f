"""Dense complex linear algebra for small qubit registers.

Conventions shared by the whole package:

* Qubit 0 is the most significant bit of a basis index, so a register of
  ``n`` qubits lives on C^(2^n) with product basis |b0 b1 ... b_{n-1}>.
* Operators and states are dense ``complex128`` ndarrays.
* Registers are capped at ``MAX_QUBITS`` qubits. Everything here targets
  exact desk-scale simulation with dense storage, nothing larger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import NumericalError

MAX_QUBITS = 12

HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-9
EIGENVALUE_ATOL = 1e-9
DEFAULT_RCOND = 1e-12


def _as_complex_matrix(a, what: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"{what} must be 2-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} contains non-finite entries")
    return a


def qubit_count(dim: int) -> int:
    """Number of qubits for a register of dimension ``dim`` (a power of two)."""
    n = int(dim).bit_length() - 1
    if dim < 2 or 2 ** n != dim:
        raise ValueError(f"dimension {dim} is not a power of two >= 2")
    if n > MAX_QUBITS:
        raise ValueError(f"register of {n} qubits exceeds the {MAX_QUBITS}-qubit cap")
    return n


def assert_hermitian(a: np.ndarray, what: str = "matrix") -> None:
    """Raise unless max entrywise |A - A^dag| <= HERMITICITY_ATOL, over one
    matrix or every matrix of a stack (..., n, n)."""
    err = float(np.max(np.abs(a - a.conj().swapaxes(-1, -2)))) if a.size else 0.0
    if err > HERMITICITY_ATOL:
        raise ValueError(f"{what} is not Hermitian: max |A - A^dag| = {err:.3e} > {HERMITICITY_ATOL:.1e}")


@dataclass(frozen=True)
class HermitianEigen:
    """Eigendecomposition H = V diag(w) V^dag with ``w`` ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(h) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    h = _as_complex_matrix(h, "eigendecomposition input")
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    assert_hermitian(h, "eigendecomposition input")
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Hermitian eigendecomposition failed to converge: {exc}") from exc
    return HermitianEigen(eigenvalues=w, eigenvectors=v)


def partial_trace(rho, traced: Iterable[int], n_qubits: int | None = None) -> np.ndarray:
    """Trace out ``traced`` qubits, preserving the register order of the rest."""
    rho = _as_complex_matrix(rho, "partial trace input")
    if rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    n = qubit_count(rho.shape[0]) if n_qubits is None else int(n_qubits)
    if 2 ** n != rho.shape[0]:
        raise ValueError(f"matrix dimension {rho.shape[0]} does not match {n} qubits")
    traced = sorted({int(q) for q in traced})
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
    taken, which only removes rounding, for one batched ``eigvalsh``. One
    pass of A - A^dag serves all three: an entry of A that is not finite
    leaves one of A - A^dag that is not, at the entry or its transpose.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"trace norm input must be a square matrix or a stack of them, got shape {a.shape}")
    skew = a - a.conj().swapaxes(-1, -2)
    err = float(np.max(np.abs(skew))) if a.size else 0.0
    if not np.isfinite(err):
        raise ValueError("trace norm input contains non-finite entries")
    if err > HERMITICITY_ATOL:
        raise ValueError(
            f"trace norm input is not Hermitian: max |A - A^dag| = {err:.3e} > {HERMITICITY_ATOL:.1e}"
        )
    try:
        w = np.linalg.eigvalsh(a - 0.5 * skew)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue computation failed: {exc}") from exc
    return float(np.sum(np.abs(w)))


def pseudoinverse(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse; singular values below DEFAULT_RCOND * sigma_max are dropped."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"pseudoinverse input must be 2-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("pseudoinverse input contains non-finite entries")
    try:
        return np.linalg.pinv(a, rcond=DEFAULT_RCOND)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge: {exc}") from exc


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density operator on a qubit register.

    Construction checks Hermiticity (1e-10), unit trace (1e-9) and
    positivity (min eigenvalue >= -1e-9); the stored array is frozen.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_complex_matrix(self.matrix, "density matrix")
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        qubit_count(m.shape[0])
        assert_hermitian(m, "density matrix")
        tr = float(m.trace().real)
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"density matrix trace {tr!r} deviates from 1 by more than {TRACE_ATOL:.1e}")
        w_min = float(np.linalg.eigvalsh(m)[0])
        if w_min < -EIGENVALUE_ATOL:
            raise ValueError(f"density matrix has eigenvalue {w_min:.3e} < -{EIGENVALUE_ATOL:.1e}")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def __reduce__(self):
        # Unpickled arrays come back writable; the constructor freezes them.
        return type(self), (self.matrix,)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def qubit_count(self) -> int:
        return qubit_count(self.dim)

    @classmethod
    def ground(cls, n_qubits: int) -> "DensityMatrix":
        """|0...0><0...0| on ``n_qubits`` qubits."""
        return cls(_ground_matrix(n_qubits))

    @classmethod
    def maximally_mixed(cls, n_qubits: int) -> "DensityMatrix":
        """I / 2^n on ``n_qubits`` qubits."""
        return cls(_mixed_matrix(n_qubits))


# The matrices of the two known states, which need no validation. The
# trajectories start from them by default without the eigenvalue check of a
# DensityMatrix, a full-register eigvalsh.
def _ground_matrix(n_qubits: int) -> np.ndarray:
    d = 2 ** int(n_qubits)
    m = np.zeros((d, d), dtype=complex)
    m[0, 0] = 1.0
    return m


def _mixed_matrix(n_qubits: int) -> np.ndarray:
    d = 2 ** int(n_qubits)
    return np.eye(d, dtype=complex) / d
