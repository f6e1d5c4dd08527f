"""Random spin-register Hamiltonians with a system block and an environment block.

Sites 0..n_sys-1 form the measured system, sites n_sys..n-1 the unmeasured
environment. Intra-block pairs couple through X_i X_j, the two blocks couple
through Z_i Z_k, and each block sees a uniform Z field:

    H = sum_{i<j} Jsys_ij X_i X_j + h_sys sum_i Z_i
      + sum_{k<l} Jenv_kl X_k X_l + h_env sum_k Z_k
      + sum_{i,k} g_ik Z_i Z_k

Couplings are drawn uniformly, Jsys in [-j0, j0], Jenv in [-alpha*j0,
alpha*j0], g in [-beta*j0, beta*j0]: alpha sets how fast the environment
mixes internally, beta how strongly the blocks talk. Sampling uses numpy's
PCG64 generator seeded from ``params.seed``; draws happen in a fixed order
(system pairs i<j lexicographic, environment pairs k<l lexicographic, then
g row-major over (i, k)) so a seed maps to a stable realization.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, fields
from itertools import combinations
from math import comb

import numpy as np

from . import linalg
from .errors import ConfigError, check_int, check_real
from .linalg import _components, _frozen, _replay, hermitian_eig


@dataclass(frozen=True)
class ReservoirParams:
    """Register layout, coupling scales and RNG seed for one realization."""

    n_sys: int
    n_env: int
    alpha: float
    beta: float
    h_sys: float
    h_env: float
    seed: int
    j0: float = 1.0

    def __post_init__(self):
        for name in ("n_sys", "n_env", "seed"):
            object.__setattr__(self, name, check_int(name, getattr(self, name)))
        for name in ("j0", "alpha", "beta", "h_sys", "h_env"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.n_sys < 1:
            raise ConfigError(f"n_sys must be >= 1, got {self.n_sys}")
        if self.n_env < 0:
            raise ConfigError(f"n_env must be >= 0, got {self.n_env}")
        if self.n_sys + self.n_env > linalg.MAX_QUBITS:
            raise ConfigError(
                f"register n_sys + n_env = {self.n_sys + self.n_env} exceeds "
                f"the {linalg.MAX_QUBITS}-qubit cap"
            )
        if self.j0 <= 0:
            raise ConfigError(f"j0 must be > 0, got {self.j0}")
        for name in ("alpha", "beta"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")

    @property
    def n_qubits(self) -> int:
        return self.n_sys + self.n_env

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits


@dataclass(frozen=True)
class CouplingSet:
    """Sampled couplings: j_sys over system pairs, j_env over environment
    pairs (both in i<j order), g as an (n_sys, n_env) array."""

    j_sys: np.ndarray
    j_env: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "j_sys", _frozen(np.ravel(self.j_sys)))
        object.__setattr__(self, "j_env", _frozen(np.ravel(self.j_env)))
        object.__setattr__(self, "g", _frozen(np.atleast_2d(self.g)))

    __reduce__ = _replay


def sample_couplings(params: ReservoirParams) -> CouplingSet:
    """Draw a coupling realization from PCG64 seeded with params.seed."""
    rng = np.random.default_rng(params.seed)
    j0 = params.j0
    j_sys = rng.uniform(-j0, j0, size=comb(params.n_sys, 2))
    j_env = rng.uniform(-params.alpha * j0, params.alpha * j0, size=comb(params.n_env, 2))
    g = rng.uniform(-params.beta * j0, params.beta * j0, size=(params.n_sys, params.n_env))
    return CouplingSet(j_sys=j_sys, j_env=j_env, g=g)


def _sector_eig(h: np.ndarray, pattern: np.ndarray, members: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split H on the basis states ``members`` into the connected components
    of the nonzero ``pattern`` (that of H, plus whatever else must stay
    within one sector) and eigendecompose each block.

    Returns ``order``, the members listed sector after sector (in their
    given order within a sector), then the eigendecompositions of the k
    blocks of m states that H has in that order, stacked: ``lam``, the
    eigenvalues (k, m), and ``vecs``, the eigenvectors (k, m, m). Every
    term of this module's Hamiltonian keeps the Z-parity of the system
    block and of the environment block, so the components are parity
    sectors (more of them when alpha = 0 or n_env <= 1). Components of
    unequal size are treated as one sector, so a term that breaks the
    symmetry gets the plain eigendecomposition of all the members. H is
    real, so its eigenvectors are real.
    """
    label = _components(pattern[np.ix_(members, members)])
    sizes = np.unique(label, return_counts=True)[1]
    if sizes.min() == sizes.max():
        order = members[np.argsort(label, kind="stable")]
        k = sizes.size
    else:
        order = members
        k = 1
    lam, vecs = zip(*(hermitian_eig(h[np.ix_(idx, idx)]) for idx in order.reshape(k, -1)))
    return order, np.stack(lam), np.stack(vecs)


@dataclass(frozen=True, eq=False)
class HamiltonianRealization:
    """A sampled Hamiltonian: its params, couplings and the read-only
    full-register matrix, real (float64) like every XX, Z and ZZ sum.
    Immutable, also after pickling."""

    params: ReservoirParams
    couplings: CouplingSet
    h_full: np.ndarray

    def __post_init__(self):
        h_full = np.asarray(self.h_full)
        dim = self.params.dim
        if h_full.shape != (dim, dim):
            raise ValueError(f"h_full has shape {h_full.shape}, but the register needs {(dim, dim)}")
        if np.iscomplexobj(h_full) and h_full.imag.any():
            raise ValueError("h_full has a nonzero imaginary part; the reservoir Hamiltonian is real")
        h_full = _frozen(h_full.real)
        # The engine reads H through its nonzero pattern, so an entry whose
        # transpose is zero could be skipped without an error.
        linalg.assert_hermitian(h_full, "h_full")
        object.__setattr__(self, "h_full", h_full)

    __reduce__ = _replay

    @classmethod
    def _adopt(cls, params: ReservoirParams, couplings: CouplingSet, h_full: np.ndarray) -> "HamiltonianRealization":
        """A realization that freezes and keeps ``h_full`` itself, not a
        copy: for a float array that nothing else holds."""
        h_full.flags.writeable = False
        real = object.__new__(cls)
        for name, value in (("params", params), ("couplings", couplings), ("h_full", h_full)):
            object.__setattr__(real, name, value)
        return real


def build_hamiltonian(params: ReservoirParams, couplings: CouplingSet | None = None) -> HamiltonianRealization:
    """Assemble the full-register Hamiltonian from a coupling realization.

    Terms are added in the order of the module docstring's sum: an X_i X_j
    term puts its coupling at (b, b with bits i and j flipped) for every
    basis index b, a Z or Z Z term adds its coefficient times the +-1 sign
    of the basis index to the diagonal. The build holds no register-size
    array besides H, and the realization keeps that one.
    """
    if couplings is None:
        couplings = sample_couplings(params)
    _check_couplings(params, couplings)
    n, n_sys = params.n_qubits, params.n_sys
    d = params.dim
    h = np.zeros((d, d))
    diag = h.reshape(-1)[:: d + 1]  # a view: adding to it adds to H
    basis = np.arange(d)
    bit = [1 << (n - 1 - q) for q in range(n)]
    z = [1.0 - 2.0 * ((basis & b) != 0) for b in bit]
    for idx, (i, j) in enumerate(combinations(range(n_sys), 2)):
        h[basis, basis ^ (bit[i] | bit[j])] += couplings.j_sys[idx]
    for i in range(n_sys):
        diag += params.h_sys * z[i]
    for idx, (k, l) in enumerate(combinations(range(n_sys, n), 2)):
        h[basis, basis ^ (bit[k] | bit[l])] += couplings.j_env[idx]
    for k in range(n_sys, n):
        diag += params.h_env * z[k]
    for i in range(n_sys):
        for k in range(params.n_env):
            diag += couplings.g[i, k] * (z[i] * z[n_sys + k])
    return HamiltonianRealization._adopt(params, couplings, h)


def _check_couplings(params: ReservoirParams, couplings: CouplingSet) -> None:
    expect = {"j_sys": (comb(params.n_sys, 2),), "j_env": (comb(params.n_env, 2),), "g": (params.n_sys, params.n_env)}
    for key, shape in expect.items():
        got = getattr(couplings, key).shape
        if got != shape and not (key == "g" and params.n_env == 0 and couplings.g.size == 0):
            raise ConfigError(f"coupling counts: {key} has shape {got}, but its params need {shape}")
    # every coupling within its bound, which a NaN is not
    slack = 1e-12
    if not np.all(np.abs(couplings.j_sys) <= params.j0 + slack):
        raise ConfigError("j_sys exceeds the |J| <= j0 bound")
    if not np.all(np.abs(couplings.j_env) <= params.alpha * params.j0 + slack):
        raise ConfigError("j_env exceeds the |J| <= alpha*j0 bound")
    if not np.all(np.abs(couplings.g) <= params.beta * params.j0 + slack):
        raise ConfigError("g exceeds the |g| <= beta*j0 bound")


def export_couplings(realization: HamiltonianRealization) -> dict:
    """JSON-ready document {params, j_sys, j_env, g} for provenance and replay."""
    p = realization.params
    c = realization.couplings
    return {
        "params": asdict(p),
        "j_sys": c.j_sys.tolist(),
        "j_env": c.j_env.tolist(),
        "g": c.g.reshape(p.n_sys, p.n_env).tolist(),
    }


def import_couplings(doc: dict) -> HamiltonianRealization:
    """Rebuild a realization from an exported couplings document. A document
    or a ``params`` that is not an object, a missing key, a param that is
    missing or that ReservoirParams does not take, or a coupling array that
    holds a non-number or has the wrong shape for ``params`` raises
    ConfigError naming it."""
    if not isinstance(doc, dict):
        raise ConfigError(f"couplings document must be an object, got {doc!r}")
    for key in ("params", "j_sys", "j_env", "g"):
        if key not in doc:
            raise ConfigError(f"couplings document has no {key!r}")
    if not isinstance(doc["params"], dict):
        raise ConfigError(f"couplings 'params' must be an object, got {doc['params']!r}")
    given = doc["params"].keys()
    unknown = given - {f.name for f in fields(ReservoirParams)}
    missing = {f.name for f in fields(ReservoirParams) if f.default is MISSING} - given
    if unknown or missing:
        raise ConfigError(f"couplings 'params': unknown {sorted(unknown)}, missing {sorted(missing)}")
    params = ReservoirParams(**doc["params"])
    arrays = {}
    for key in ("j_sys", "j_env", "g"):
        try:
            arrays[key] = np.asarray(doc[key], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"couplings {key!r} must hold numbers: {exc}") from None
    return build_hamiltonian(params, CouplingSet(**arrays))
