"""Echo-state diagnostics: lockstep trajectory pairs and backflow counting.

Two copies of the reservoir start from different initial states (by default
the maximally mixed state and the all-zero state) and receive identical
inputs. Per step the diagnostic records the squared Euclidean distance
between the two feature slices (bias excluded) and the trace distance
Tr|rho1 - rho2| on both the full register and the system marginal. A
contracting reservoir drives all three to zero; persistent feature distance
signals a broken echo-state property, and step-to-step increases of the
system-marginal trace distance count information flowing back from the
environment.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NumericalError
from .hamiltonian import HamiltonianRealization
from .linalg import DensityMatrix, partial_trace, trace_norm
from .reservoir import ObservableSet, ReservoirConfig, _StepEngine

BACKFLOW_TOL = 1e-6


@dataclass(frozen=True)
class EspRecord:
    """Per-step divergence measurements for a trajectory pair.

    ``step`` 0 is the pre-evolution snapshot of the initial states (no
    features exist yet, so its sqnorm_diff is 0 by convention); step k >= 1
    is recorded after the k-th input has been injected and evolved.
    """

    step: int
    sqnorm_diff: float
    trace_distance: float
    trace_distance_sys: float


class WindowStats(NamedTuple):
    mean_sqnorm: float
    max_sqnorm: float
    mean_trace_distance: float


def dual_trajectory(
    real: HamiltonianRealization,
    inputs,
    cfg: ReservoirConfig,
    initial_states: tuple[DensityMatrix, DensityMatrix] | None = None,
) -> list[EspRecord]:
    """Step two initial states in lockstep under identical inputs.

    Feature distances always use the single-site Z observables regardless of
    ``cfg.observables``. Returns len(inputs) + 1 records, the first being the
    step-0 snapshot of the initial states.
    """
    p = real.params
    if initial_states is None:
        initial_states = (
            DensityMatrix.maximally_mixed(p.n_qubits),
            DensityMatrix.ground(p.n_qubits),
        )
    for state in initial_states:
        if state.qubit_count != p.n_qubits:
            raise ValueError(
                f"initial state has {state.qubit_count} qubits but the realization has {p.n_qubits}"
            )
    inputs = np.asarray(inputs, dtype=float).ravel()
    if inputs.size and (inputs.min() < 0.0 or inputs.max() > 1.0):
        raise ValueError("inputs must lie in [0, 1]")
    obs = ObservableSet.build(p.n_sys, "z_only")
    engine = _StepEngine(real, cfg, obs)
    env = range(p.n_sys, p.n_qubits)

    rho1 = engine.to_state(initial_states[0].matrix)
    rho2 = engine.to_state(initial_states[1].matrix)
    records = [_record(0, 0.0, initial_states[0].matrix, initial_states[1].matrix, env, p.n_qubits)]
    for k, s in enumerate(inputs):
        try:
            rho1, f1 = engine.step(rho1, s)
            rho2, f2 = engine.step(rho2, s)
        except (NumericalError, ValueError) as exc:
            raise NumericalError(f"trajectory pair failed at step {k}: {exc}") from exc
        sqnorm = float(np.sum((f1 - f2) ** 2))
        records.append(
            _record(k + 1, sqnorm, engine.to_register(rho1), engine.to_register(rho2), env, p.n_qubits)
        )
    return records


def _record(step, sqnorm, rho1, rho2, env, n) -> EspRecord:
    diff = rho1 - rho2
    # Symmetrize away rounding drift so trace_norm's Hermiticity gate holds.
    diff = (diff + diff.conj().T) / 2
    td_full = trace_norm(diff)
    if env:
        m1 = partial_trace(rho1, env, n)
        m2 = partial_trace(rho2, env, n)
        d_sys = m1 - m2
        td_sys = trace_norm((d_sys + d_sys.conj().T) / 2)
    else:
        td_sys = td_full
    return EspRecord(step=int(step), sqnorm_diff=sqnorm, trace_distance=td_full, trace_distance_sys=td_sys)


def window_stats(records: Sequence[EspRecord], start: int, stop: int) -> WindowStats:
    """Mean/max squared feature distance and mean full-register trace distance
    over records with step in [start, stop)."""
    window = [r for r in records if start <= r.step < stop]
    if not window:
        raise ValueError(f"no records with step in [{start}, {stop})")
    sq = np.array([r.sqnorm_diff for r in window])
    td = np.array([r.trace_distance for r in window])
    return WindowStats(float(sq.mean()), float(sq.max()), float(td.mean()))


def backflow_count(records: Sequence[EspRecord], use: str = "sys", tol: float = BACKFLOW_TOL) -> tuple[int, float]:
    """Count step-to-step trace-distance increases beyond ``tol``.

    Returns (number of increasing steps, summed increase over those steps).
    ``use`` selects the full-register or system-marginal series.
    """
    if use not in ("full", "sys"):
        raise ValueError(f"use must be 'full' or 'sys', got {use!r}")
    if len(records) < 2:
        raise ValueError("need at least two records to count increases")
    series = [r.trace_distance if use == "full" else r.trace_distance_sys for r in records]
    count = 0
    total = 0.0
    for prev, cur in zip(series, series[1:]):
        inc = cur - prev
        if inc > tol:
            count += 1
            total += inc
    return count, total


def records_to_csv(records: Sequence[EspRecord], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "sqnorm_diff", "trace_distance_full", "trace_distance_sys"])
        for r in records:
            writer.writerow([r.step, repr(r.sqnorm_diff), repr(r.trace_distance), repr(r.trace_distance_sys)])
