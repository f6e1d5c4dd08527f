"""Echo-state diagnostics: the divergence of two trajectories and backflow counting.

Two copies of the reservoir start from different initial states (by default
the maximally mixed state and the all-zero state) and receive identical
inputs. Per step the diagnostic records the squared Euclidean distance
between the two feature slices (bias excluded) and the trace distance
Tr|rho1 - rho2| on both the full register and the system marginal. A
contracting reservoir drives all three to zero; persistent feature distance
signals a broken echo-state property, and step-to-step increases of the
system-marginal trace distance count information flowing back from the
environment.

The copies are not stepped separately. Injection and readout are linear in
the state, so the difference Delta = rho1 - rho2 follows the same step map
and its features are the feature difference. The step engine carries
Tr_q Delta between inputs. The injection tensors a pure input state onto
it and the evolution is unitary, so the full-register trace distance after
input k is Tr|Tr_q Delta_{k-1}|, the trace norm of the carried state before
the step, on half the register. That state is a stack of class blocks with
no coherence between them, so its trace norm is the sum of theirs.
Injection and evolution are block diagonal over classes, so each class
block evolves under its own completely positive map: a class that only one
state occupies holds a semidefinite block of Delta (rho1's, or minus
rho2's) at every step, and its trace norm is |Tr|. Only the classes both
states occupy are eigensolved, by one ``trace_norm`` call on their stack.
The default pair (I/d and |0><0|) occupies both environment-parity classes
and shares one, the ground state's. The step returns Delta_k in factored
form, Y A^dag over one row per class basis state, and the system marginal
is the sum over environment configurations e of Y_e A_e^dag, with the rows
grouped by their environment bits: no register-size Delta is formed. The
stepped Delta stays Hermitian to rounding. Every class block is checked
for that, and for finite entries, as it is, the shared ones by
``trace_norm``, so two ``trace_norm`` calls per input, the shared classes
and the system marginal, make the whole record.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .hamiltonian import HamiltonianRealization
from .linalg import DensityMatrix, _ground_matrix, _hermitian_skew, _mixed_matrix, partial_trace, trace_norm
from .reservoir import ReservoirConfig, _check_inputs, _initial_matrix, _step_inputs, _StepEngine

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


def dual_trajectory(
    real: HamiltonianRealization,
    inputs,
    cfg: ReservoirConfig,
    initial_states: tuple[DensityMatrix, DensityMatrix] | None = None,
) -> list[EspRecord]:
    """Divergence records of two initial states under identical inputs.

    The step map is linear, so only the difference Delta = rho1 - rho2 is
    stepped: its features are the feature difference, and since the
    injection tensors a pure input state onto Tr_q Delta and the evolution is
    unitary, the full-register trace distance after input k is
    Tr|Tr_q Delta_{k-1}|, the trace norm of the state the step engine
    carries, taken before the step over its stack of class blocks. The
    classes both states occupy are eigensolved; every other class block
    belongs to one state alone and counts |Tr|. At step 0 the same is done
    on the class blocks of Delta_0, read through the engine's rows. A
    validated state may have eigenvalues down to -EIGENVALUE_ATOL, so a
    block one state holds alone is semidefinite only to that tolerance, and
    there |Tr| may fall short of the trace norm by up to
    2 d_c EIGENVALUE_ATOL for a class of d_c states. Feature distances
    always use the single-site Z observables regardless of
    ``cfg.observables``. Returns len(inputs) + 1 records, the first being
    the step-0 snapshot of the initial states.
    """
    p = real.params
    if initial_states is None:
        rho1, rho2 = _mixed_matrix(p.n_qubits), _ground_matrix(p.n_qubits)
    else:
        rho1, rho2 = (_initial_matrix(state, p.n_qubits) for state in initial_states)
    inputs = _check_inputs(inputs)
    engine = _StepEngine(real, replace(cfg, observables="z_only"), (rho1 != 0) | (rho2 != 0))
    env = range(p.n_sys, p.n_qubits)

    # The classes both states occupy, whose blocks of Delta are eigensolved;
    # every other kept class holds a semidefinite block of one state, whose
    # trace norm is |Tr|. Every block is gated as trace_norm gates its input.
    block = (engine.rows[:, :, None], engine.rows[:, None, :])
    both = np.all([np.any(rho[block] != 0, axis=(1, 2)) for rho in (rho1, rho2)], axis=0)
    shared, alone = np.flatnonzero(both), np.flatnonzero(~both)

    def full_distance(blocks):
        single = blocks[alone]
        _hermitian_skew(single, "trace norm input")
        td = float(np.abs(single.trace(axis1=1, axis2=2).real).sum())
        return td + trace_norm(blocks[shared]) if shared.size else td

    # Each state is Hermitian only to the DensityMatrix tolerance, so their
    # difference may miss trace_norm's gate by up to twice that, and the
    # engine's bound on the imaginary part of the features. Its Hermitian part
    # is recorded and stepped.
    diff = rho1 - rho2
    diff = (diff + diff.conj().T) / 2
    td_full = td_sys = full_distance(diff[block])
    if env:
        td_sys = trace_norm(partial_trace(diff, env, p.n_qubits))
        env_index = engine.trace_index(env)
    distances = [(td_full, td_sys)]

    def record(tau, stepped):
        td_full = full_distance(tau)  # Tr_q Delta before the step, one block per class
        td_sys = trace_norm(engine.trace_out(stepped, env_index)) if env else td_full
        distances.append((td_full, td_sys))

    # The step map keeps the trace, so Delta keeps that of the initial pair:
    # 0 up to rounding.
    feats = np.empty((inputs.size, cfg.v * engine.n_obs))
    _step_inputs(engine, engine.to_state(diff), inputs, feats, trace=float(diff.trace().real),
                 what="trajectory pair", visit=record)
    sqnorm = [0.0, *(feats ** 2).sum(axis=1).tolist()]
    return [EspRecord(step=k, sqnorm_diff=sq, trace_distance=td_full, trace_distance_sys=td_sys)
            for k, (sq, (td_full, td_sys)) in enumerate(zip(sqnorm, distances))]


def window_stats(records: Sequence[EspRecord], start: int, stop: int) -> WindowStats:
    """Mean and max squared feature distance over records with step in
    [start, stop)."""
    window = [r for r in records if start <= r.step < stop]
    if not window:
        raise ValueError(f"no records with step in [{start}, {stop})")
    sq = np.array([r.sqnorm_diff for r in window])
    return WindowStats(float(sq.mean()), float(sq.max()))


def backflow_count(records: Sequence[EspRecord]) -> tuple[int, float]:
    """Count step-to-step increases of the system-marginal trace distance
    beyond BACKFLOW_TOL.

    Returns (number of increasing steps, summed increase over those steps).
    The full-register series never rises: injection, evolution and the
    partial trace all contract the trace norm.
    """
    if len(records) < 2:
        raise ValueError("need at least two records to count increases")
    series = [r.trace_distance_sys for r in records]
    count = 0
    total = 0.0
    for prev, cur in zip(series, series[1:]):
        inc = cur - prev
        if inc > BACKFLOW_TOL:
            count += 1
            total += inc
    return count, total


def records_to_csv(records: Sequence[EspRecord], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "sqnorm_diff", "trace_distance_full", "trace_distance_sys"])
        for r in records:
            writer.writerow([r.step, repr(r.sqnorm_diff), repr(r.trace_distance), repr(r.trace_distance_sys)])
