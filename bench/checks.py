"""Output checks for each workload, run after the timed sweep.

Every check reads the files a sweep wrote and tests them against the
independent reference in ``reference.py`` or against properties the method
must have; none compares with a saved copy of earlier output. A check that
fails names the (regime, seed) jobs it covers, and those jobs count as
failed.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import reference

# Readout scores from the program and from the reference agree to this
# absolute tolerance (see README, "Output checks").
SCORE_TOL = 1e-7
# The STM regime recomputed by the reference: the one whose training design
# is worst conditioned, so the tolerance is tested where it is tightest.
STM_REFERENCE_REGIME = "non_markov"
# Slack on trace-distance inequalities, as in the program's acceptance tests.
TD_TOL = 1e-10
BACKFLOW_TOL = 1e-6


def _rows(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{path.name}: header {rows[:1]} is not {header}")
    return rows[1:]


def _regime_dir(root: Path, cfg: dict, regime: str) -> Path:
    return root / cfg["task"] / regime


def _check_couplings(doc: dict, cfg: dict, regime: str, seed: int) -> None:
    p = doc["params"]
    want = {"n_sys": cfg["n_sys"], "n_env": 0 if regime == "fn" else cfg["n_env"],
            "h_sys": cfg["h_sys"], "j0": cfg["j0"], "seed": seed}
    got = {k: p[k] for k in want}
    if got != want:
        raise ValueError(f"couplings_seed{seed}.json params {got} are not {want}")


def _sweep_scores(cfg, root, regime, axis, targets_of, length, hi) -> dict:
    """Reference per-axis (mean, population std) over the config's seeds."""
    per_seed = []
    for seed in cfg["seeds"]:
        doc = json.loads((_regime_dir(root, cfg, regime) / f"couplings_seed{seed}.json").read_text())
        _check_couplings(doc, cfg, regime, seed)
        u = reference.input_stream(seed, length, 0.0, hi)
        x = reference.features(reference.hamiltonian(doc), u / hi, cfg["n_sys"], cfg["tau"], cfg["v"],
                               cfg["observables"], cfg["multiplex"])
        per_seed.append(reference.readout_scores(x, [targets_of(u, a) for a in axis], cfg["washout"], cfg["train"]))
    scores = np.array(per_seed)
    return {a: (m, s) for a, m, s in zip(axis, scores.mean(axis=0), scores.std(axis=0))}


def _scored_rows(rows, cfg, regime, axis, mean_col, want: dict | None) -> None:
    """Sweep summary rows: one per axis value, scores in [0, 1], and equal to
    the reference where one is given."""
    if [int(r[0]) for r in rows] != list(axis):
        raise ValueError(f"axis column {[r[0] for r in rows]} is not {list(axis)}")
    for row in rows:
        a, mean, std, n = int(row[0]), float(row[mean_col]), float(row[mean_col + 1]), int(row[mean_col + 2])
        if row[mean_col - 1] != regime or n != len(cfg["seeds"]):
            raise ValueError(f"row {row}: regime or n_seeds is wrong")
        if not (0.0 <= mean <= 1.0 and 0.0 <= std <= 0.5):
            raise ValueError(f"row {row}: a score of [0, 1] cannot have this mean and std")
        if want is not None:
            ref_mean, ref_std = want[a]
            if abs(mean - ref_mean) > SCORE_TOL or abs(std - ref_std) > SCORE_TOL:
                raise ValueError(f"axis {a}: program ({mean!r}, {std!r}) vs reference ({ref_mean!r}, {ref_std!r})")


def check_stm(cfg: dict, root: Path, with_reference: bool) -> dict:
    axis = range(cfg["tau_d_max"] + 1)
    header = ["tau_d", "regime", "mean_cstm", "std_cstm", "n_seeds"]
    failures = {}
    for regime in cfg["regimes"]:
        try:
            rows = _rows(_regime_dir(root, cfg, regime) / "summary.csv", header)
            want = None
            if with_reference and regime == STM_REFERENCE_REGIME:
                want = _sweep_scores(cfg, root, regime, axis, reference.stm_targets,
                                     cfg["washout"] + cfg["train"] + cfg["val"], 1.0)
            _scored_rows(rows, cfg, regime, axis, 2, want)
        except (OSError, ValueError, KeyError) as exc:
            failures[regime] = str(exc)
    return failures


def check_narma(cfg: dict, root: Path) -> dict:
    axis = cfg["orders"]
    header = ["order", "tau", "regime", "mean_r2", "std_r2", "n_seeds"]
    failures = {}
    for regime in cfg["regimes"]:
        try:
            rows = _rows(_regime_dir(root, cfg, regime) / "summary.csv", header)
            if any(float(r[1]) != cfg["tau"] for r in rows):
                raise ValueError("tau column does not echo the config")
            want = _sweep_scores(cfg, root, regime, axis, lambda u, n: reference.narma(u, n),
                                 cfg["washout"] + cfg["train"] + cfg["val"], 0.5)
            _scored_rows(rows, cfg, regime, axis, 3, want)
        except (OSError, ValueError, KeyError) as exc:
            failures[regime] = str(exc)
    return failures


def _check_records(rows, cfg: dict) -> tuple[float, float, int]:
    """Physical properties of one trajectory pair's records; returns the
    window mean and max of sqnorm_diff and the system backflow count."""
    n = cfg["n_sys"] + cfg["n_env"]
    steps = [int(r[0]) for r in rows]
    sq, td, td_sys = (np.array([float(r[i]) for r in rows]) for i in (1, 2, 3))
    if steps != list(range(cfg["esp_steps"] + 1)):
        raise ValueError(f"{len(rows)} records, expected steps 0..{cfg['esp_steps']}")
    if not all(np.isfinite(a).all() for a in (sq, td, td_sys)):
        raise ValueError("records hold non-finite values")
    # Maximally mixed vs |0..0>: Tr|I/d - |0><0|| = 2(1 - 1/d).
    for value, d in ((td[0], 2 ** n), (td_sys[0], 2 ** cfg["n_sys"])):
        if abs(value - 2 * (1 - 1 / d)) > 1e-12:
            raise ValueError(f"step-0 trace distance {value!r} is not 2(1 - 1/{d})")
    if sq[0] != 0.0:
        raise ValueError("step-0 sqnorm_diff is not 0")
    if np.max(np.diff(td)) > TD_TOL:
        raise ValueError(f"full-register trace distance rose by {np.max(np.diff(td)):.3e}")
    if np.max(td_sys - td) > TD_TOL:
        raise ValueError("system trace distance exceeds the full-register one")
    if sq.min() < 0 or sq.max() > 4 * cfg["v"] * cfg["n_sys"]:
        raise ValueError(f"sqnorm_diff outside [0, 4 v n_sys]: {sq.min()!r}..{sq.max()!r}")
    window = sq[cfg["window_start"]:cfg["window_end"]]
    backflow = int(np.sum(np.diff(td_sys) > BACKFLOW_TOL))
    return float(window.mean()), float(window.max()), backflow


def check_esp(cfg: dict, root: Path) -> dict:
    header = ["seed", "regime", "window_mean_sqnorm", "window_max_sqnorm", "backflow_count_sys"]
    records_header = ["step", "sqnorm_diff", "trace_distance_full", "trace_distance_sys"]
    failures = {}
    for regime in cfg["regimes"]:
        regime_dir = _regime_dir(root, cfg, regime)
        try:
            summary = {int(r[0]): r for r in _rows(regime_dir / "summary.csv", header)}
            if sorted(summary) != sorted(cfg["seeds"]):
                raise ValueError(f"summary seeds {sorted(summary)} are not {cfg['seeds']}")
        except (OSError, ValueError) as exc:
            failures[regime] = str(exc)
            continue
        for seed in cfg["seeds"]:
            try:
                _check_couplings(json.loads((regime_dir / f"couplings_seed{seed}.json").read_text()), cfg, regime, seed)
                mean, peak, backflow = _check_records(_rows(regime_dir / f"records_seed{seed}.csv", records_header), cfg)
                row = summary[seed]
                if row[1] != regime or int(row[4]) != backflow:
                    raise ValueError(f"summary row {row}: recount gives backflow {backflow}")
                if abs(float(row[2]) - mean) > 1e-12 * abs(mean) or float(row[3]) != peak:
                    raise ValueError(f"summary row {row}: recount gives window mean {mean!r}, max {peak!r}")
            except (OSError, ValueError, KeyError) as exc:
                failures[(regime, seed)] = str(exc)
    return failures


def same_files(a: Path, b: Path, names) -> bool:
    """True when every named file exists in both directories, byte for byte."""
    return all((a / n).is_file() and (b / n).is_file() and (a / n).read_bytes() == (b / n).read_bytes() for n in names)


def regime_files(cfg: dict) -> list[str]:
    """The per-regime outputs a sweep writes for the config's seeds."""
    names = ["summary.csv"] + [f"couplings_seed{s}.json" for s in cfg["seeds"]]
    if cfg["task"] == "esp":
        names += [f"records_seed{s}.csv" for s in cfg["seeds"]]
    return names
