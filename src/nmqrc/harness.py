"""Experiment orchestration: config files, seed sweeps, aggregation, outputs.

A run is fully determined by an ExperimentConfig. Config files are flat JSON
key-value documents with an explicit ``schema_version``; unknown keys and
keys that do not apply to the selected task are rejected outright, so a
typo in a regime parameter cannot silently skew a comparison. Beyond that,
``load_config`` only converts the file's forms (regime strings, the split
and window keys); ExperimentConfig checks every value, so a file value and
a constructor argument go through the same checks, and a ConfigError names
the key.

Seed policy: the Hamiltonian realization for seed k uses k directly, while
the benchmark input stream for seed k is drawn from a derived stream
(SeedSequence([k, 1])) that is shared across regimes, so regime comparisons
at a given seed see identical inputs. This is echoed in run_meta.json.
"""

from __future__ import annotations

import csv
import ctypes
import json
import os
import sys
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, fields as dc_fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ConfigError, DivergenceError, NumericalError, check_int, check_real
from .esp import EspRecord, WindowStats, backflow_count, dual_trajectory, records_to_csv, window_stats
from .hamiltonian import ReservoirParams, build_hamiltonian, export_couplings
from .linalg import pseudoinverse
from .readout import squared_correlation
from .reservoir import ReservoirConfig, run_trajectory
from .tasks import NARMA_DEFAULT_ORDERS, NARMA_INPUT_MAX, SplitSpec, gen_uniform_inputs, narma_series, scale_inputs, stm_targets

CONFIG_SCHEMA_VERSION = 1

_INPUT_STREAM_TAG = 1


@dataclass(frozen=True)
class RegimeSpec:
    """A labeled (alpha, beta) point; ``n_env`` overrides the register split
    (used by the env-free baseline regime ``fn``). The label names the
    regime's output directory, so it may not hold a path separator or be
    ``.`` or ``..``."""

    label: str
    alpha: float
    beta: float
    n_env: int | None = None

    def __post_init__(self):
        if not self.label:
            raise ConfigError("regime label must be non-empty")
        if "/" in self.label or "\\" in self.label or self.label in (".", ".."):
            raise ConfigError(
                f"regime label {self.label!r} names an output directory: it may not "
                "contain '/' or '\\' or be '.' or '..'"
            )
        for name in ("alpha", "beta"):
            value = check_real(f"regime {self.label!r}: {name}", getattr(self, name))
            if value < 0:
                raise ConfigError(f"regime {self.label!r}: {name} must be >= 0, got {value}")
            object.__setattr__(self, name, value)


def parse_regime(text: str, task: str) -> RegimeSpec:
    """Parse a preset name ('markov', 'non_markov', 'intermediate', 'fn')
    or a custom 'label:alpha:beta' triple."""
    presets = _TASKS[task].presets
    if not isinstance(text, str):
        raise ConfigError(f"regimes must be preset names or label:alpha:beta triples, got {text!r}")
    if text == "fn":
        return RegimeSpec(label="fn", alpha=0.0, beta=0.0, n_env=0)
    if text in presets:
        alpha, beta = presets[text]
        return RegimeSpec(label=text, alpha=alpha, beta=beta)
    parts = text.split(":")
    if len(parts) == 3:
        label, alpha_s, beta_s = parts
        try:
            return RegimeSpec(label=label, alpha=float(alpha_s), beta=float(beta_s))
        except ValueError as exc:
            raise ConfigError(f"regimes: cannot parse {text!r}: {exc}") from exc
    raise ConfigError(
        f"regimes: {text!r} is neither a preset ({', '.join(sorted(presets))}, fn) "
        "nor a label:alpha:beta triple"
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one run, including output layout.

    The field defaults are the stm and esp protocol (4 + 3 qubits, h_sys
    0.5, v 50, z_only) for every task: ``load_config(task="narma")`` gives
    NARMA's (5 + 2 qubits, h_sys 1.0, v 20, z_and_zz), and a constructor
    call with task "narma" does not."""

    task: str
    n_sys: int = 4
    n_env: int = 3
    j0: float = 1.0
    h_sys: float = 0.5
    h_env: float | None = None  # None: use alpha * j0 per regime
    tau: float = 0.5
    v: int = 50
    observables: str = "z_only"
    multiplex: str = "per_node"
    split: SplitSpec = field(default_factory=lambda: SplitSpec(1000, 3000, 1000))
    seeds: tuple[int, ...] = tuple(range(10))
    regimes: tuple[RegimeSpec, ...] = ()
    tau_d_max: int = 20
    orders: tuple[int, ...] = NARMA_DEFAULT_ORDERS
    esp_steps: int = 2500
    window: tuple[int, int] = (1500, 2500)
    output_dir: str | None = None
    workers: int = 1

    def __post_init__(self):
        _check_task(self.task)
        # integers checked, and numpy ones made plain ints for the JSON echo
        for name in ("n_sys", "n_env", "v", "tau_d_max", "esp_steps", "workers"):
            object.__setattr__(self, name, check_int(name, getattr(self, name)))
        for name in ("seeds", "orders"):
            object.__setattr__(self, name, tuple(check_int(name, x) for x in _sequence(name, getattr(self, name))))
        if len(_sequence("window", self.window)) != 2:
            raise ConfigError(f"window must be a (start, end) pair, got {self.window!r}")
        object.__setattr__(self, "window", tuple(check_int(f"{key} of window", x)  # the file's keys
                                                 for key, x in zip(("window_start", "window_end"), self.window)))
        for name in ("j0", "h_sys", "tau") if self.h_env is None else ("j0", "h_sys", "tau", "h_env"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        if self.output_dir is not None and not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string or None, got {self.output_dir!r}")
        if not isinstance(self.split, SplitSpec):
            raise ConfigError(f"split must be a SplitSpec, got {self.split!r}")
        object.__setattr__(self, "regimes", _sequence("regimes", self.regimes))
        for r in self.regimes:
            if not isinstance(r, RegimeSpec):
                raise ConfigError(f"regimes must be RegimeSpec values, got {r!r}")
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        for s in self.seeds:
            if s < 0:
                raise ConfigError(f"seeds must be non-negative integers, got {s!r}")
        if not self.regimes:
            raise ConfigError("regimes must be non-empty")
        # a repeat would run, and write, the same job or summary row twice
        for name, values in (("seeds", self.seeds), ("regime labels", [r.label for r in self.regimes]),
                             ("orders", self.orders)):
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} must be distinct")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        # Probe the module-level constructors so any invalid field fails here,
        # before a run starts, with the module's own message.
        reservoir_config(self)
        for regime in self.regimes:
            make_params(self, regime, seed=0)
        if self.task == "stm":
            if self.tau_d_max < 0:
                raise ConfigError(f"tau_d_max must be >= 0, got {self.tau_d_max}")
            if self.tau_d_max >= self.split.washout:
                raise ConfigError(
                    f"tau_d_max ({self.tau_d_max}) must be smaller than the washout "
                    f"({self.split.washout}) so every scored step has a defined target"
                )
        if self.task == "narma":
            if not self.orders:
                raise ConfigError("orders must be non-empty")
            for n in self.orders:
                if n < 1:
                    raise ConfigError(f"orders must be integers >= 1, got {n!r}")
            if max(self.orders) > self.split.washout:
                raise ConfigError(
                    f"max order ({max(self.orders)}) exceeds the washout ({self.split.washout}); "
                    "zero-initialized targets would leak into training"
                )
        if self.task == "esp":
            if self.esp_steps < 1:
                raise ConfigError(f"esp_steps must be >= 1, got {self.esp_steps}")
            start, stop = self.window
            if not (0 <= start < stop <= self.esp_steps + 1):
                raise ConfigError(
                    f"window [{start}, {stop}) must satisfy 0 <= start < stop <= esp_steps + 1"
                )


def _sequence(name: str, value) -> tuple:
    """``value`` as a tuple; a string or a value that is not a sequence
    raises ConfigError."""
    if isinstance(value, str) or not isinstance(value, Sequence):
        raise ConfigError(f"{name} must be a sequence, got {value!r}")
    return tuple(value)


def make_params(cfg: ExperimentConfig, regime: RegimeSpec, seed: int) -> ReservoirParams:
    """Resolve a regime against the config; h_env defaults to alpha * j0."""
    n_env = cfg.n_env if regime.n_env is None else regime.n_env
    h_env = cfg.h_env if cfg.h_env is not None else regime.alpha * cfg.j0
    return ReservoirParams(n_sys=cfg.n_sys, n_env=n_env, alpha=regime.alpha, beta=regime.beta,
                           h_sys=cfg.h_sys, h_env=h_env, seed=seed, j0=cfg.j0)


def reservoir_config(cfg: ExperimentConfig) -> ReservoirConfig:
    return ReservoirConfig(tau=cfg.tau, v=cfg.v, observables=cfg.observables, multiplex=cfg.multiplex)


def input_stream(seed: int, length: int, lo: float, hi: float) -> np.ndarray:
    """Benchmark input stream for a seed; shared across regimes by design."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _INPUT_STREAM_TAG]))
    return gen_uniform_inputs(length, lo, hi, rng)


# ---------------------------------------------------------------------------
# the task table and config files

@dataclass(frozen=True)
class _Task:
    """One task's protocol. ``paper`` holds the paper-scale defaults and
    ``quick`` the reduced-scale overrides, both as config-file values; ``keys``
    are the file keys only this task takes. ``axis`` gives a sweep's scored
    points (None for esp), named by the first ``header`` column; ``row``
    turns one result into a ``summary.csv`` row."""

    presets: dict
    keys: tuple[str, ...]
    paper: dict
    quick: dict
    header: tuple[str, ...]
    row: Callable
    axis: Callable | None = None


_STM_PRESETS = {"markov": (10.0, 0.01), "non_markov": (0.01, 10.0), "intermediate": (1.0, 1.0)}
_REGIMES = ("markov", "non_markov", "intermediate")
_TASKS = {
    "stm": _Task(
        presets=_STM_PRESETS,
        keys=("washout", "train", "val", "tau_d_max"),
        paper=dict(n_sys=4, n_env=3, h_sys=0.5, tau=0.5, v=50, observables="z_only", washout=1000,
                   train=3000, val=1000, seeds=range(10), regimes=_REGIMES, tau_d_max=20),
        quick=dict(v=10, washout=200, train=600, val=200, seeds=(0, 1, 2), tau_d_max=20),
        header=("tau_d", "regime", "mean_cstm", "std_cstm", "n_seeds"),
        row=lambda cfg, r: [r.axis, r.regime, repr(r.mean), repr(r.std), r.n_seeds],
        axis=lambda cfg: range(cfg.tau_d_max + 1),
    ),
    "narma": _Task(
        presets={"markov": (5.0, 0.1), "non_markov": (0.1, 5.0), "intermediate": (1.0, 1.0)},
        keys=("washout", "train", "val", "orders"),
        paper=dict(n_sys=5, n_env=2, h_sys=1.0, tau=0.5, v=20, observables="z_and_zz", washout=1000,
                   train=3000, val=1000, seeds=range(10), regimes=("fn",) + _REGIMES,
                   orders=NARMA_DEFAULT_ORDERS),
        quick=dict(v=10, washout=200, train=600, val=200, seeds=(0, 1, 2)),
        header=("order", "tau", "regime", "mean_r2", "std_r2", "n_seeds"),
        row=lambda cfg, r: [r.axis, repr(cfg.tau), r.regime, repr(r.mean), repr(r.std), r.n_seeds],
        axis=lambda cfg: cfg.orders,
    ),
    "esp": _Task(
        presets=_STM_PRESETS,
        keys=("esp_steps", "window_start", "window_end"),
        paper=dict(n_sys=4, n_env=3, h_sys=0.5, tau=0.5, v=50, observables="z_only", seeds=(0, 1, 2),
                   regimes=_REGIMES, esp_steps=2500, window_start=1500, window_end=2500),
        quick=dict(v=10, seeds=(0, 1, 2), esp_steps=600, window_start=300, window_end=600),
        header=("seed", "regime", "window_mean_sqnorm", "window_max_sqnorm", "backflow_count_sys"),
        row=lambda cfg, r: [r.seed, r.regime, repr(r.stats.mean_sqnorm), repr(r.stats.max_sqnorm),
                            r.backflow_sys[0]],
    ),
}
TASKS = tuple(_TASKS)
_TASK_KEYS = {key for spec in _TASKS.values() for key in spec.keys}


# Every config-file key.
_FILE_KEYS = {"schema_version", "task", "n_sys", "n_env", "j0", "h_sys", "h_env", "tau", "v", "observables",
              "multiplex", "seeds", "regimes", "output_dir", "workers"} | _TASK_KEYS


def _from_doc(task: str, doc: dict) -> ExperimentConfig:
    """Build a config from config-file values; keys the doc leaves out keep
    the task's paper defaults. ``config_to_dict`` is its inverse. Only the
    file's own forms are converted here: ExperimentConfig checks every
    value."""
    values = {**_TASKS[task].paper, **doc}
    kwargs = {f.name: values[f.name] for f in dc_fields(ExperimentConfig) if f.name in values}
    kwargs["task"] = task
    if isinstance(values["regimes"], (list, tuple)):
        kwargs["regimes"] = [parse_regime(text, task) for text in values["regimes"]]
    if "window_start" in values:
        kwargs["window"] = (values["window_start"], values["window_end"])
    if "washout" in values:
        kwargs["split"] = SplitSpec(values["washout"], values["train"], values["val"])
    return ExperimentConfig(**kwargs)


def _check_task(task) -> None:
    if task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}, got {task!r}")


def _check_scale(scale) -> None:
    if scale not in ("paper", "quick"):
        raise ConfigError(f"scale must be 'paper' or 'quick', got {scale!r}")


def load_config(
    path=None,
    task: str | None = None,
    scale: str | None = None,
    seeds_override: int | None = None,
    output_override: str | None = None,
    workers_override: int | None = None,
) -> ExperimentConfig:
    """Resolve a config: task defaults, then the file, then explicit overrides."""
    doc: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
        version = doc.get("schema_version")
        if version is None or check_int("schema_version", version) != CONFIG_SCHEMA_VERSION:
            raise ConfigError(f"schema_version: expected {CONFIG_SCHEMA_VERSION}, got {version!r}")
        if "task" in doc:
            _check_task(doc["task"])
            if task is not None and doc["task"] != task:
                raise ConfigError(f"task: config file says {doc['task']!r} but {task!r} was requested")
            task = doc["task"]
    if task is None:
        raise ConfigError("no task given (pass one or set 'task' in the config file)")
    _check_task(task)

    spec = _TASKS[task]
    for key in doc:
        if key not in _FILE_KEYS:
            raise ConfigError(f"{key}: unknown config key")
        if key in _TASK_KEYS and key not in spec.keys:
            raise ConfigError(f"{key}: not applicable to task {task!r}")
    if scale is not None:
        _check_scale(scale)
        if scale == "quick":
            doc.update(spec.quick)
    if seeds_override is not None:
        if check_int("seed count override", seeds_override) < 1:
            raise ConfigError(f"seed count override must be >= 1, got {seeds_override}")
        doc["seeds"] = range(seeds_override)
    if output_override is not None:
        doc["output_dir"] = output_override
    if workers_override is not None:
        doc["workers"] = workers_override
    return _from_doc(task, doc)


def _regime_text(r: RegimeSpec, task: str) -> str:
    """Inverse of parse_regime where possible, else a label:alpha:beta triple."""
    if r.label == "fn" and r.n_env == 0:
        return "fn"
    if r.n_env is None and _TASKS[task].presets.get(r.label) == (r.alpha, r.beta):
        return r.label
    return f"{r.label}:{r.alpha}:{r.beta}"


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Flat, file-schema-shaped echo of a resolved config; ``_from_doc`` is
    its inverse."""
    doc = dict(
        schema_version=CONFIG_SCHEMA_VERSION, task=cfg.task, n_sys=cfg.n_sys, n_env=cfg.n_env, j0=cfg.j0,
        h_sys=cfg.h_sys, h_env=cfg.h_env, tau=cfg.tau, v=cfg.v, observables=cfg.observables,
        multiplex=cfg.multiplex, seeds=list(cfg.seeds), regimes=[_regime_text(r, cfg.task) for r in cfg.regimes],
        output_dir=cfg.output_dir, workers=cfg.workers,
        # task keys; the filter below keeps the ones this task takes
        washout=cfg.split.washout, train=cfg.split.train, val=cfg.split.val, tau_d_max=cfg.tau_d_max,
        orders=list(cfg.orders), esp_steps=cfg.esp_steps, window_start=cfg.window[0], window_end=cfg.window[1],
    )
    return {key: value for key, value in doc.items() if key not in _TASK_KEYS or key in _TASKS[cfg.task].keys}


# ---------------------------------------------------------------------------
# sweep execution

@dataclass(frozen=True)
class SweepResult:
    """Per-seed scores at one sweep point, with mean and population std."""

    axis: float
    regime: str
    scores: tuple[float, ...]
    mean: float
    std: float

    @property
    def n_seeds(self) -> int:
        return len(self.scores)


@dataclass(frozen=True)
class EspRunResult:
    """One trajectory pair: full record stream plus window/backflow summary."""

    regime: str
    seed: int
    records: tuple[EspRecord, ...]
    stats: WindowStats
    backflow_sys: tuple[int, float]


def aggregate(scores) -> tuple[float, float]:
    """(arithmetic mean, population standard deviation)."""
    arr = np.asarray(list(scores), dtype=float)
    if arr.size == 0:
        raise ValueError("no scores to aggregate")
    if not np.all(np.isfinite(arr)):
        raise ValueError("scores contain non-finite entries")
    return float(arr.mean()), float(arr.std())


def _readout(design: np.ndarray, n: int) -> np.ndarray:
    """Readout weights X^+ Y for every target column at once, from the
    training block ``design`` = [X | Y] whose first ``n`` columns are X.

    One QR of [X | Y] serves all targets: X = QR gives X^+ = R^+ Q^T, the
    last columns of R hold Q^T Y, and R has the singular values of X, so
    ``pseudoinverse`` drops the same directions as on X itself. Slicing the
    first n rows also covers a training split shorter than the design, where
    R is trapezoidal.
    """
    r = np.linalg.qr(design, mode="r")
    return pseudoinverse(r[:n, :n]) @ r[:n, n:]


def _job(job):
    """One (regime, seed) job of any task: build the realization and drive
    it, then build the targets of every axis point, fit one readout for all
    of them from a single QR and score each point (stm, narma), or summarise
    the record stream (esp). Returns (result, couplings)."""
    cfg, regime, seed = job
    narma = cfg.task == "narma"
    where = f"regime={regime.label}, seed={seed}"
    try:
        real = build_hamiltonian(make_params(cfg, regime, seed))
        if cfg.task == "esp":
            inputs = input_stream(seed, cfg.esp_steps, 0.0, 1.0)
            records = tuple(dual_trajectory(real, inputs, reservoir_config(cfg)))
        else:
            u = input_stream(seed, cfg.split.total, 0.0, NARMA_INPUT_MAX if narma else 1.0)
            feats = run_trajectory(real, scale_inputs(u) if narma else u, reservoir_config(cfg))[0]
    except (NumericalError, ValueError) as exc:
        raise NumericalError(f"{cfg.task} run failed ({where}): {exc}") from exc
    if cfg.task == "esp":
        stats, backflow = window_stats(records, *cfg.window), backflow_count(records)
        return EspRunResult(regime.label, seed, records, stats, backflow), export_couplings(real)

    spec = _TASKS[cfg.task]
    split, train, val = cfg.split, cfg.split.train_slice, cfg.split.val_slice
    points = tuple(spec.axis(cfg))
    # The fit needs only the training block [X | Y] and the validation rows of
    # X and Y. They are copied out and the whole feature matrix is dropped
    # before the targets and the QR: kept alive beside the QR's copies of the
    # block, it set the peak resident set of the paper-length narma sweep.
    n = len(feats.labels)
    design = np.empty((split.train, n + len(points)))
    design[:, :n] = feats.values[train]
    x_val = feats.values[val].copy()
    del feats
    y_val = np.empty((split.val, len(points)))
    for j, point in enumerate(points):
        try:
            series = narma_series(u, point) if narma else stm_targets(u, point)
        except (NumericalError, ValueError) as exc:
            kind = DivergenceError if isinstance(exc, DivergenceError) else NumericalError
            raise kind(f"{cfg.task} scoring failed ({where}, {spec.header[0]}={point}): {exc}") from exc
        design[:, n + j] = series[train]
        y_val[:, j] = series[val]
    try:
        w = _readout(design, n)
    except (NumericalError, ValueError) as exc:
        raise NumericalError(f"{cfg.task} readout failed ({where}): {exc}") from exc
    predictions = x_val @ w
    scores = {point: squared_correlation(y_val[:, j], predictions[:, j]) for j, point in enumerate(points)}
    return scores, export_couplings(real)


# (setter, getter) pairs of the OpenBLAS thread count: numpy wheels' ILP64
# and LP64 builds, then other OpenBLAS builds.
_BLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _blas_threads():
    """(setter, getter) of the thread count of an OpenBLAS this process has
    loaded, found through the mapped libraries (Linux) and ctypes, or None
    when there is no such library or it has no known setter."""
    paths = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:  # address, perms, offset, device, inode, then the path, if any
                fields = line.rstrip("\n").split(maxsplit=5)
                if len(fields) == 6 and "openblas" in os.path.basename(fields[5]).lower():
                    paths.add(fields[5])
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for setter, getter in _BLAS_THREAD_FUNCTIONS:
            if hasattr(lib, setter) and hasattr(lib, getter):
                return getattr(lib, setter), getattr(lib, getter)
    return None


def _pin_blas():
    """Set the loaded OpenBLAS to one thread; return its setter and the count
    it had, or None when no setter is found. Pool workers call it when they
    start: each forked worker otherwise keeps the parent's multi-threaded
    BLAS pool and the workers oversubscribe the cores; setting
    OPENBLAS_NUM_THREADS after numpy is loaded does nothing."""
    found = _blas_threads()
    if found is None:
        return None
    set_threads, get_threads = found
    threads = get_threads()
    set_threads(1)
    return set_threads, threads


def _pooled(cfg: ExperimentConfig, jobs: list) -> bool:
    return cfg.workers > 1 and len(jobs) > 1


def _run_jobs(cfg: ExperimentConfig, jobs: list) -> tuple[list, bool]:
    """Run the jobs, in this process or in a pool, each with one BLAS thread,
    then restore this process's thread count. Returns the job results and
    whether a BLAS thread setter was found, so that every job was pinned. The
    readout of a large training design depends on the BLAS thread count, so
    pinning every job keeps results independent of the worker count."""
    pinned = _pin_blas()
    try:
        if not _pooled(cfg, jobs):
            outs = [_job(job) for job in jobs]
        else:
            # imported here: it loads multiprocessing, which a serial run never needs
            from concurrent.futures import ProcessPoolExecutor

            # more processes than the cores this process may use only add memory and switching
            cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
            with ProcessPoolExecutor(max_workers=min(cfg.workers, len(jobs), cores), initializer=_pin_blas) as pool:
                outs = list(pool.map(_job, jobs))
    finally:
        if pinned is not None:
            set_threads, threads = pinned
            set_threads(threads)
    return outs, pinned is not None


def _run(cfg: ExperimentConfig, task: str) -> list:
    if cfg.task != task:
        raise ConfigError(f"config task is {cfg.task!r} but run_{task} was called")
    if cfg.output_dir is not None:
        _output_root(cfg)
    started, t0 = datetime.now(timezone.utc), time.perf_counter()
    jobs = [(cfg, regime, seed) for regime in cfg.regimes for seed in cfg.seeds]
    outs, pinned = _run_jobs(cfg, jobs)
    done = {(regime.label, seed): out for (_, regime, seed), out in zip(jobs, outs)}
    if task == "esp":
        results = [result for result, _ in done.values()]
    else:
        results = []
        for regime in cfg.regimes:
            for axis in _TASKS[task].axis(cfg):
                scores = tuple(done[(regime.label, seed)][0][axis] for seed in cfg.seeds)
                results.append(SweepResult(axis, regime.label, scores, *aggregate(scores)))
    if cfg.output_dir is not None:
        timing = {"started_utc": started.isoformat(), "finished_utc": datetime.now(timezone.utc).isoformat(),
                  "wall_s": time.perf_counter() - t0}
        _write_outputs(cfg, results, {key: couplings for key, (_, couplings) in done.items()},
                       {"pool_blas_pinned": _pooled(cfg, jobs) and pinned, "jobs_blas_pinned": pinned}, timing)
    return results


def run_stm(cfg: ExperimentConfig) -> list[SweepResult]:
    """Delayed-reproduction sweep: one trajectory per (regime, seed), one fit
    per delay on the shared feature rows."""
    return _run(cfg, "stm")


def run_narma(cfg: ExperimentConfig) -> list[SweepResult]:
    """Autoregressive-series sweep over orders; the trajectory for a seed is
    shared by every order (targets change, features do not)."""
    return _run(cfg, "narma")


def run_esp(cfg: ExperimentConfig) -> list[EspRunResult]:
    """Dual-trajectory diagnostics per (regime, seed), with record streams."""
    return _run(cfg, "esp")


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment() -> dict:
    """The software, BLAS and thread settings the run's timings depend on."""
    from . import __version__

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = None
    return {
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": np.__version__,
        "nmqrc": __version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
    }


def _output_root(cfg: ExperimentConfig) -> Path:
    """``<output_dir>/<task>``, created if need be. A directory that cannot
    be created or written is a ConfigError, raised before the first job."""
    root = Path(cfg.output_dir) / cfg.task
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {root}: {exc}") from exc
    if not os.access(root, os.W_OK | os.X_OK):
        raise ConfigError(f"output directory {root} is not writable")
    return root


def _write_outputs(cfg: ExperimentConfig, results: list, couplings: dict, pinned: dict, timing: dict) -> None:
    """run_meta.json, then per regime its couplings, summary.csv and (esp)
    record streams. ``pinned`` says whether pool workers, and whether all
    jobs, ran with one BLAS thread each; ``timing`` holds the run's UTC start
    and finish and its wall time in seconds, from before the first job to
    after the last."""
    spec = _TASKS[cfg.task]
    root = _output_root(cfg)
    meta = {
        "config": config_to_dict(cfg),
        "input_stream_policy": (
            "inputs for seed k come from SeedSequence([k, 1]) and are shared "
            "across regimes; realizations use seed k directly"
        ),
        "environment": {**_environment(), **pinned},
        **timing,
    }
    with open(root / "run_meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
    for regime in cfg.regimes:
        regime_dir = root / regime.label
        regime_dir.mkdir(exist_ok=True)
        for seed in cfg.seeds:
            with open(regime_dir / f"couplings_seed{seed}.json", "w", encoding="utf-8") as fh:
                json.dump(couplings[(regime.label, seed)], fh, indent=2)
        mine = [r for r in results if r.regime == regime.label]
        with open(regime_dir / "summary.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(spec.header)
            writer.writerows(spec.row(cfg, r) for r in mine)
        if cfg.task == "esp":
            for r in mine:
                records_to_csv(r.records, regime_dir / f"records_seed{r.seed}.csv")
