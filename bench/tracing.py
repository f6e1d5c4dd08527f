"""Spans around the public calls at each module boundary of ``nmqrc``.

``Tracer.wrap`` replaces a function at the name its caller looks it up
(``nmqrc.harness.run_trajectory``, ``nmqrc.esp.trace_norm``, ...), so the
program itself is unchanged. A span holds its name, process, start, end,
the in-process span that was open when it started, and a work count. Spans
stay in memory and are written as one JSON-lines file per process when the
run ends; pool workers forked after ``install`` inherit the wrappers and
write their own file when they exit.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import time
from collections import defaultdict
from multiprocessing import util
from pathlib import Path


def _jobs(cfg, *args, **kwargs) -> int:
    return len(cfg.regimes) * len(cfg.seeds)


def _inputs(real, inputs, *args, **kwargs) -> int:
    return len(inputs)


# (module, attribute, span name, work count). The module is the caller's, so
# the wrapper sits at the boundary the caller crosses.
BOUNDARIES = (
    ("harness", "load_config", "harness.config", None),
    ("harness", "run_stm", "harness.sweep", _jobs),
    ("harness", "run_esp", "harness.sweep", _jobs),
    ("harness", "run_narma", "harness.sweep", _jobs),
    ("harness", "build_hamiltonian", "hamiltonian.build", None),
    ("hamiltonian", "hermitian_eig", "hamiltonian.eigh", None),
    ("harness", "run_trajectory", "reservoir.trajectory", _inputs),
    ("harness", "dual_trajectory", "esp.dual", _inputs),
    ("esp", "trace_norm", "esp.trace_norm", None),
    ("esp", "partial_trace", "esp.partial_trace", None),
    ("harness", "records_to_csv", "esp.csv", None),
    ("harness", "pseudoinverse", "linalg.pinv", None),
    ("harness", "squared_correlation", "readout.score", None),
    ("harness", "narma_series", "tasks.narma", None),
    ("harness", "stm_targets", "tasks.targets", None),
)


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self._reset()
        util.register_after_fork(self, Tracer._after_fork)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.open: list[int] = []
        self.ids = itertools.count()

    def _after_fork(self) -> None:
        # A forked pool worker starts with an empty record and writes it when
        # the worker process exits.
        self._reset()
        util.Finalize(self, self.flush, exitpriority=10)

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self.ids)
            parent = self.open[-1] if self.open else None
            self.open.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.open.pop()
                self.spans.append({
                    "name": name, "pid": self.pid, "id": span_id, "parent": parent,
                    "start": start, "end": end,
                    "n": count(*args, **kwargs) if count else 1,
                })

        setattr(module, attr, traced)

    def flush(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with open(self.out_dir / f"spans-{self.pid}.jsonl", "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []


def install(out_dir: Path) -> Tracer:
    """Wrap every boundary in ``BOUNDARIES``; call before the first sweep."""
    import nmqrc.esp
    import nmqrc.hamiltonian
    import nmqrc.harness

    modules = {"harness": nmqrc.harness, "hamiltonian": nmqrc.hamiltonian, "esp": nmqrc.esp}
    tracer = Tracer(out_dir)
    for module, attr, name, count in BOUNDARIES:
        tracer.wrap(modules[module], attr, name, count)
    return tracer


def load_spans(out_dir: Path) -> list[dict]:
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh)
    return spans


# Per-layer metric -> (span name, "s" for summed seconds or "n" for summed count).
TOTALS = {
    "harness.config_s": ("harness.config", "s"),
    "harness.sweep_s": ("harness.sweep", "s"),
    "harness.jobs": ("harness.sweep", "n"),
    "hamiltonian.build_s": ("hamiltonian.build", "s"),
    "hamiltonian.build_calls": ("hamiltonian.build", "n"),
    "hamiltonian.eigh_s": ("hamiltonian.eigh", "s"),
    "hamiltonian.eigh_calls": ("hamiltonian.eigh", "n"),
    "reservoir.trajectory_s": ("reservoir.trajectory", "s"),
    "reservoir.trajectory_steps": ("reservoir.trajectory", "n"),
    "esp.dual_s": ("esp.dual", "s"),
    "esp.dual_inputs": ("esp.dual", "n"),
    "esp.trace_norm_s": ("esp.trace_norm", "s"),
    "esp.trace_norm_calls": ("esp.trace_norm", "n"),
    "esp.partial_trace_s": ("esp.partial_trace", "s"),
    "esp.partial_trace_calls": ("esp.partial_trace", "n"),
    "esp.csv_s": ("esp.csv", "s"),
    "linalg.pinv_s": ("linalg.pinv", "s"),
    "linalg.pinv_calls": ("linalg.pinv", "n"),
    "readout.score_s": ("readout.score", "s"),
    "readout.score_calls": ("readout.score", "n"),
    "tasks.narma_s": ("tasks.narma", "s"),
    "tasks.narma_calls": ("tasks.narma", "n"),
    "tasks.targets_s": ("tasks.targets", "s"),
}


def layer_metrics(spans: list[dict], rounds: int) -> dict[str, float]:
    """Per-layer totals per sweep round: seconds, exact counts, and the
    derived per-step times and harness self time."""
    seconds: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    child_s: dict[tuple, float] = defaultdict(float)
    for s in spans:
        seconds[s["name"]] += s["end"] - s["start"]
        counts[s["name"]] += s["n"]
        if s["parent"] is not None:
            child_s[(s["pid"], s["parent"])] += s["end"] - s["start"]
    self_s = sum(s["end"] - s["start"] - child_s[(s["pid"], s["id"])] for s in spans if s["name"] == "harness.sweep")

    out = {}
    for metric, (name, kind) in TOTALS.items():
        if kind == "s":
            out[metric] = seconds[name] / rounds
        else:
            if counts[name] % rounds:
                raise ValueError(f"{name}: {counts[name]} calls do not split evenly over {rounds} rounds")
            out[metric] = counts[name] // rounds
    out["harness.self_s"] = self_s / rounds
    out["reservoir.us_per_step"] = 1e6 * seconds["reservoir.trajectory"] / max(counts["reservoir.trajectory"], 1)
    out["esp.us_per_input"] = 1e6 * seconds["esp.dual"] / max(counts["esp.dual"], 1)
    return out


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if ".us_per_" in metric:
        return "us"
    return "count"
