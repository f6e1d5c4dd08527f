"""The nmqrc benchmark: one workload per invocation, run from the repo root.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is a config file in ``bench/workloads``. ``--seed N`` sets its
seed list to [2N, 2N+1]; realizations and the ``SeedSequence([k, 1])`` input
streams follow from those seeds. The benchmark then

1. times, in fresh interpreters, ``import nmqrc`` plus ``load_config`` of the
   workload's config (``setup_s``, the median of several);
2. runs the sweep in ``PROCESSES`` fresh interpreters in turn (``sweep.py``),
   each for whole rounds over about its share of ``--seconds``, timing each
   ``run_*`` call; spreading a run over several processes evens out
   the speed differences between one interpreter process and the next;
3. checks every round's outputs (``checks.py``) outside the timed region;
4. prints, as its last line, one JSON object with ``correct``, ``attempted``
   and ``failed`` (counted in (regime, seed) jobs) and the metrics: the
   end-to-end ones with ``--trace 0``, the per-layer ones from a traced
   sweep with ``--trace 1``.

Run outputs, span files and each sweep process's record (round times, peak
resident set, environment) go to ``bench/runs/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = sorted(path.stem for path in (BENCH / "workloads").glob("*.json"))
SEEDS_PER_ROUND = 2
PROCESSES = 5
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150

SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import nmqrc
nmqrc.load_config(sys.argv[2])
print(time.perf_counter() - t0)
"""


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a job that failed)."""


def _child(cmd: list[str], timeout: float) -> str:
    """Run a child in its own process group; on timeout the whole group,
    pool workers included, is killed and reaped."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[1]} ran past {timeout} s")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:2])} exited with {proc.returncode}")
    return out


def setup_seconds(config: Path) -> float:
    times = [float(_child([sys.executable, "-c", SETUP_PROBE, str(ROOT / "src"), str(config)], 60))
             for _ in range(SETUP_PROBES)]
    return statistics.median(times)


def sweep(config: Path, out: Path, seconds: float, workers=None, trace_dir=None) -> dict:
    result = out.with_suffix(".json")
    cmd = [sys.executable, str(BENCH / "sweep.py"), "--config", str(config), "--out", str(out),
           "--seconds", str(seconds), "--result", str(result)]
    if workers is not None:
        cmd += ["--workers", str(workers)]
    if trace_dir is not None:
        cmd += ["--trace", str(trace_dir)]
    _child(cmd, CHILD_TIMEOUT_S)
    return json.loads(result.read_text())


def failed_jobs(cfg: dict, rounds: list[tuple[Path, dict]], serial: Path | None) -> tuple[set, bool]:
    """(round, regime, seed) jobs whose sweep raised or whose outputs fail a
    check, and whether every check passed. ``rounds`` pairs each round's
    output directory with its sweep record.

    The first round that completed is checked in full; every later round must
    match it byte for byte, so a check failure in it covers every round.
    """
    jobs = [(regime, seed) for regime in cfg["regimes"] for seed in cfg["seeds"]]
    done = [r for r, (_, info) in enumerate(rounds) if info["ok"]]
    failed = {(r, *job) for r, (_, info) in enumerate(rounds) if not info["ok"] for job in jobs}
    if not done:
        return failed, True
    base = rounds[done[0]][0]
    if cfg["task"] == "stm":
        problems = checks.check_stm(cfg, base, with_reference=serial is None)
    elif cfg["task"] == "narma":
        problems = checks.check_narma(cfg, base)
    else:
        problems = checks.check_esp(cfg, base)
    names = checks.regime_files(cfg)
    for regime in cfg["regimes"]:
        regime_dir = Path(cfg["task"]) / regime
        if serial is not None and not checks.same_files(base / regime_dir, serial / regime_dir, names):
            problems[regime] = "outputs differ from the one-worker run"
        for r in done[1:]:
            if not checks.same_files(base / regime_dir, rounds[r][0] / regime_dir, names):
                problems.setdefault(regime, f"{rounds[r][0]} differs from {base}")
                failed |= {(r, regime, seed) for seed in cfg["seeds"]}
    for key, reason in problems.items():
        print(f"check failed for {key}: {reason}", file=sys.stderr)
        regime, seeds = (key, cfg["seeds"]) if isinstance(key, str) else (key[0], [key[1]])
        failed |= {(r, regime, seed) for r in done for seed in seeds}
    return failed, not problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "nmqrc" / "__init__.py").is_file():
        print(f"no nmqrc package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = BENCH / "runs" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cfg = json.loads((BENCH / "workloads" / f"{args.workload}.json").read_text())
    cfg["seeds"] = [SEEDS_PER_ROUND * args.seed + i for i in range(SEEDS_PER_ROUND)]
    config = run_dir / "config.json"
    config.write_text(json.dumps(cfg, indent=2))

    try:
        setup = None if args.trace else setup_seconds(config)
        trace_dir = run_dir / "spans" if args.trace else None
        results = [sweep(config, run_dir / f"out{i}", args.seconds / PROCESSES, trace_dir=trace_dir)
                   for i in range(PROCESSES)]
        rounds = [(run_dir / f"out{i}" / f"round{r}", info)
                  for i, result in enumerate(results) for r, info in enumerate(result["rounds"])]
        serial = None
        if cfg["workers"] > 1:
            sweep(config, run_dir / "serial", 0, workers=1)
            serial = run_dir / "serial" / "round0"
        failed, correct = failed_jobs(cfg, rounds, serial)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    jobs = len(cfg["regimes"]) * len(cfg["seeds"])
    length = cfg["esp_steps"] if cfg["task"] == "esp" else cfg["washout"] + cfg["train"] + cfg["val"]
    if args.trace:
        layers = tracing.layer_metrics(tracing.load_spans(trace_dir), len(rounds))
        metrics = {name: {"value": value, "unit": tracing.unit(name)} for name, value in layers.items()}
    else:
        steps_per_s = jobs * length * len(rounds) / sum(info["sweep_s"] for _, info in rounds)
        metrics = {
            "steps_per_s": {"value": steps_per_s, "unit": "steps/s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in results), "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": jobs * len(rounds), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
