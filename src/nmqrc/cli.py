"""Command-line entry point: nmqrc stm|narma|esp [options]."""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import ConfigError, NumericalError
from .harness import TASKS, load_config, run_esp, run_narma, run_stm


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmqrc",
        description="Run quantum-reservoir benchmark sweeps and emit plot-ready CSV.",
    )
    sub = parser.add_subparsers(dest="task", required=True)
    help_lines = {
        "stm": "delayed-reproduction memory sweep over delays",
        "narma": "autoregressive-series sweep over orders",
        "esp": "dual-trajectory echo-state diagnostics",
    }
    for task in TASKS:
        sp = sub.add_parser(task, help=help_lines[task])
        sp.add_argument("--config", metavar="FILE", default=None, help="JSON config file")
        sp.add_argument("--scale", choices=("paper", "quick"), default=None,
                        help="override scale parameters (quick: reduced CI scale)")
        sp.add_argument("--seeds", type=int, default=None, metavar="K",
                        help="use seeds 0..K-1 instead of the configured list")
        sp.add_argument("--out", default=None, metavar="DIR", help="output directory")
        sp.add_argument("--workers", type=int, default=None, metavar="N",
                        help="parallel worker processes (default 1)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(
            args.config,
            task=args.task,
            scale=args.scale,
            seeds_override=args.seeds,
            output_override=args.out,
            workers_override=args.workers,
        )
        if cfg.output_dir is None:
            # CLI runs exist to produce files; default next to the cwd.
            cfg = dataclasses.replace(cfg, output_dir="runs")
        if cfg.task == "stm":
            results = run_stm(cfg)
            _print_sweep(results, axis_name="tau_d")
        elif cfg.task == "narma":
            results = run_narma(cfg)
            _print_sweep(results, axis_name="order")
        else:
            results = run_esp(cfg)
            for r in results:
                print(
                    f"esp regime={r.regime} seed={r.seed} "
                    f"window_mean_sqnorm={r.stats.mean_sqnorm:.3e} "
                    f"backflow_count_sys={r.backflow_sys[0]}"
                )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(f"outputs written under {cfg.output_dir}/{cfg.task}")
    return 0


def _print_sweep(results, axis_name: str) -> None:
    for r in results:
        print(f"{r.regime} {axis_name}={r.axis} mean={r.mean:.4f} std={r.std:.4f} seeds={r.n_seeds}")


if __name__ == "__main__":
    sys.exit(main())
