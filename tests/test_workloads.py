"""The benchmark's view of the package stays valid.

Each config under ``bench/workloads`` is read (never written) and one job
of each regime is started the way the harness starts it, with the step
engine recorded as it is built. A fall-back to the joined path (the whole
register as one class) would still give the right numbers, only slower, so
these shapes are what catches it. ``bench/tracing.py`` is loaded, also
read only, to check that every name it wraps still exists.
"""

import importlib
from pathlib import Path
from unittest import mock

import pytest

from nmqrc import esp, reservoir
from nmqrc.esp import dual_trajectory
from nmqrc.hamiltonian import build_hamiltonian
from nmqrc.harness import load_config, make_params, reservoir_config
from nmqrc.reservoir import run_trajectory

BENCH = Path(__file__).resolve().parents[1] / "bench"
WORKLOADS = BENCH / "workloads"

# (classes, (k sectors, m states per sector, d states per class)): from the
# ground state the 4+3 registers step one environment-parity class, the
# echo-state pair both; the env-free NARMA register is one class of 2^5
EXPECTED = {
    "esp-divergence": (2, (2, 32, 64)),
    "narma-readout": (1, (2, 16, 32)),
    "stm-pool": (1, (2, 32, 64)),
    "stm-serial": (1, (2, 32, 64)),
}


def test_every_workload_has_an_expected_shape():
    assert sorted(p.stem for p in WORKLOADS.glob("*.json")) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_workload_engine_shape(name):
    cfg = load_config(WORKLOADS / f"{name}.json")
    built = []

    class Recorded(reservoir._StepEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    with mock.patch.object(reservoir, "_StepEngine", Recorded), mock.patch.object(esp, "_StepEngine", Recorded):
        for regime in cfg.regimes:
            real = build_hamiltonian(make_params(cfg, regime, cfg.seeds[0]))
            if cfg.task == "esp":
                dual_trajectory(real, [0.5], reservoir_config(cfg))
            else:
                run_trajectory(real, [0.5], reservoir_config(cfg))
    assert [(e.classes, e.shape) for e in built] == [EXPECTED[name]] * len(cfg.regimes)


def test_esp_workload_eigensolves_only_the_shared_class():
    # The default pair (I/d, |0><0|) shares only the ground state's class, so
    # the full-register distance eigensolves that 64-state block at step 0
    # and its 32 x 32 carried block per input; the other goes by |Tr|. The
    # (16, 16) calls are the system marginal. A whole-stack fall-back would
    # give the same distances, slower.
    cfg = load_config(WORKLOADS / "esp-divergence.json")
    with mock.patch.object(esp, "trace_norm", wraps=esp.trace_norm) as traced:
        for regime in cfg.regimes:
            dual_trajectory(build_hamiltonian(make_params(cfg, regime, cfg.seeds[0])), [0.5, 0.5],
                            reservoir_config(cfg))
    step0, per_input = [(1, 64, 64), (16, 16)], [(1, 32, 32), (16, 16)]
    assert [c.args[0].shape for c in traced.call_args_list] == (step0 + per_input * 2) * len(cfg.regimes)


def test_every_traced_boundary_resolves():
    # bench/run.py --trace 1 wraps each (module, attribute); a name dropped
    # by a refactor would break the traced run, not the package's tests
    path = BENCH / "tracing.py"
    tracing = {"__name__": "bench_tracing"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracing)
    missing = [(module, attr) for module, attr, *_ in tracing["BOUNDARIES"]
               if not callable(getattr(importlib.import_module(f"nmqrc.{module}"), attr, None))]
    assert len(tracing["BOUNDARIES"]) >= 15
    assert missing == []
