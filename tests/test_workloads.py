"""The benchmark workloads take the class path of the step engine.

Each config under ``bench/workloads`` is read (never written) and one job
of each regime is started the way the harness starts it, with the step
engine recorded as it is built. A fall-back to the joined path (the whole
register as one class) would still give the right numbers, only slower, so
these shapes are what catches it.
"""

from pathlib import Path
from unittest import mock

import pytest

from nmqrc import esp, reservoir
from nmqrc.esp import dual_trajectory
from nmqrc.hamiltonian import build_hamiltonian
from nmqrc.harness import load_config, make_params, reservoir_config
from nmqrc.reservoir import run_trajectory

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads"

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
