import csv
import dataclasses
import gc
import json
import os
import platform
import re
import subprocess
import sys
import weakref
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

import nmqrc
import nmqrc.cli as cli
from nmqrc import harness
from nmqrc.errors import ConfigError, DivergenceError, NumericalError
from nmqrc.harness import (
    ExperimentConfig,
    RegimeSpec,
    aggregate,
    config_to_dict,
    load_config,
    make_params,
    parse_regime,
    run_esp,
    run_narma,
    run_stm,
)
from nmqrc.hamiltonian import build_hamiltonian
from nmqrc.linalg import DEFAULT_RCOND
from nmqrc.readout import squared_correlation
from nmqrc.reservoir import ReservoirConfig, run_trajectory
from nmqrc.tasks import SplitSpec, narma_series


def tiny_stm_config(tmp_path=None, **over):
    kwargs = dict(
        task="stm", n_sys=2, n_env=1, h_sys=0.5, tau=0.5, v=3,
        split=SplitSpec(30, 80, 40), seeds=(0, 1), tau_d_max=3,
        regimes=(parse_regime("markov", "stm"), parse_regime("non_markov", "stm")),
        output_dir=str(tmp_path) if tmp_path else None,
    )
    kwargs.update(over)
    return ExperimentConfig(**kwargs)


class TestRegimes:
    def test_presets_by_task(self):
        assert parse_regime("markov", "stm") == RegimeSpec("markov", 10.0, 0.01)
        assert parse_regime("markov", "narma") == RegimeSpec("markov", 5.0, 0.1)
        assert parse_regime("non_markov", "esp") == RegimeSpec("non_markov", 0.01, 10.0)
        assert parse_regime("intermediate", "stm") == RegimeSpec("intermediate", 1.0, 1.0)

    def test_fn_baseline(self):
        fn = parse_regime("fn", "narma")
        assert fn.n_env == 0

    def test_custom_triple(self):
        r = parse_regime("weak:0.5:2.0", "stm")
        assert (r.label, r.alpha, r.beta) == ("weak", 0.5, 2.0)

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError, match="preset"):
            parse_regime("markovian", "stm")

    @pytest.mark.parametrize("label", ["../x", "a/b", ".", "..", "a\\b"])
    def test_label_that_is_not_one_directory_rejected(self, label):
        # the label names the regime's output directory
        with pytest.raises(ConfigError, match=re.escape(repr(label))):
            RegimeSpec(label, 1.0, 1.0)
        with pytest.raises(ConfigError, match="output directory"):
            parse_regime(f"{label}:1:1", "esp")

    @pytest.mark.parametrize("alpha, beta", [(True, 1.0), (1.0, False), ("1", 1.0), (1.0, None), (np.nan, 1.0)])
    def test_non_real_rates_rejected(self, alpha, beta):
        # alpha = True used to build a regime of alpha 1
        with pytest.raises(ConfigError, match="^regime 'x': (alpha|beta) must be (a real number|finite)"):
            RegimeSpec("x", alpha, beta)

    def test_numpy_rates_stored_as_floats(self):
        r = RegimeSpec("x", np.float32(0.5), np.int64(2))
        assert (r.alpha, r.beta) == (0.5, 2.0)
        assert all(type(x) is float for x in (r.alpha, r.beta))


class TestExperimentConfig:
    def test_h_env_defaults_to_alpha_j0(self):
        cfg = tiny_stm_config()
        p = make_params(cfg, cfg.regimes[0], seed=0)
        assert p.h_env == pytest.approx(10.0 * cfg.j0)

    def test_h_env_override(self):
        cfg = tiny_stm_config(h_env=0.25)
        p = make_params(cfg, cfg.regimes[0], seed=0)
        assert p.h_env == 0.25

    def test_fn_regime_forces_env_free(self):
        cfg = ExperimentConfig(task="narma", n_sys=2, n_env=1, v=2, tau=1.0,
                               split=SplitSpec(30, 40, 20), seeds=(0,), orders=(1, 2),
                               regimes=(parse_regime("fn", "narma"),))
        p = make_params(cfg, cfg.regimes[0], seed=0)
        assert p.n_env == 0

    def test_tau_d_must_fit_washout(self):
        with pytest.raises(ConfigError, match="washout"):
            tiny_stm_config(tau_d_max=30)

    def test_register_cap_via_regimes(self):
        with pytest.raises(ConfigError, match="cap"):
            tiny_stm_config(n_sys=7, n_env=6)

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigError, match="distinct"):
            tiny_stm_config(seeds=(0, 0))

    def test_window_validation(self):
        with pytest.raises(ConfigError, match="window"):
            ExperimentConfig(task="esp", n_sys=2, n_env=1, v=2, seeds=(0,),
                             esp_steps=10, window=(8, 20),
                             regimes=(parse_regime("markov", "esp"),))

    @pytest.mark.parametrize("task, field, value", [
        ("esp", "esp_steps", 2.5), ("esp", "esp_steps", True), ("stm", "tau_d_max", 2.5),
        ("stm", "workers", 1.5), ("stm", "n_sys", 2.0), ("narma", "n_env", 1.0), ("stm", "v", True),
        ("esp", "window", (0.5, 2.5)), ("stm", "seeds", (0, True)), ("narma", "orders", (1, 2.0)),
    ])
    def test_non_integer_fields_rejected(self, task, field, value):
        # esp_steps = 2.5 and tau_d_max = 2.5 used to construct and then raise a
        # bare TypeError mid-sweep; workers = 1.5 and esp_steps = True constructed
        base = load_config(task=task, scale="quick")
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            dataclasses.replace(base, **{field: value})

    @pytest.mark.parametrize("field, value", [("h_sys", True), ("j0", "1"), ("h_env", False), ("h_env", "0.5"),
                                              ("j0", None), ("h_sys", 1j), ("tau", True)])
    def test_non_real_fields_rejected(self, field, value):
        # h_sys = True used to run as h_sys = 1, and j0 = "1" escaped as
        # numpy's TypeError
        with pytest.raises(ConfigError, match=f"^{field} must be a real number"):
            tiny_stm_config(**{field: value})

    def test_non_finite_h_env_rejected(self):
        with pytest.raises(ConfigError, match="^h_env must be finite"):
            tiny_stm_config(h_env=np.inf)

    def test_numpy_reals_stored_as_floats(self):
        # a numpy float32 tau used to fail the run_meta.json echo
        cfg = tiny_stm_config(j0=np.float32(0.5), h_sys=np.int64(1), h_env=np.float64(0.25), tau=np.float32(0.5))
        assert (cfg.j0, cfg.h_sys, cfg.h_env, cfg.tau) == (0.5, 1.0, 0.25, 0.5)
        json.dumps(config_to_dict(cfg))  # the run_meta.json echo

    def test_numpy_integers_stored_as_ints(self):
        cfg = tiny_stm_config(workers=np.int64(2), seeds=(np.int32(0), np.int64(1)), tau_d_max=np.int16(3))
        assert cfg == tiny_stm_config(workers=2, seeds=(0, 1), tau_d_max=3)
        json.dumps(config_to_dict(cfg))  # the run_meta.json echo

    @pytest.mark.parametrize("field, value", [
        ("seeds", 5), ("orders", 3), ("regimes", ("markov",)), ("regimes", RegimeSpec("x", 1.0, 1.0)),
        ("split", (10, 20, 5)), ("window", (1,)), ("output_dir", 5),
    ])
    def test_malformed_fields_rejected(self, field, value):
        # each used to escape as a TypeError, an AttributeError or an
        # unpacking ValueError, or (window, output_dir) to be accepted
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            tiny_stm_config(**{field: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="non-negative"):
            tiny_stm_config(seeds=(0, -1))

    def test_orders_must_fit_washout(self):
        with pytest.raises(ConfigError, match="washout"):
            ExperimentConfig(task="narma", n_sys=2, n_env=1, v=2, seeds=(0,),
                             split=SplitSpec(10, 40, 20), orders=(20,),
                             regimes=(parse_regime("markov", "narma"),))


class TestDefaultsAndFiles:
    def test_all_task_defaults_validate(self):
        for task in ("stm", "narma", "esp"):
            cfg = load_config(task=task)
            assert cfg.task == task

    def test_stm_protocol_defaults(self):
        cfg = load_config(task="stm")
        assert (cfg.n_sys, cfg.n_env) == (4, 3)
        assert (cfg.tau, cfg.v) == (0.5, 50)
        assert cfg.h_sys == cfg.j0 / 2
        assert cfg.observables == "z_only"
        assert cfg.split == SplitSpec(1000, 3000, 1000)
        assert cfg.seeds == tuple(range(10))
        alphas = {r.label: (r.alpha, r.beta) for r in cfg.regimes}
        assert alphas == {"markov": (10.0, 0.01), "non_markov": (0.01, 10.0),
                          "intermediate": (1.0, 1.0)}

    def test_narma_protocol_defaults(self):
        cfg = load_config(task="narma")
        assert (cfg.n_sys, cfg.n_env) == (5, 2)
        assert (cfg.tau, cfg.v) == (0.5, 20)
        assert cfg.h_sys == cfg.j0
        assert cfg.observables == "z_and_zz"
        assert cfg.orders == (1, 5, 10, 20, 30, 40, 50)
        alphas = {r.label: (r.alpha, r.beta) for r in cfg.regimes if r.label != "fn"}
        assert alphas == {"markov": (5.0, 0.1), "non_markov": (0.1, 5.0),
                          "intermediate": (1.0, 1.0)}

    def test_esp_protocol_defaults(self):
        cfg = load_config(task="esp")
        assert (cfg.n_sys, cfg.n_env) == (4, 3)
        assert (cfg.tau, cfg.v) == (0.5, 50)
        assert cfg.esp_steps == 2500
        assert cfg.window == (1500, 2500)

    def test_quick_scale(self):
        cfg = load_config(task="stm", scale="quick")
        assert cfg.v == 10
        assert cfg.split == SplitSpec(200, 600, 200)
        assert cfg.seeds == (0, 1, 2)

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        doc = {"schema_version": 1, "task": "stm", "n_sys": 3, "n_env": 2, "v": 4,
               "washout": 50, "train": 100, "val": 50, "tau_d_max": 5,
               "seeds": [0, 1, 2], "regimes": ["markov", "custom:0.2:3.0"]}
        path.write_text(json.dumps(doc))
        cfg = load_config(path, task="stm")
        assert cfg.n_sys == 3 and cfg.v == 4
        assert cfg.split == SplitSpec(50, 100, 50)
        assert cfg.regimes[1].beta == 3.0
        echo = config_to_dict(cfg)
        assert echo["regimes"] == ["markov", "custom:0.2:3.0"]

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": 1, "task": "stm", "tau_dmax": 3}))
        with pytest.raises(ConfigError, match="tau_dmax"):
            load_config(path)

    def test_wrong_task_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": 1, "task": "stm", "orders": [1, 2]}))
        with pytest.raises(ConfigError, match="not applicable"):
            load_config(path)

    def test_schema_version_required(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"task": "stm"}))
        with pytest.raises(ConfigError, match="schema_version"):
            load_config(path)
        for version in (True, 1.0, 2, "1"):
            path.write_text(json.dumps({"schema_version": version, "task": "stm"}))
            with pytest.raises(ConfigError, match="schema_version"):
                load_config(path)

    @pytest.mark.parametrize("task", ["stm", "narma", "esp"])
    def test_run_meta_config_loads_back(self, tmp_path, task):
        # the config echoed into run_meta.json is a config file for the same run
        cfg = dataclasses.replace(load_config(task=task, scale="quick"), output_dir=str(tmp_path), h_env=0.25,
                                  regimes=(parse_regime("markov", task), parse_regime("odd:0.5:2.0", task)))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        assert load_config(path) == cfg

    @pytest.mark.parametrize("task", ["stm", "narma", "esp"])
    def test_config_echo_without_output_dir_loads_back(self, tmp_path, task):
        cfg = load_config(task=task, scale="quick")
        assert cfg.output_dir is None
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(cfg)))  # "output_dir": null
        assert load_config(path) == cfg

    def test_task_mismatch(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": 1, "task": "stm"}))
        with pytest.raises(ConfigError, match="task"):
            load_config(path, task="narma")

    def test_type_errors_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": 1, "task": "stm", "v": "fifty"}))
        with pytest.raises(ConfigError, match="^v must be"):
            load_config(path)

    @pytest.mark.parametrize("key, value, match", [("tau", True, "a real number"), ("j0", "1", "a real number"),
                                                   ("h_sys", float("nan"), "finite"), ("h_env", float("inf"), "finite"),
                                                   ("tau", 10 ** 400, "finite")])  # an int no float holds
    def test_number_values_named(self, tmp_path, key, value, match):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": 1, "task": "stm", key: value}))
        with pytest.raises(ConfigError, match=f"^{key} must be {match}"):
            load_config(path)

    @pytest.mark.parametrize("task, key", [(task, key) for task in harness.TASKS
                                           for key in config_to_dict(load_config(task=task))])
    def test_wrong_json_type_names_the_key(self, tmp_path, task, key):
        # every file key, window_start and window_end included, is named as
        # itself, not as the ExperimentConfig field it feeds
        doc = config_to_dict(load_config(task=task))
        default = doc[key]
        if key in ("h_env", "output_dir"):  # null is valid here
            wrong = ["0.5", True] if key == "h_env" else [5, True, ["runs"]]
        elif isinstance(default, int):
            wrong = ["7", 2.5, True, None]
        elif isinstance(default, float):
            wrong = ["0.5", True, None]
        elif isinstance(default, str):
            wrong = [5, None, [default]]
        else:
            wrong = [5, json.dumps(default), {"0": 1}, [None], None]
        path = tmp_path / "cfg.json"
        for value in wrong:
            path.write_text(json.dumps({**doc, key: value}))
            with pytest.raises(ConfigError, match=rf"^{key}\b"):
                load_config(path)

    def test_overrides(self):
        cfg = load_config(None, task="stm", scale="quick", seeds_override=2,
                          output_override="somewhere", workers_override=2)
        assert cfg.seeds == (0, 1)
        assert cfg.output_dir == "somewhere"
        assert cfg.workers == 2


class TestAggregate:
    def test_single(self):
        assert aggregate([0.7]) == (0.7, 0.0)

    def test_pair(self):
        assert aggregate([0.0, 2.0]) == (1.0, 1.0)

    def test_equal_scores(self):
        mean, std = aggregate([0.5] * 10)
        assert (mean, std) == (0.5, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no scores"):
            aggregate([])


class TestRunStm:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = tiny_stm_config(tmp_path / "a")
        results = run_stm(cfg)
        assert len(results) == 2 * 4  # regimes x delays
        for r in results:
            assert len(r.scores) == 2
            assert 0.0 <= min(r.scores) and max(r.scores) <= 1.0
        delay0 = [r for r in results if r.axis == 0]
        for r in delay0:
            assert r.mean > 0.9  # current input is directly encoded

        summary = tmp_path / "a" / "stm" / "markov" / "summary.csv"
        with open(summary, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["tau_d", "regime", "mean_cstm", "std_cstm", "n_seeds"]
        assert len(rows) == 5
        assert (tmp_path / "a" / "stm" / "markov" / "couplings_seed1.json").exists()
        assert (tmp_path / "a" / "stm" / "run_meta.json").exists()

        run_stm(tiny_stm_config(tmp_path / "b"))
        files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b and files_a
        for rel in files_a:
            if rel.name == "run_meta.json":
                continue  # echoes output_dir, which differs by construction
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel

    def test_run_meta_times_the_run(self, tmp_path):
        before = datetime.now(timezone.utc)
        run_stm(tiny_stm_config(tmp_path))
        after = datetime.now(timezone.utc)
        meta = json.loads((tmp_path / "stm" / "run_meta.json").read_text())
        started, finished = (datetime.fromisoformat(meta[key]) for key in ("started_utc", "finished_utc"))
        assert started.utcoffset() == finished.utcoffset() == timedelta(0)
        assert before <= started <= finished <= after
        assert 0.0 <= meta["wall_s"] <= (after - before).total_seconds()
        assert {"config", "input_stream_policy", "environment"} <= set(meta)

    def test_worker_pool_matches_serial(self, tmp_path):
        serial = run_stm(tiny_stm_config())
        pooled = run_stm(tiny_stm_config(workers=2))
        assert serial == pooled

    def test_task_guard(self):
        with pytest.raises(ConfigError, match="run_stm"):
            run_stm(load_config(task="esp", scale="quick"))


def test_import_leaves_the_process_pool_out():
    # a serial run never starts a pool, so importing the package must not
    # load multiprocessing
    code = "import sys, nmqrc; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(nmqrc.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def worker_blas_threads(job):
    """Stands in for harness._job in a pool: the worker's BLAS thread count."""
    return harness._blas_threads()[1]()


class TestWorkerPool:
    def test_workers_run_one_blas_thread(self, monkeypatch):
        found = harness._blas_threads()
        if found is None:
            pytest.skip("no loaded OpenBLAS with a known thread setter")
        set_threads, get_threads = found
        monkeypatch.setattr(harness, "_job", worker_blas_threads)
        before = get_threads()
        try:
            set_threads(2)
            assert harness._run_jobs(tiny_stm_config(workers=2), [0, 1, 2, 3]) == ([1, 1, 1, 1], True)
            assert harness._run_jobs(tiny_stm_config(workers=1), [0, 1]) == ([1, 1], True)
            assert get_threads() == 2  # the caller's count comes back
        finally:
            set_threads(before)

    def test_run_meta_says_whether_workers_were_pinned(self, tmp_path):
        pinnable = harness._blas_threads() is not None
        for workers in (1, 2):
            run_stm(tiny_stm_config(tmp_path / str(workers), workers=workers))
            meta = json.loads((tmp_path / str(workers) / "stm" / "run_meta.json").read_text())
            assert meta["environment"]["pool_blas_pinned"] is (workers == 2 and pinnable)
            assert meta["environment"]["jobs_blas_pinned"] is pinnable

    def test_summaries_do_not_depend_on_the_worker_count(self, tmp_path):
        # A 3000-row training design is large enough for a multi-threaded
        # BLAS to split its pseudoinverse, and its rounding then differs
        # from the single-threaded one; designs of a few hundred rows run on
        # one thread either way.
        if harness._blas_threads() is None:
            pytest.skip("no loaded OpenBLAS with a known thread setter")
        split = SplitSpec(100, 3000, 100)
        configs = {
            "stm": tiny_stm_config(v=100, split=split, regimes=(parse_regime("non_markov", "stm"),)),
            "narma": tiny_narma_config(n_sys=4, n_env=0, tau=0.5, v=20, split=split, orders=(1, 5, 10),
                                       regimes=(parse_regime("fn", "narma"),)),
            "esp": ExperimentConfig(task="esp", n_sys=4, n_env=3, tau=0.5, v=50, multiplex="sub_step",
                                    seeds=(0, 1), esp_steps=100, window=(50, 101),
                                    regimes=(parse_regime("non_markov", "esp"),)),
        }
        for task, cfg in configs.items():
            outputs = []
            names = ["summary.csv", *(f"records_seed{seed}.csv" for seed in cfg.seeds if task == "esp")]
            for workers in (1, 2):
                out = tmp_path / f"{task}{workers}"
                getattr(harness, f"run_{task}")(dataclasses.replace(cfg, output_dir=str(out), workers=workers))
                outputs.append([(out / task / cfg.regimes[0].label / name).read_bytes() for name in names])
            assert outputs[0] == outputs[1], task


class TestRunNarma:
    def test_sweep_and_fn_baseline(self, tmp_path):
        cfg = ExperimentConfig(
            task="narma", n_sys=2, n_env=1, h_sys=1.0, tau=1.0, v=3,
            observables="z_and_zz", split=SplitSpec(30, 80, 40), seeds=(0, 1),
            orders=(1, 2), output_dir=str(tmp_path),
            regimes=(parse_regime("fn", "narma"), parse_regime("non_markov", "narma")),
        )
        results = run_narma(cfg)
        assert len(results) == 2 * 2
        summary = tmp_path / "narma" / "fn" / "summary.csv"
        with open(summary, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["order", "tau", "regime", "mean_r2", "std_r2", "n_seeds"]
        fn_doc = json.loads((tmp_path / "narma" / "fn" / "couplings_seed0.json").read_text())
        assert fn_doc["params"]["n_env"] == 0
        assert fn_doc["j_env"] == []

    def test_fn_label_is_cosmetic(self):
        # an explicit (alpha, beta) = (0, 0) regime on an env-free register
        # must produce byte-identical scores to the fn preset
        base = dict(task="narma", n_sys=2, h_sys=1.0, tau=1.0, v=3,
                    split=SplitSpec(30, 60, 30), seeds=(0,), orders=(1,))
        via_fn = run_narma(ExperimentConfig(n_env=1, regimes=(parse_regime("fn", "narma"),), **base))
        via_custom = run_narma(ExperimentConfig(n_env=0, regimes=(parse_regime("bare:0:0", "narma"),), **base))
        assert via_fn[0].scores == via_custom[0].scores

    def test_order_one_learnable(self):
        # order-1 series is a short-memory quadratic map; even a tiny
        # reservoir should explain most of the validation variance
        cfg = ExperimentConfig(
            task="narma", n_sys=3, n_env=0, h_sys=1.0, tau=1.0, v=4,
            observables="z_and_zz", split=SplitSpec(50, 300, 100), seeds=(0,),
            orders=(1,), regimes=(parse_regime("fn", "narma"),),
        )
        results = run_narma(cfg)
        assert results[0].mean > 0.8


class TestRunEsp:
    def test_records_and_summary(self, tmp_path):
        cfg = ExperimentConfig(
            task="esp", n_sys=2, n_env=1, tau=0.5, v=3, seeds=(0, 1),
            esp_steps=40, window=(20, 40), output_dir=str(tmp_path),
            regimes=(parse_regime("markov", "esp"), parse_regime("non_markov", "esp")),
        )
        results = run_esp(cfg)
        assert len(results) == 4
        for res in results:
            assert len(res.records) == 41
            assert res.records[0].step == 0
        rec_file = tmp_path / "esp" / "markov" / "records_seed0.csv"
        with open(rec_file, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "sqnorm_diff", "trace_distance_full", "trace_distance_sys"]
        assert len(rows) == 42
        summary = tmp_path / "esp" / "markov" / "summary.csv"
        with open(summary, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["seed", "regime", "window_mean_sqnorm", "window_max_sqnorm", "backflow_count_sys"]
        meta = json.loads((tmp_path / "esp" / "run_meta.json").read_text())
        assert "input_stream_policy" in meta
        env = meta["environment"]
        assert env["numpy"] == np.__version__ and env["nmqrc"] == nmqrc.__version__
        assert env["python"] == platform.python_version()
        assert env["cpu_count"] == os.cpu_count()
        assert env["blas"] is None or "name" in env["blas"]
        assert env["threads"] == {var: os.environ.get(var)
                                  for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

    def test_worker_pool_writes_the_same_files(self, tmp_path):
        def run(workers):
            out = tmp_path / f"w{workers}"
            run_esp(ExperimentConfig(
                task="esp", n_sys=2, n_env=1, tau=0.5, v=3, multiplex="sub_step", seeds=(0, 1),
                esp_steps=30, window=(10, 30), output_dir=str(out), workers=workers,
                regimes=(parse_regime("markov", "esp"), parse_regime("non_markov", "esp")),
            ))
            return {p.relative_to(out): p.read_bytes() for p in (out / "esp").glob("*/*.csv")}

        serial = run(1)
        assert len(serial) == 2 * 3  # per regime: summary.csv and two records_seed*.csv
        assert run(2) == serial

    def test_input_streams_shared_across_regimes(self, tmp_path):
        cfg = ExperimentConfig(
            task="esp", n_sys=2, n_env=1, tau=0.5, v=2, seeds=(3,),
            esp_steps=10, window=(5, 10),
            regimes=(parse_regime("markov", "esp"), parse_regime("intermediate", "esp")),
        )
        results = run_esp(cfg)
        # same seed, same inputs: step-0 snapshots identical by construction
        assert results[0].records[0] == results[1].records[0]


# The names the job reaches each layer through; a tracer wraps them there.
TRACED = ("build_hamiltonian", "run_trajectory", "dual_trajectory", "pseudoinverse",
          "squared_correlation", "narma_series", "stm_targets", "records_to_csv")


@pytest.fixture
def calls(monkeypatch):
    """Count the calls through each traced name on ``nmqrc.harness``."""
    counts = dict.fromkeys(TRACED, 0)
    for name in TRACED:
        def counted(*args, _fn=getattr(harness, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(harness, name, counted)
    return counts


def tiny_narma_config(**over):
    kwargs = dict(
        task="narma", n_sys=2, n_env=1, h_sys=1.0, tau=1.0, v=3, observables="z_and_zz",
        split=SplitSpec(30, 80, 40), seeds=(0, 1), orders=(1, 2),
        regimes=(parse_regime("fn", "narma"), parse_regime("non_markov", "narma")),
    )
    kwargs.update(over)
    return ExperimentConfig(**kwargs)


class TestJob:
    def test_stm_calls(self, calls, tmp_path):
        run_stm(tiny_stm_config(tmp_path))  # 2 regimes x 2 seeds, delays 0..3
        assert calls == dict.fromkeys(TRACED, 0) | dict(
            build_hamiltonian=4, run_trajectory=4, pseudoinverse=4, stm_targets=16, squared_correlation=16)

    def test_narma_calls(self, calls, tmp_path):
        run_narma(tiny_narma_config(output_dir=str(tmp_path)))  # 2 regimes x 2 seeds, orders 1, 2
        assert calls == dict.fromkeys(TRACED, 0) | dict(
            build_hamiltonian=4, run_trajectory=4, pseudoinverse=4, narma_series=8, squared_correlation=8)

    def test_esp_calls(self, calls, tmp_path):
        cfg = ExperimentConfig(
            task="esp", n_sys=2, n_env=1, tau=0.5, v=2, seeds=(0, 1), esp_steps=10, window=(5, 10),
            output_dir=str(tmp_path),
            regimes=(parse_regime("markov", "esp"), parse_regime("non_markov", "esp")),
        )
        run_esp(cfg)
        assert calls == dict.fromkeys(TRACED, 0) | dict(build_hamiltonian=4, dual_trajectory=4, records_to_csv=4)

    @pytest.mark.parametrize("task", ["stm", "narma"])
    def test_scores_are_the_pseudoinverse_readout(self, task):
        # every score, recomputed from the trajectory's features with numpy's
        # pseudoinverse on the same washout / train / validation split
        narma = task == "narma"
        make = tiny_narma_config if narma else tiny_stm_config
        cfg = make(seeds=(1,), regimes=(parse_regime("non_markov", task),))
        results = (run_narma if narma else run_stm)(cfg)
        hi = 0.5 if narma else 1.0
        u = np.random.default_rng(np.random.SeedSequence([1, 1])).uniform(0.0, hi, cfg.split.total)
        rcfg = ReservoirConfig(tau=cfg.tau, v=cfg.v, observables=cfg.observables, multiplex=cfg.multiplex)
        x = run_trajectory(build_hamiltonian(make_params(cfg, cfg.regimes[0], 1)), u / hi, rcfg)[0].values
        train, val = cfg.split.train_slice, cfg.split.val_slice
        pinv = np.linalg.pinv(x[train], rcond=1e-12)
        assert [r.axis for r in results] == list(cfg.orders if narma else range(cfg.tau_d_max + 1))
        for r in results:
            y = narma_series(u, r.axis) if narma else np.concatenate([np.zeros(r.axis), u[:u.size - r.axis]])
            assert abs(r.scores[0] - squared_correlation(y[val], x[val] @ (pinv @ y[train]))) <= 1e-12

    @pytest.mark.parametrize("task", ["stm", "narma"])
    def test_features_released_before_the_qr(self, task, monkeypatch):
        # the job copies out the rows the fit needs, so no feature matrix is
        # alive beside the QR's copies of the training block
        values, alive = [], []
        trajectory, qr = harness.run_trajectory, np.linalg.qr

        def keep_ref(*args, **kwargs):
            feats, final = trajectory(*args, **kwargs)
            values.append(weakref.ref(feats.values))
            return feats, final

        def checked_qr(*args, **kwargs):
            gc.collect()
            alive.append([ref() is not None for ref in values])
            return qr(*args, **kwargs)

        monkeypatch.setattr(harness, "run_trajectory", keep_ref)
        monkeypatch.setattr(np.linalg, "qr", checked_qr)
        narma = task == "narma"
        make = tiny_narma_config if narma else tiny_stm_config
        (run_narma if narma else run_stm)(make(seeds=(0, 1), regimes=(parse_regime("non_markov", task),)))
        assert alive == [[False], [False, False]]

    def test_diverging_target_keeps_its_type_and_context(self, monkeypatch):
        def diverge(u, order):
            raise DivergenceError("synthetic")
        monkeypatch.setattr(harness, "narma_series", diverge)
        with pytest.raises(DivergenceError, match=r"regime=fn, seed=0, order=1\b"):
            run_narma(tiny_narma_config())

    def test_trajectory_failure_names_the_run(self, monkeypatch):
        def fail(*args, **kwargs):
            raise NumericalError("synthetic")
        monkeypatch.setattr(harness, "run_trajectory", fail)
        with pytest.raises(NumericalError, match=r"stm run failed \(regime=markov, seed=0\): synthetic"):
            run_stm(tiny_stm_config())

    def test_readout_failure_names_the_run(self, monkeypatch):
        def fail(a):
            raise NumericalError("SVD failed to converge: synthetic")
        monkeypatch.setattr(harness, "pseudoinverse", fail)
        with pytest.raises(NumericalError, match=r"stm readout failed \(regime=markov, seed=0\): SVD failed"):
            run_stm(tiny_stm_config())

    def test_score_does_not_depend_on_the_other_points(self):
        # one QR serves every target, so a point's score may move only in its
        # last bits when other points join the sweep
        def order_two(orders):
            results = run_narma(tiny_narma_config(orders=orders))
            return [r.scores for r in results if r.axis == 2]
        for both, alone in zip(order_two((1, 2)), order_two((2,)), strict=True):
            assert np.max(np.abs(np.subtract(both, alone))) <= 1e-12


class TestReadout:
    """``harness._readout`` against numpy's pseudoinverse of the training
    design, relative to the largest reference weight. Both solves are
    backward stable, so they differ by about kappa * eps, with kappa the
    condition number of the part of the design the cutoff keeps: the
    tolerance is 1e-12 where that part is well conditioned (measured: up to
    5e-15) and 10 * kappa * eps at kappa = 1e8 (measured: up to 0.82 * kappa
    * eps over 200 designs)."""

    @staticmethod
    def check(x, y, tol):
        want = np.linalg.pinv(x, rcond=DEFAULT_RCOND) @ y
        assert np.max(np.abs(harness._readout(np.hstack([x, y]), x.shape[1]) - want)) <= tol * np.max(np.abs(want))

    def test_duplicated_feature_column(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, (60, 8))
        self.check(np.hstack([x, x[:, :1]]), rng.standard_normal((60, 3)), 1e-12)

    def test_fewer_training_rows_than_columns(self):
        rng = np.random.default_rng(1)
        self.check(rng.uniform(-1, 1, (12, 20)), rng.standard_normal((12, 3)), 1e-12)

    def test_ill_conditioned_design(self):
        rng = np.random.default_rng(2)
        u, _ = np.linalg.qr(rng.standard_normal((80, 10)))
        v, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        kappa = 1e8
        x = u @ np.diag(np.logspace(0, -np.log10(kappa), 10)) @ v.T
        self.check(x, rng.standard_normal((80, 3)), 10 * kappa * np.finfo(float).eps)


class TestCli:
    def test_quick_run_exit_zero(self, tmp_path, capsys):
        code = cli.main(["stm", "--scale", "quick", "--seeds", "1", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert (tmp_path / "stm" / "markov" / "summary.csv").exists()
        assert "tau_d=0" in captured.out

    def test_config_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "task": "stm", "bogus": 1}))
        code = cli.main(["stm", "--config", str(bad)])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_numerical_failure_exit_three(self, monkeypatch, capsys):
        def boom(cfg):
            raise NumericalError("stm run failed (regime=markov, seed=0): synthetic")
        monkeypatch.setattr(cli, "run_stm", boom)
        code = cli.main(["stm", "--scale", "quick"])
        assert code == 3
        assert "seed=0" in capsys.readouterr().err

    def test_unwritable_output_exits_two_before_any_job(self, tmp_path, capsys, monkeypatch):
        jobs = []
        monkeypatch.setattr(harness, "_job", jobs.append)
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        code = cli.main(["stm", "--scale", "quick", "--seeds", "1", "--out", str(blocker / "sub")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: cannot create output directory")
        assert jobs == []

    def test_unknown_task_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["bogus-task"])
