"""Config ingestion, experiment pipeline determinism, cost accounting, CLI."""

import contextlib
import copy
import csv
import hashlib
import io
import itertools
import json
import math
import os
import re
import signal
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tthf import bounds, cli, control, experiment, trainer
from tthf.experiment import ConfigError


def minimal_config(tmp_path, **overrides):
    cfg = {
        "dataset": {"m": 4, "n_labels": 4, "per_label": 30, "separation": 2.0, "seed": 7},
        "topology": {"n_clusters": 3, "cluster_size": 3, "seed": 11},
        "loss": {"reg": 0.5},
        "schedule": {"T": 20, "tau": 5, "gamma": {"mode": "fixed", "value": 1, "cadence": 5}},
        "step": {"kind": "constant", "eta": 0.02},
        "seeds": [1, 2, 3],
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    return cfg


class TestConfig:
    def test_missing_required_field_names_it(self, tmp_path):
        cfg = minimal_config(tmp_path)
        del cfg["seeds"]
        with pytest.raises(ConfigError, match="seeds"):
            experiment.load_config(cfg)

    def test_missing_T_names_path(self, tmp_path):
        cfg = minimal_config(tmp_path)
        del cfg["schedule"]["T"]
        with pytest.raises(ConfigError, match=r"schedule\.T"):
            experiment.load_config(cfg)

    def test_unknown_field_rejected_with_path(self, tmp_path):
        cfg = minimal_config(tmp_path)
        cfg["topology"]["typo_field"] = 1
        with pytest.raises(ConfigError, match=r"topology\.typo_field"):
            experiment.load_config(cfg)

    def test_defaults_follow_experimental_setup(self, tmp_path):
        cfg = experiment.load_config(minimal_config(tmp_path)).raw
        ch = cfg["topology"]["channel"]
        assert ch["noise_psd_dbm_hz"] == -173.0
        assert ch["bandwidth_hz"] == 1e6
        assert ch["tx_power_dbm"] == 24.0
        assert ch["pathloss_ref_db"] == -30.0
        assert ch["pathloss_exp"] == 3.75
        assert ch["rate_bps"] == 14e6
        assert ch["outage_threshold"] == 0.05
        assert cfg["topology"]["d_c"] == 1.0 / 8.0
        assert cfg["cost"]["e_d2d"] / cfg["cost"]["e_glob"] == pytest.approx(0.04)
        assert cfg["cost"]["delta_d2d"] / cfg["cost"]["delta_glob"] == pytest.approx(0.04)

    def test_merged_defaults_hash_pinned(self):
        # defaults are derived from the dataclasses; the merged config must not drift
        config = experiment.load_config({"schedule": {"T": 10}, "seeds": [1], "output_dir": "x"})
        assert config.hash() == "6f4d0d5adc703026"

    def test_hash_stable_under_field_reordering(self, tmp_path):
        cfg_a = minimal_config(tmp_path)
        cfg_b = json.loads(json.dumps(cfg_a))
        cfg_b["schedule"] = dict(reversed(list(cfg_b["schedule"].items())))
        cfg_b = dict(reversed(list(cfg_b.items())))
        assert experiment.load_config(cfg_a).hash() == experiment.load_config(cfg_b).hash()

    def test_readme_schema_block_is_the_merged_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Config schema", 1)[1].split("```jsonc", 1)[1].split("```", 1)[0]
        documented = experiment.load_config(json.loads(re.sub(r"//[^\n]*", "", block)))
        required = {
            "schedule": {"T": documented.raw["schedule"]["T"]},
            "seeds": documented.raw["seeds"],
            "output_dir": documented.raw["output_dir"],
        }
        defaults = experiment.load_config(required)
        assert documented.raw == defaults.raw
        assert documented.hash() == defaults.hash()

    def test_invalid_mode_reports_field(self, tmp_path):
        cfg = minimal_config(tmp_path, partition={"mode": "bogus", "seed": 1})
        with pytest.raises(ConfigError, match=r"partition\.mode"):
            experiment.load_config(cfg)


class TestRunExperiment:
    def test_writes_trace_per_seed_and_summary(self, tmp_path):
        summary = experiment.run_experiment(minimal_config(tmp_path))
        out = tmp_path / "out"
        for seed in (1, 2, 3):
            assert (out / f"trace_seed{seed}.csv").exists()
        assert (out / "summary.json").exists()
        assert summary["seeds"] == [1, 2, 3]
        assert "final_mean_gap" in summary

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = minimal_config(tmp_path)
        experiment.run_experiment(cfg)
        first = {
            p.name: p.read_bytes() for p in sorted((tmp_path / "out").glob("*.csv"))
        }
        first["summary.json"] = (tmp_path / "out" / "summary.json").read_bytes()
        experiment.run_experiment(cfg)
        for name, blob in first.items():
            assert (tmp_path / "out" / name).read_bytes() == blob, name

    def test_full_aggregation_follows_the_tau_list(self, tmp_path):
        cfg = minimal_config(
            tmp_path,
            aggregation={"mode": "full"},
            schedule={"T": 10, "tau": [2, 8]},
        )
        config = experiment.load_config(cfg)
        trace = experiment.run_single(config, experiment.build_task(config), seed=1)
        assert trace.boundaries == [2, 10]
        assert trace.taus == [2, 8]

    def test_control_csv_records_the_steps_each_interval_ran(self, tmp_path):
        experiment.run_experiment(minimal_config(tmp_path, seeds=[1], schedule={"T": 10, "tau": [4, 8]}))
        with (tmp_path / "out" / "trace_seed1_control.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["t_k"], row["tau_k"]) for row in rows] == [("4", "4"), ("10", "6")]

    @pytest.mark.parametrize(
        "override",
        [
            {},
            {"aggregation": {"mode": "full"}, "schedule": {"T": 20, "tau": 5}},
            {"schedule": {"mode": "adaptive", "T": 20}, "step": {}},
        ],
        ids=["tthf", "baseline", "adaptive"],
    )
    def test_runs_keep_no_meta(self, tmp_path, override):
        config = experiment.load_config(minimal_config(tmp_path, **override))
        assert experiment.run_single(config, experiment.build_task(config), seed=1).meta == {}

    def test_workers_do_not_change_outputs(self, tmp_path):
        cfg = minimal_config(tmp_path)
        experiment.run_experiment(cfg, workers=1)
        serial = {p.name: p.read_bytes() for p in sorted((tmp_path / "out").glob("*"))}
        experiment.run_experiment(cfg, workers=8)
        for name, blob in serial.items():
            assert (tmp_path / "out" / name).read_bytes() == blob, name

    @pytest.mark.parametrize(
        "override, expected",
        [
            (
                {},
                {
                    "trace_seed3.csv": "4450878e984abe974a98d30598bddd33746629cfbff1b704b84d3f5d6ccc269b",
                    "trace_seed3_control.csv": "54187dbae3a6891d3700cc3b44baf91d3316de17d203920be06c4d9b83a76ebd",
                    "summary.json": "ed42e28501c85adc0a1114e867958a6fa8123dc0057c99a578005a0d9bc00393",
                },
            ),
            (
                {"aggregation": {"mode": "full"}, "schedule": {"T": 40, "tau": 10}},
                {
                    "trace_seed3.csv": "4fe305cd2f238e577319f04a4d89297c64093edef3aaee9ff3862a0fc8dfeb23",
                    "trace_seed3_control.csv": "7951a2f5f3f6a08a8281a58ed38f62ebd0cd35347eeaaed1840dd188d449b4ab",
                    "summary.json": "6355ed05bc83209c44960504dde6bbb0074d66bada43df76b64fcdaf074dc904",
                },
            ),
            (
                # devices re-placed between intervals: each cluster's edge count
                # changes, and its losses read on from the uniforms not yet used
                {"replace_between_intervals": True},
                {
                    "trace_seed3.csv": "3f576a5fa724a44ca1c5f99632949f59e919da64c19654d9de7a1772705bae81",
                    "trace_seed3_control.csv": "54187dbae3a6891d3700cc3b44baf91d3316de17d203920be06c4d9b83a76ebd",
                    "summary.json": "328d0900efbcdd9c6e06798a38ccbf5cea75db49725f19485d6ef4db4371811b",
                },
            ),
            (
                # certified lossy rounds: 0 to 9 rounds per cluster and step, 0 in 12 of 160
                {"schedule": {"T": 40, "tau": 10, "gamma": {"mode": "certified", "phi": 10.0, "max_rounds": 200}}},
                {
                    "trace_seed3.csv": "d6c6f70a5699d2643bad77753ae8e07cb64a29b748cb2948b3a57cece171ed62",
                    "trace_seed3_control.csv": "082598e789102832a8e20528ad37c6813d2084f445e958742995a06cde0ceed8",
                    "summary.json": "2bbb8e06b84edb93edd8badc821b559a56270d6b18bd22944be4e324441f32f2",
                },
            ),
        ],
        ids=["lossy-gossip", "full-participation", "lossy-refresh", "lossy-certified"],
    )
    def test_lossy_minibatch_trace_bytes_are_pinned(self, tmp_path, override, expected):
        # a 4x4 network whose channel keeps links up to 40% outage, so most
        # steps lose links and some rounds lose several; a change to which
        # links a round loses, to how a round mixes, or to the mini-batch
        # draws changes these bytes. The full-participation baseline runs the
        # default D2D plan, so a change to that default's rounds changes its bytes
        cfg = {
            "dataset": {"m": 4, "n_labels": 4, "per_label": 60, "separation": 1.0, "seed": 7},
            "topology": {
                "n_clusters": 4, "cluster_size": 4, "field_m": 80.0, "seed": 11,
                "channel": {"outage_threshold": 0.4},
            },
            "loss": {"kind": "linear_regression", "reg": 2.0},
            "sgd": {"batch_size": 3},
            "schedule": {"T": 40, "tau": 10, "gamma": {"mode": "fixed", "value": 3, "cadence": 1}},
            "outage": {"enabled": True},
            "eval_accuracy": False,
            "seeds": [3],
            "output_dir": str(tmp_path / "out"),
            **override,
        }
        experiment.run_experiment(cfg)
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((tmp_path / "out").glob("*"))
        }
        assert digests == expected

    @pytest.mark.parametrize(
        "override, expected",
        [
            (
                {},
                {
                    "summary.json": "d773f4ee38972a6b9d43a085ef5b500a525881315a57c5b45ee02cc2471446c2",
                    "trace_seed3.csv": "7bbf4f1ec72b5127fe041ff2bf29b22107e8287fa43831c89aa262b26f51ae12",
                    "trace_seed3_control.csv": "a63bcaedf493345d32fbbba45c3a13ed9ba0ab7f45366eeb0884b1d118b9dece",
                },
            ),
            (
                # devices re-placed between intervals: each interval's rounds
                # read the sizes and lambdas of its own network
                {"replace_between_intervals": True},
                {
                    "summary.json": "9c7807df26aa497d2f9bf1eadf5e0b4454f3e3000e24f5d14c8bccbd0759022e",
                    "trace_seed3.csv": "af2178b070a0e2bf313b910ab48ffcd39451e99f1cadd00a9e09b6c80f63a993",
                    "trace_seed3_control.csv": "cb63d3236a1d1b58354e446131fd3159df48befb5fe0ec441c80fdb80f8d666d",
                },
            ),
        ],
        ids=["static", "refresh"],
    )
    def test_certified_run_bytes_are_pinned(self, tmp_path, override, expected):
        # lossless rounds on a 4x4 network, each cluster's rounds chosen by the
        # round rule on the exact divergence and run as one cached power of V;
        # the most rounds any cluster runs in one step is 37, well below
        # max_rounds. A change to the round rule, the powers, the accuracy or
        # the summary changes these bytes
        cfg = {
            "dataset": {"m": 4, "n_labels": 4, "per_label": 60, "separation": 1.0, "seed": 7},
            "topology": {"n_clusters": 4, "cluster_size": 4, "field_m": 80.0, "seed": 11},
            "loss": {"kind": "linear_regression", "reg": 2.0},
            "schedule": {"T": 40, "tau": 10, "gamma": {"mode": "certified", "phi": 0.5, "max_rounds": 200}},
            "step": {"kind": "diminishing", "gamma": "auto", "alpha": "auto"},
            "control": {"zeta_frac": 0.05, "tau_max": 10},
            "seeds": [3],
            "output_dir": str(tmp_path / "out"),
            **override,
        }
        summary = experiment.run_experiment(cfg)
        assert summary["bound_check"] is True
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((tmp_path / "out").glob("*"))
        }
        assert digests == expected

    @pytest.mark.parametrize(
        "override, expected",
        [
            (
                {},
                {
                    "summary.json": "64e0c52fb759e7f2558db85ac76a4908f68b99a51b9bba0ed9dca263f57c2817",
                    "trace_seed2.csv": "0379f38a863edcc5cc753f32ebf05f7e0031ae1929e228c1b0b533a2d2854085",
                    "trace_seed2_control.csv": "240c5fc1bfc23327621cc82a023e5aa4e6503e0a7cec826abd2cb2134df5d6e5",
                },
            ),
            (
                # devices re-placed between intervals: the round rule and the
                # line search of each interval read its own network, and the
                # fourth interval ends at t=23, not at the static run's 24
                {"replace_between_intervals": True},
                {
                    "summary.json": "45291ec03fcd8ee37f2c384d4259ef6a07dbee5cb0f328b39445e418cb73db93",
                    "trace_seed2.csv": "e864728287edfc306083b4931a17b159b1010d446138a170f5f3001bb732dafd",
                    "trace_seed2_control.csv": "93975a960241875c079696d8689b1f09ce15fed7676861dec6c8627ed8a1c37e",
                },
            ),
        ],
        ids=["static", "refresh"],
    )
    def test_adaptive_minibatch_run_bytes_are_pinned(self, tmp_path, override, expected):
        # the adaptive controller on a mini-batch SVM: its intervals (3, 7, ...,
        # 5, 7, 2) and its horizon T=45 are not multiples of the sampler's
        # 16-step blocks. A change to the mini-batch draws, the probes or the
        # controller's arithmetic changes these bytes
        cfg = {
            "dataset": {"m": 4, "n_labels": 2, "per_label": 30, "separation": 1.0, "seed": 7},
            "topology": {"n_clusters": 3, "cluster_size": 3, "seed": 11},
            "loss": {"kind": "squared_hinge_svm", "reg": 0.5},
            "sgd": {"batch_size": 3},
            "schedule": {"mode": "adaptive", "T": 45},
            "control": {"tau_max": 7, "tau1": 3, "zeta_frac": 0.02, "sigma_batch": 4},
            "seeds": [2],
            "output_dir": str(tmp_path / "out"),
            **override,
        }
        summary = experiment.run_experiment(cfg)
        assert summary["T"] == 45
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((tmp_path / "out").glob("*"))
        }
        assert digests == expected


class RunHung(Exception):
    """Raised when a run outlives its time limit. Not an OSError: experiment._parse
    turns those into exit 2, which would pass a hang off as a rejected config."""


@contextlib.contextmanager
def time_limit(seconds):
    def hung(signum, frame):
        raise RunHung(f"no exit within {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def relaxing_config(tmp_path, seeds):
    # on the default network, the feasibility check doubles T three times for
    # seed 7 (60 -> 480) and not at all for seed 2
    return {
        "schedule": {"mode": "adaptive", "T": 60},
        "control": {"xi": 100},
        "seeds": seeds,
        "output_dir": str(tmp_path / "out"),
    }


class TestEffectiveHorizon:
    def test_disagreeing_seed_horizons_raise_before_writing(self, tmp_path):
        with pytest.raises(experiment.HorizonMismatchError, match="seed 7: T=480") as info:
            experiment.run_experiment(relaxing_config(tmp_path, [2, 7]))
        assert info.value.horizons == {2: 60, 7: 480}
        assert not list((tmp_path / "out").glob("trace_seed*.csv"))

    def test_cli_exits_1_with_the_horizons(self, tmp_path, capsys, monkeypatch):
        def mismatch(*args, **kwargs):
            raise experiment.HorizonMismatchError({2: 60, 7: 480})

        monkeypatch.setattr(experiment, "run_experiment", mismatch)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(relaxing_config(tmp_path, [2, 7])))
        assert cli.main(["run", str(cfg_path)]) == 1
        assert "seed 2: T=60, seed 7: T=480" in capsys.readouterr().err

    def test_summary_reports_the_effective_horizon(self, tmp_path):
        summary = experiment.run_experiment(relaxing_config(tmp_path, [7]))
        assert summary["T"] == 480
        trace = trainer.MetricsTrace.from_csv(tmp_path / "out" / "trace_seed7.csv")
        assert len(trace) == 480


class TestAccumulateCost:
    def build_trace(self, tmp_path, gamma_value=0):
        cfg = minimal_config(
            tmp_path,
            schedule={
                "T": 20,
                "tau": 5,
                "gamma": {"mode": "fixed", "value": gamma_value, "cadence": 5},
            },
        )
        config = experiment.load_config(cfg)
        task = experiment.build_task(config)
        return experiment.run_single(config, task, seed=1), config

    def test_no_consensus_energy_is_uplink_only(self, tmp_path):
        trace, config = self.build_trace(tmp_path, gamma_value=0)
        summary = experiment.accumulate_cost(trace, config.cost)
        assert summary.total_energy == pytest.approx(4 * config.cost.e_glob)

    def test_single_consensus_event_arithmetic(self, tmp_path):
        trace, config = self.build_trace(tmp_path, gamma_value=3)
        # 3 clusters x 3 devices x 3 rounds at each cadence step
        per_event = 3 * 3 * 3 * 0.04
        events = int((trace.gamma_by_cluster > 0).any(axis=1).sum())
        summary = experiment.accumulate_cost(trace, config.cost)
        assert summary.total_energy == pytest.approx(4 * config.cost.e_glob + events * per_event)

    def test_matches_row_by_row_oracle(self, tmp_path):
        trace, config = self.build_trace(tmp_path, gamma_value=2)
        cost = config.cost
        summary = experiment.accumulate_cost(trace, cost, alpha=10.0)
        oracle_energy = float(sum(trace.energy))
        oracle_delay = float(sum(trace.delay))
        assert summary.total_energy == pytest.approx(oracle_energy, rel=1e-12)
        assert summary.total_delay == pytest.approx(oracle_delay, rel=1e-12)
        objective = 0.0
        t_km1 = 0
        for t_k, tau_k in zip(trace.boundaries, trace.taus):
            e = trace.energy[t_km1:t_k].sum()
            d = trace.delay[t_km1:t_k].sum()
            objective += cost.c1 * e / tau_k + cost.c2 * d / tau_k
            objective += cost.c3 * (1 - (t_km1 + 10.0) / (t_km1 + tau_k + 10.0))
            t_km1 = t_k
        assert summary.objective_total == pytest.approx(objective, rel=1e-12)


class TestCompareRuns:
    def test_identical_traces_zero_deltas(self, tmp_path):
        cfg = minimal_config(tmp_path)
        config = experiment.load_config(cfg)
        task = experiment.build_task(config)
        a = experiment.run_single(config, task, seed=1)
        b = experiment.run_single(config, task, seed=1)
        report = experiment.compare_runs(a, b)
        assert np.all(report["per_t_delta"] == 0)
        assert report["energy_ratio"] == pytest.approx(1.0)

    def test_cost_ratio_matches_accumulate_quotient(self, tmp_path):
        cfg = minimal_config(tmp_path)
        config = experiment.load_config(cfg)
        task = experiment.build_task(config)
        a = experiment.run_single(config, task, seed=1)
        cfg2 = minimal_config(
            tmp_path,
            schedule={"T": 20, "tau": 5, "gamma": {"mode": "fixed", "value": 2, "cadence": 5}},
        )
        config2 = experiment.load_config(cfg2)
        b = experiment.run_single(config2, task, seed=1)
        report = experiment.compare_runs(b, a)
        quotient = (
            experiment.accumulate_cost(b, config.cost).total_energy
            / experiment.accumulate_cost(a, config.cost).total_energy
        )
        assert report["energy_ratio"] == pytest.approx(quotient, rel=1e-12)

    def test_length_mismatch_rejected(self, tmp_path):
        cfg = minimal_config(tmp_path)
        config = experiment.load_config(cfg)
        task = experiment.build_task(config)
        a = experiment.run_single(config, task, seed=1)
        cfg2 = minimal_config(tmp_path, schedule={"T": 10, "tau": 5})
        b = experiment.run_single(experiment.load_config(cfg2), task, seed=1)
        with pytest.raises(ValueError, match="lengths differ"):
            experiment.compare_runs(a, b)


class TestCli:
    def test_run_and_compare_verbs(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_config(tmp_path)))
        assert cli.main(["run", str(cfg_path)]) == 0
        out = tmp_path / "out"
        rc = cli.main(["compare", str(out / "trace_seed1.csv"), str(out / "trace_seed2.csv")])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "energy_ratio" in printed

    @pytest.mark.parametrize("case", ["missing-file", "missing-column", "no-rows", "short-row"])
    def test_unreadable_trace_exits_2_naming_the_file(self, tmp_path, capsys, case):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_config(tmp_path, seeds=[1])))
        assert cli.main(["run", str(cfg_path)]) == 0
        capsys.readouterr()
        good, bad = tmp_path / "out" / "trace_seed1.csv", tmp_path / "bad.csv"
        if case == "missing-column":
            # drop the second column, loss_gap_sampled
            rows = [line.split(",") for line in good.read_text().splitlines()]
            bad.write_text("\n".join(",".join(row[:1] + row[2:]) for row in rows))
        if case in ("no-rows", "short-row"):
            bad.write_text(good.read_text().splitlines()[0] + ("\n0,1.5\n" if case == "short-row" else "\n"))
        assert cli.main(["compare", str(good), str(bad)]) == 2
        err = capsys.readouterr().err
        assert "config field '<file>'" in err and str(bad) in err
        assert "Traceback" not in err
        if case == "missing-column":
            assert "'loss_gap_sampled'" in err

    @pytest.mark.parametrize("field", ["e_d2d", "delta_d2d"])
    def test_integer_costs_run(self, tmp_path, field):
        # an int cost once gave the energy or delay column an int dtype, which
        # cannot take the float upload charge added at each aggregation
        traces = []
        for value in (0, 0.0):
            cfg = minimal_config(tmp_path, seeds=[1], cost={field: value})
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(cfg))
            assert cli.main(["run", str(cfg_path)]) == 0
            traces.append((tmp_path / "out" / "trace_seed1.csv").read_bytes())
        assert traces[0] == traces[1]

    @pytest.mark.parametrize(
        "override, path",
        [
            ({"loss": {"reg": float("nan")}}, "loss.reg"),
            ({"control": {"gamma_over_mu": float("nan")}, "schedule": {"mode": "adaptive", "T": 12}},
             "control.gamma_over_mu"),
            # the fixed schedule's "auto" step reads gamma_over_mu, so a fixed run checks it too
            ({"control": {"gamma_over_mu": float("nan")}, "step": {"kind": "diminishing"}},
             "control.gamma_over_mu"),
            # a NaN cost weight once ran without a word
            ({"cost": {"c1": float("nan")}}, "cost.c1"),
        ],
        ids=["loss-reg", "adaptive-gamma-over-mu", "auto-step-gamma-over-mu", "cost-c1"],
    )
    def test_nan_exits_2_naming_a_path(self, tmp_path, capsys, override, path):
        # a NaN passed every `x < bound` check and hung the alpha search
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_config(tmp_path, seeds=[1], **override)))
        with time_limit(30):
            assert cli.main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"config field '{path}'" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_field_exits_2(self, tmp_path):
        cfg = minimal_config(tmp_path)
        del cfg["output_dir"]
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(cfg_path)]) == 2

    def test_oversized_batch_exits_2_naming_field(self, tmp_path, capsys):
        # the default dataset leaves 3-4 points on each of the 125 devices
        cfg = {"schedule": {"T": 5}, "sgd": {"batch_size": 8}, "seeds": [1],
               "output_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(cfg_path)]) == 2
        assert "sgd.batch_size" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, override",
        [
            ("schedule.tau", {"schedule": {"T": 20, "tau": 0}}),
            ("schedule.T", {"schedule": {"T": True, "tau": 5}}),
            ("seeds", {"seeds": ["a"]}),
            ("seeds", {"seeds": [1.7]}),
            ("cost", {"cost": {"e_d2d": -1}}),
            ("cost.e_d2d", {"cost": {"e_d2d": "x"}}),
            ("schedule.gamma", {"schedule": {"T": 10, "gamma": {"mode": "fixed", "cadence": 0}}}),
            ("schedule.gamma", {"schedule": {"T": 10, "gamma": {"mode": "certified", "phi": 0}}}),
            ("schedule.tau", {"schedule": {"T": 10, "tau": [2, 3]}}),
            ("topology.channel", {"topology": {"n_clusters": 3, "cluster_size": 3,
                                               "channel": {"bandwidth_hz": 0}}}),
            ("topology", {"topology": {"n_clusters": 3, "cluster_size": 0}}),
            ("dataset", {"dataset": {"m": 0}}),
            ("loss", {"loss": {"reg": -1}}),
            ("step", {"step": {"kind": "constant", "eta": 0}}),
            ("step.kind", {"step": {"kind": "bogus"}}),
            ("outage.enabled", {"outage": {"enabled": "no"}}),
            ("control", {"schedule": {"mode": "adaptive", "T": 10}, "control": {"tau_max": 0}}),
            ("control", {"schedule": {"mode": "adaptive", "T": 10}, "control": {"tau1": 0}}),
            ("control", {"schedule": {"mode": "adaptive", "T": 10}, "control": {"sigma_batch": 0}}),
            ("control", {"schedule": {"mode": "adaptive", "T": 10},
                         "control": {"gamma_over_mu": 0.5}}),
            ("init.kind", {"init": {"kind": "bogus"}}),
            ("dataset.path", {"dataset": {"kind": "csv", "path": "missing.csv"}}),
            ("step", {"step": {"gamma": -1, "alpha": 5}}),
            ("schedule.gamma.value", {"schedule": {"T": 10, "gamma": {"mode": "fixed", "value": 1.5}}}),
            ("schedule.gamma.value", {"schedule": {"T": 10, "gamma": {"mode": "fixed", "value": True}}}),
            ("schedule.gamma.cadence", {"schedule": {"T": 10, "gamma": {"mode": "fixed", "value": 1,
                                                                        "cadence": 1.5}}}),
            ("schedule.gamma.max_rounds", {"schedule": {"T": 10, "gamma": {"mode": "certified",
                                                                           "max_rounds": 2.5}}}),
            ("topology.channel", {"topology": {"n_clusters": 3, "cluster_size": 3,
                                               "channel": {"rate_bps": -1}}}),
            ("topology", {"topology": {"n_clusters": 3, "cluster_size": 3, "max_attempts": 0}}),
            ("topology", {"topology": {"n_clusters": 3, "cluster_size": 3, "field_m": 1e4}}),
            ("aggregation.mode", {"aggregation": {"mode": "full"},
                                  "schedule": {"T": 10, "gamma": {"mode": "certified", "phi": 1.0}}}),
            ("aggregation.mode", {"aggregation": {"mode": "full"}}),
            ("aggregation.mode", {"aggregation": {"mode": "full"},
                                  "schedule": {"mode": "adaptive", "T": 10}}),
            ("schedule.gamma.max_rounds", {"schedule": {"T": 10, "gamma": {"mode": "certified",
                                                                           "max_rounds": -1}}}),
            ("schedule.gamma.max_rounds", {"schedule": {"mode": "adaptive", "T": 10,
                                                        "gamma": {"max_rounds": -1}}}),
            ("control", {"schedule": {"mode": "adaptive", "T": 10}, "control": {"xi": 0}}),
            ("control", {"schedule": {"mode": "adaptive", "T": 10}, "control": {"xi": -1}}),
            ("control", {"schedule": {"mode": "adaptive", "T": 10}, "control": {"xi_boost": 0}}),
            ("control", {"schedule": {"mode": "adaptive", "T": 10}, "control": {"xi_boost": -1}}),
            ("control", {"schedule": {"mode": "adaptive", "T": 10}, "control": {"alpha_cap": -1}}),
            ("control", {"schedule": {"mode": "adaptive", "T": 10},
                         "control": {"alpha_margin": 0.5}}),
            ("control.xi", {"schedule": {"mode": "adaptive", "T": 10}, "control": {"xi": True}}),
            ("control.alpha_cap", {"schedule": {"mode": "adaptive", "T": 10},
                                   "control": {"alpha_cap": True}}),
            ("control.xi_boost", {"schedule": {"mode": "adaptive", "T": 10},
                                  "control": {"xi_boost": True}}),
            ("loss.reg", {"loss": {"reg": True}}),
            ("cost.e_d2d", {"cost": {"e_d2d": True}}),
            ("schedule.gamma", {"schedule": {"T": 10, "gamma": {"mode": "none"}}}),
            ("control.use_pl_surrogate", {"schedule": {"mode": "adaptive", "T": 10},
                                          "control": {"use_pl_surrogate": False}}),
            ("output_dir", {"output_dir": 5}),
            ("init.scale", {"init": {"kind": "offset", "scale": "x"}}),
            ("init.seed", {"init": {"kind": "offset", "seed": -1}}),
            ("init.seed", {"init": {"kind": "offset", "seed": "x"}}),
            ("control.tau_max", {"schedule": {"mode": "adaptive", "T": 10}, "control": {"tau_max": 20.5}}),
            ("control.tau1", {"schedule": {"mode": "adaptive", "T": 10}, "control": {"tau1": 2.5}}),
            ("control.sigma_batch", {"schedule": {"mode": "adaptive", "T": 10},
                                     "control": {"sigma_batch": 4.5}}),
            ("dataset.seed", {"dataset": {"seed": True}}),
            ("partition.seed", {"partition": {"seed": []}}),
            ("topology.seed", {"topology": {"n_clusters": 3, "cluster_size": 3, "seed": {}}}),
            ("topology.n_clusters", {"topology": {"n_clusters": True, "cluster_size": 3}}),
            ("topology.n_clusters", {"topology": {"n_clusters": 0, "cluster_size": 3}}),
        ],
        ids=[
            "zero-tau", "boolean-T", "string-seed", "float-seed", "negative-cost", "string-cost",
            "zero-cadence", "zero-phi", "short-tau-list", "zero-bandwidth", "empty-clusters",
            "zero-dim", "negative-reg", "zero-eta", "unknown-step-kind", "string-outage-flag",
            "zero-tau-max", "zero-tau1", "zero-sigma-batch", "gamma-over-mu-below-1",
            "unknown-init-kind", "missing-csv", "negative-step-gamma", "fractional-rounds",
            "boolean-rounds", "fractional-cadence", "fractional-max-rounds", "negative-rate",
            "no-placements", "unconnectable-field", "full-certified", "full-fixed-rounds",
            "full-adaptive", "negative-max-rounds", "negative-adaptive-max-rounds", "zero-xi",
            "negative-xi", "zero-xi-boost", "negative-xi-boost", "negative-alpha-cap",
            "alpha-margin-below-1", "boolean-xi", "boolean-alpha-cap", "boolean-xi-boost",
            "boolean-reg", "boolean-e-d2d", "none-gamma-mode", "removed-pl-surrogate-knob",
            "string-output-dir", "string-init-scale", "negative-init-seed", "string-init-seed",
            "fractional-tau-max", "fractional-tau1", "fractional-sigma-batch", "boolean-dataset-seed",
            "list-partition-seed", "mapping-topology-seed", "boolean-clusters", "zero-clusters",
        ],
    )
    def test_unrunnable_config_exits_2_before_any_output(self, tmp_path, capsys, field, override):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_config(tmp_path, **override)))
        assert cli.main(["run", str(cfg_path)]) == 2
        assert f"config field '{field}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    @pytest.mark.parametrize("content", [None, "{not json"], ids=["missing-file", "invalid-json"])
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, verb, content):
        cfg_path = tmp_path / "cfg.json"
        if content is not None:
            cfg_path.write_text(content)
        sweep = ["--param", "seeds", "--values", "[1]", "--report", str(tmp_path / "sweep.json")]
        assert cli.main([verb, str(cfg_path)] + (sweep if verb == "sweep" else [])) == 2
        assert "config field '<file>'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ([] if content is None else ["cfg.json"])

    @pytest.mark.parametrize("below", ["", "out"], ids=["a-file", "below-a-file"])
    def test_output_dir_at_a_file_exits_2_before_any_seed(self, tmp_path, capsys, monkeypatch, below):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_config(tmp_path, output_dir=str(blocker / below))))
        runs = []
        monkeypatch.setattr(experiment, "run_single", lambda *args: runs.append(args))
        assert cli.main(["run", str(cfg_path)]) == 2
        assert "config field 'output_dir'" in capsys.readouterr().err
        assert not runs
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "cfg.json"]
        assert blocker.read_text() == ""

    @pytest.mark.parametrize(
        "override",
        [
            {"topology": {"n_clusters": 4, "cluster_size": 1},
             "schedule": {"T": 20, "tau": 5, "gamma": {"mode": "certified"}}},
            {"topology": {"n_clusters": 4, "cluster_size": 1}, "schedule": {"mode": "adaptive", "T": 20}},
            {"topology": {"n_clusters": 4, "cluster_size": 2, "d_c": 0.5},
             "schedule": {"T": 20, "tau": 5, "gamma": {"mode": "certified"}}},
        ],
        ids=["one-device-certified", "one-device-adaptive", "complete-pair-certified"],
    )
    def test_one_round_consensus_clusters_run(self, tmp_path, override):
        # lambda 0: one round brings each cluster to consensus
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_config(tmp_path, **override)))
        assert cli.main(["run", str(cfg_path)]) == 0
        config = experiment.load_config(str(cfg_path))
        task = experiment.build_task(config)
        assert all(spec.lambda_c == 0.0 for spec in task.clusters)
        gammas = experiment.run_single(config, task, seed=1).gamma_by_cluster
        assert gammas.max() == (1 if override["topology"]["cluster_size"] > 1 else 0)

    @pytest.mark.parametrize(
        "content, sweep, field",
        [
            ([1, 2], ["--param", "seeds", "--values", "[1]"], "<root>"),
            (None, ["--param", "schedule.T.x", "--values", "1"], "schedule.T"),
            (None, ["--param", "seeds", "--values", "x"], "seeds"),
            (None, ["--param", "seeds", "--values", "[1],x"], "seeds"),
            (None, ["--param", "seeds", "--values", ""], "seeds"),
            # the first value could run: every variant is loaded before any runs
            (None, ["--param", "schedule.gamma.value", "--values", "1,1.0,2"], "schedule.gamma.value"),
            # the batch check needs the partition: every variant's task is built before any runs
            (None, ["--param", "sgd.batch_size", "--values", "2,1000"], "sgd.batch_size"),
            (minimal_config(Path(), output_dir=5), ["--param", "seeds", "--values", "[1]"], "output_dir"),
            (None, ["--param", "topology.n_clusters", "--values", "3,true"], "topology.n_clusters"),
        ],
        ids=[
            "config-not-a-mapping", "prefix-not-a-mapping", "value-not-json",
            "list-then-not-json", "no-values", "later-value-cannot-run", "later-task-cannot-build",
            "string-output-dir", "later-value-wrong-kind",
        ],
    )
    def test_sweep_config_errors_exit_2(self, tmp_path, capsys, content, sweep, field):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_config(tmp_path) if content is None else content))
        assert cli.main(["sweep", str(cfg_path), *sweep, "--report", str(tmp_path / "sweep.json")]) == 2
        assert f"config field '{field}'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_out_alone_supplies_the_output_dir(self, tmp_path):
        cfg = minimal_config(tmp_path, seeds=[1])
        del cfg["output_dir"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "elsewhere")]) == 0
        assert (tmp_path / "elsewhere" / "summary.json").exists()
        assert (tmp_path / "elsewhere" / "trace_seed1.csv").exists()

    def test_config_hash_ignores_the_output_dir(self, tmp_path):
        cfg = minimal_config(tmp_path, seeds=[1])
        hashes = set()
        for name, out in (("a", None), ("b", None), ("a", tmp_path / "c")):
            summary = experiment.run_experiment({**cfg, "output_dir": str(tmp_path / name)}, output_dir=out)
            hashes.add(summary["config_hash"])
        assert len(hashes) == 1
        assert (tmp_path / "a" / "summary.json").read_bytes() == (tmp_path / "b" / "summary.json").read_bytes()

    def test_sweep_verb(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_config(tmp_path, seeds=[1])))
        report = tmp_path / "sweep.json"
        rc = cli.main([
            "sweep", str(cfg_path),
            "--param", "schedule.gamma.value",
            "--values", "0,2",
            "--report", str(report),
        ])
        assert rc == 0
        payload = json.loads(report.read_text())
        assert [entry["value"] for entry in payload] == [0, 2]

    def test_sweep_reads_a_null_output_dir_as_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_config(tmp_path, seeds=[1], output_dir=None)))
        sweep = ["--param", "schedule.gamma.value", "--values", "0", "--report", "sweep.json"]
        assert cli.main(["sweep", str(cfg_path), *sweep]) == 0
        assert (tmp_path / "out" / "sweep_schedule_gamma_value_0" / "summary.json").exists()

    def test_sweep_runs_each_variant_from_the_task_it_built(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_config(tmp_path, seeds=[1])))
        events = []
        for name, event in (("build_task", "build"), ("run_single", "run")):
            original = getattr(experiment, name)
            monkeypatch.setattr(
                experiment, name,
                lambda *args, event=event, original=original: events.append(event) or original(*args),
            )
        rc = cli.main([
            "sweep", str(cfg_path), "--param", "schedule.gamma.value", "--values", "0,1,2",
            "--report", str(tmp_path / "sweep.json"),
        ])
        assert rc == 0
        assert events == ["build"] * 3 + ["run"] * 3

    def test_sweep_over_list_values(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_config(tmp_path)))
        report = tmp_path / "sweep.json"
        rc = cli.main([
            "sweep", str(cfg_path),
            "--param", "seeds",
            "--values", "[1,2],[3]",
            "--report", str(report),
        ])
        assert rc == 0
        payload = json.loads(report.read_text())
        assert [entry["value"] for entry in payload] == [[1, 2], [3]]
        assert [entry["summary"]["seeds"] for entry in payload] == [[1, 2], [3]]


# The config fuzz: one leaf of the defaults set to one bad value, under one
# schedule, on a 3x3, T=12 config with the default "auto" step.
FUZZ_SCHEDULES = {
    "fixed": {"T": 12, "tau": 4, "gamma": {"mode": "fixed", "value": 1, "cadence": 2}},
    "certified": {"T": 12, "tau": 4, "gamma": {"mode": "certified", "phi": 1.0}},
    "adaptive": {"mode": "adaptive", "T": 12},
}
FUZZ_VALUES = ["x", -1, 0, 2.5, None, [], {}, 1e308, math.nan, math.inf, -math.inf, True]


def _leaves(node, prefix=""):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


FUZZ_LEAVES = dict(_leaves(experiment._DEFAULTS))  # leaf path -> default


def wrong_kind(default, value) -> bool:
    """A value that no leaf with this default takes: a mapping, NaN, an infinity, a
    value of another JSON type than a boolean or numeric default, true or false for
    a non-boolean, or a negative or fractional value for an integer."""
    if value == {} or (isinstance(value, float) and not math.isfinite(value)):
        return True
    if isinstance(default, bool) or isinstance(value, bool):
        return type(value) is not type(default)
    if isinstance(default, int):
        return not (isinstance(value, int) and value >= 0)
    return isinstance(default, float) and not isinstance(value, (int, float))


def check_fuzz_draw(tmp: Path, mode: str, leaf: str, value):
    """Run the draw through `tthf run` in tmp. A value of the wrong kind must exit 2
    naming its leaf; any other exits 0, exits 2 naming a prefix of its leaf, or
    exits 1 from a data-dependent infeasibility, and an exit other than 0 writes nothing."""
    schedule = copy.deepcopy(FUZZ_SCHEDULES[mode])
    cfg = minimal_config(tmp, seeds=[1], step={}, schedule=schedule, output_dir="out")
    *parents, key = leaf.split(".")
    node = cfg
    for parent in parents:
        node = node.setdefault(parent, {})
    node[key] = value
    (tmp / "cfg.json").write_text(json.dumps(cfg))
    raised, run = [], experiment.run_experiment

    def run_experiment(*args, **kwargs):
        try:
            return run(*args, **kwargs)
        except Exception as exc:
            raised.append(exc)
            raise

    err, cwd = io.StringIO(), os.getcwd()
    os.chdir(tmp)  # a string output_dir is written relative to the working directory
    try:
        with mock.patch.object(experiment, "run_experiment", run_experiment), warnings.catch_warnings(), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), time_limit(10):
            warnings.simplefilter("ignore")
            rc = cli.main(["run", "cfg.json"])
    finally:
        os.chdir(cwd)
    draw = f"{mode} schedule, {leaf}={value!r}: exit {rc}, {err.getvalue()!r}"
    named = re.search(r"config field '([^']*)'", err.getvalue())
    if wrong_kind(FUZZ_LEAVES[leaf], value):
        assert rc == 2 and named and named.group(1) == leaf, draw
    elif rc == 2:
        assert named and f"{leaf}.".startswith(f"{named.group(1)}."), draw
    elif rc == 1:
        assert raised and isinstance(raised[0], (control.InfeasibleError, bounds.DiversityError)), draw
    else:
        assert rc == 0, draw
    assert rc == 0 or sorted(p.name for p in tmp.iterdir()) == ["cfg.json"], draw


@pytest.mark.parametrize("key", ["xi", "xi_boost"])
def test_adaptive_overflowing_rate_constant_exits_1_naming_it(tmp_path, capsys, key):
    # the fuzz's adaptive run: omega is below omega_max, but Z2 overflows at this loss target
    cfg = minimal_config(tmp_path, seeds=[1], step={}, schedule=dict(FUZZ_SCHEDULES["adaptive"]))
    cfg["control"] = {key: 1e308}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert cli.main(["run", str(tmp_path / "cfg.json")]) == 1
    err = capsys.readouterr().err
    assert "error: the rate constant nu overflows float range" in err and "omega" not in err
    assert not (tmp_path / "out").exists()


class TestConfigFuzz:
    @given(
        mode=st.sampled_from(sorted(FUZZ_SCHEDULES)),
        leaf=st.sampled_from(list(FUZZ_LEAVES)),
        value=st.sampled_from(FUZZ_VALUES),
    )
    def test_a_bad_leaf_exits_2_naming_it_or_runs(self, mode, leaf, value):
        with tempfile.TemporaryDirectory() as tmp:
            check_fuzz_draw(Path(tmp), mode, leaf, value)

    def test_full_product(self, request):
        if not request.config.getoption("--full-config-fuzz"):
            pytest.skip("the full product runs with --full-config-fuzz")
        for mode, leaf, value in itertools.product(sorted(FUZZ_SCHEDULES), FUZZ_LEAVES, FUZZ_VALUES):
            with tempfile.TemporaryDirectory() as tmp:
                check_fuzz_draw(Path(tmp), mode, leaf, value)


class TestTopologyRefresh:
    def test_replacement_changes_graphs_between_intervals(self, tmp_path):
        cfg = minimal_config(tmp_path, replace_between_intervals=True)
        config = experiment.load_config(cfg)
        refresh = experiment._topology_refresh(config)
        assert refresh is not None
        first = refresh(2)
        again = refresh(2)
        other = refresh(3)
        for a, b in zip(first, again):  # deterministic per interval index
            np.testing.assert_array_equal(a.positions, b.positions)
        assert any(
            not np.array_equal(a.positions, b.positions) for a, b in zip(first, other)
        )

    def test_baseline_ignores_replacement(self, tmp_path):
        # a baseline runs no D2D rounds, so a re-placed network would go unread
        written = []
        for replace in (False, True):
            out = tmp_path / f"out_{replace}"
            summary = experiment.run_experiment(minimal_config(
                tmp_path, aggregation={"mode": "full"}, schedule={"T": 20, "tau": [3, 7, 10]},
                outage={"enabled": True}, replace_between_intervals=replace, output_dir=str(out),
            ))
            del summary["config_hash"]
            written.append((summary, {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}))
        assert len(written[0][1]) == 6  # a trace and a control CSV per seed
        assert written[0] == written[1]

    def test_run_remains_deterministic_with_replacement(self, tmp_path):
        cfg = minimal_config(tmp_path, replace_between_intervals=True)
        experiment.run_experiment(cfg)
        first = (tmp_path / "out" / "trace_seed1.csv").read_bytes()
        experiment.run_experiment(cfg)
        assert (tmp_path / "out" / "trace_seed1.csv").read_bytes() == first


class TestInitConfig:
    def test_offset_init_is_deterministic_unit_scaled(self, tmp_path):
        cfg = minimal_config(tmp_path, init={"kind": "offset", "scale": 2.5, "seed": 4})
        config = experiment.load_config(cfg)
        a = experiment.build_task(config)
        b = experiment.build_task(config)
        np.testing.assert_array_equal(a.w0, b.w0)
        assert np.linalg.norm(a.w0) == pytest.approx(2.5)

    def test_bad_init_kind_reports_field(self, tmp_path):
        cfg = minimal_config(tmp_path, init={"kind": "bogus", "scale": 1.0, "seed": 0})
        with pytest.raises(ConfigError, match=r"init\.kind"):
            experiment.build_task(experiment.load_config(cfg))


class TestSummaryBoundCheck:
    def certified_config(self, tmp_path):
        return {
            "dataset": {"m": 4, "n_labels": 4, "per_label": 150, "separation": 1.0, "seed": 7},
            "topology": {"n_clusters": 4, "cluster_size": 3, "seed": 11},
            "loss": {"reg": 3.0},
            "schedule": {
                "T": 120, "tau": 5,
                "gamma": {"mode": "certified", "value": 0, "cadence": 5, "phi": 2.0, "max_rounds": 500},
            },
            "step": {"kind": "diminishing", "gamma": "auto", "alpha": "auto"},
            "control": {"zeta_frac": 0.05, "tau_max": 5},
            "seeds": [1, 2, 3],
            "output_dir": str(tmp_path / "out"),
        }

    def test_certified_run_reports_envelope(self, tmp_path):
        summary = experiment.run_experiment(self.certified_config(tmp_path))
        assert summary["bound_check"] is True

    def test_uncertified_run_reports_null(self, tmp_path):
        summary = experiment.run_experiment(minimal_config(tmp_path))
        assert summary["bound_check"] is None

    def test_time_to_peak_monotone_in_rounds(self, tmp_path):
        # summary's time-to-75%-of-peak must not grow when consensus increases
        times = []
        for gamma_value in (0, 2, 5):
            cfg = {
                "dataset": {"m": 5, "n_labels": 2, "per_label": 300, "separation": 2.0, "seed": 7},
                "partition": {"mode": "extreme", "seed": 13},
                "loss": {"kind": "squared_hinge_svm", "reg": 10.0},
                "topology": {"n_clusters": 6, "cluster_size": 4, "seed": 11},
                "init": {"kind": "offset", "scale": 3.0, "seed": 4},
                "schedule": {
                    "T": 300, "tau": 20,
                    "gamma": {"mode": "fixed", "value": gamma_value, "cadence": 5},
                },
                "step": {"kind": "constant", "eta": 0.003},
                "seeds": [1, 2, 3],
                "output_dir": str(tmp_path / f"out_g{gamma_value}"),
            }
            times.append(experiment.run_experiment(cfg)["t_to_75pct_peak"])
        assert all(t is not None for t in times)
        assert times[1] <= times[0] and times[2] <= times[1]


class TestCliBoundsReport:
    def test_bounds_report_verb(self, tmp_path, capsys):
        cfg = TestSummaryBoundCheck().certified_config(tmp_path)
        cfg["seeds"] = [1, 2]
        cfg_path = tmp_path / "env.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "report.json"
        rc = cli.main(["bounds-report", str(cfg_path), "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["holds"] is True
        assert len(payload["per_t"]) == 120
        assert all(row["measured"] <= row["bound"] for row in payload["per_t"])

    def test_constant_step_is_a_config_error(self, tmp_path, capsys):
        cfg = TestSummaryBoundCheck().certified_config(tmp_path)
        cfg["step"] = {"kind": "constant", "eta": 0.01}
        cfg_path = tmp_path / "constant.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "report.json"
        assert cli.main(["bounds-report", str(cfg_path), "--out", str(out)]) == 2
        assert "step.kind" in capsys.readouterr().err
        assert not out.exists()

    def test_uncertifiable_diversity_is_a_config_error(self, tmp_path, capsys):
        # the 'auto' alpha admits zeta_frac as omega, but this data's omega is larger
        cfg = TestSummaryBoundCheck().certified_config(tmp_path)
        cfg["dataset"].update(separation=2.0, seed=1)
        cfg_path = tmp_path / "diverse.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "report.json"
        assert cli.main(["bounds-report", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "step.alpha" in err and "omega_max=" in err and "control.zeta_frac" in err
        assert not out.exists()

    def test_alpha_chosen_for_a_shorter_interval_names_tau_max(self, tmp_path, capsys):
        # the 'auto' alpha is chosen for control.tau_max 5; zeta_frac is above this data's omega
        cfg = TestSummaryBoundCheck().certified_config(tmp_path)
        cfg["schedule"]["tau"] = 20
        cfg_path = tmp_path / "long.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "report.json"
        assert cli.main(["bounds-report", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "step.alpha" in err and "control.tau_max to at least 20" in err
        assert "zeta_frac" not in err
        assert not out.exists()
        cfg["control"]["tau_max"] = 20
        config = experiment.load_config(cfg)
        assert experiment.certificate_constants(config, experiment.build_task(config)).nu > 0

    def test_bounds_report_needs_no_output_dir(self, tmp_path, monkeypatch, capsys):
        # bounds-report writes only its --out report; run still needs output_dir or --out
        cfg = minimal_config(tmp_path, seeds=[1, 2], step={"kind": "diminishing"})
        del cfg["output_dir"], cfg["loss"]
        cfg["schedule"] = {"T": 40, "tau": 5, "gamma": {"mode": "certified", "phi": 2.0, "max_rounds": 200}}
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps(cfg))
        assert cli.main(["bounds-report", "cfg.json", "--out", "report.json"]) == 0
        assert json.loads(Path("report.json").read_text())["holds"] is True
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "report.json"]
        built = []
        monkeypatch.setattr(experiment, "build_task", built.append)
        assert cli.main(["run", "cfg.json"]) == 2
        assert "config field 'output_dir'" in capsys.readouterr().err
        assert not built

    def test_overflowing_rate_constant_names_step_not_omega(self, tmp_path, capsys):
        # Z2 overflows at this phi; the data's omega is below omega_max
        cfg = TestSummaryBoundCheck().certified_config(tmp_path)
        cfg["schedule"]["gamma"]["phi"] = 1e154
        cfg_path = tmp_path / "overflow.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "report.json"
        assert cli.main(["bounds-report", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config field 'step'" in err and "rate constant nu overflows" in err and "omega" not in err
        assert not out.exists()

    def test_step_outside_the_theorem_names_step(self, tmp_path):
        cfg = TestSummaryBoundCheck().certified_config(tmp_path)
        cfg["step"] = {"kind": "diminishing", "gamma": 0.01, "alpha": 10.0}
        config = experiment.load_config(cfg)
        with pytest.raises(ConfigError, match=r"'step': Theorem 2 inapplicable"):
            experiment.certificate_constants(config, experiment.build_task(config))


# one change each to the certified config: the field that leaves the run
# uncovered, and the dotted config paths set
UNCOVERED = {
    "adaptive": ("schedule.mode", {"schedule.mode": "adaptive"}),
    "constant-step": ("step.kind", {"step": {"kind": "constant", "eta": 0.01}}),
    "svm": ("loss.kind", {"loss.kind": "squared_hinge_svm"}),
    "fixed-rounds": ("schedule.gamma", {"schedule.gamma": {"mode": "fixed", "value": 1, "cadence": 5}}),
    "full-baseline": (
        "schedule.gamma", {"aggregation.mode": "full", "schedule.gamma": {"mode": "fixed", "value": 0}}
    ),
    "lossy": ("outage.enabled", {"outage.enabled": True}),
    "mini-batch": ("sgd.batch_size", {"sgd.batch_size": 10}),
}


def gated_config(tmp_path, case=None):
    cfg = TestSummaryBoundCheck().certified_config(tmp_path)
    cfg["seeds"] = [1, 2]
    for path, value in UNCOVERED[case][1].items() if case else ():
        cli._set_path(cfg, path, value)
    return cfg


class TestCertificateGate:
    """run_experiment's bound_check and bounds-report ask one gate, certificate_constants."""

    @pytest.mark.parametrize("case", list(UNCOVERED))
    def test_bounds_report_exits_2_before_any_seed(self, tmp_path, capsys, monkeypatch, case):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(gated_config(tmp_path, case)))
        runs = []
        monkeypatch.setattr(experiment, "run_single", lambda *args: runs.append(args))
        out = tmp_path / "report.json"
        assert cli.main(["bounds-report", str(cfg_path), "--out", str(out)]) == 2
        assert f"config field '{UNCOVERED[case][0]}'" in capsys.readouterr().err
        assert not runs
        assert not out.exists()

    @pytest.mark.parametrize("case", list(UNCOVERED))
    def test_summary_bound_check_is_null(self, tmp_path, case):
        assert experiment.run_experiment(gated_config(tmp_path, case))["bound_check"] is None

    def test_covered_run_agrees(self, tmp_path):
        cfg = gated_config(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "report.json"
        assert cli.main(["bounds-report", str(cfg_path), "--out", str(out)]) == 0
        holds = json.loads(out.read_text())["holds"]
        assert holds is True
        assert experiment.run_experiment(cfg)["bound_check"] is holds
