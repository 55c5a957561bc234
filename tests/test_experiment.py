"""Config ingestion, experiment pipeline determinism, cost accounting, CLI."""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from tthf import cli, experiment, trainer
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
        assert config.hash() == "506f2ac22ca77278"

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
            schedule={"T": 10, "tau": [2, 8], "gamma": {"mode": "none"}},
        )
        config = experiment.load_config(cfg)
        trace = experiment.run_single(config, experiment.build_task(config), seed=1)
        assert trace.boundaries == [2, 10]
        assert trace.taus == [2, 8]

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
                    "trace_seed3_control.csv": "c3fe03392efd184aa736b8513044227a7965c0c7b4ac38458bd21fafd7fdde07",
                },
            ),
            (
                {"aggregation": {"mode": "full"}, "schedule": {"T": 40, "tau": 10}},
                {
                    "trace_seed3.csv": "4fe305cd2f238e577319f04a4d89297c64093edef3aaee9ff3862a0fc8dfeb23",
                    "trace_seed3_control.csv": "856cdedc04941c34423deda177cc41dad4eb451648ffb4326d126cab5a21d843",
                },
            ),
        ],
        ids=["lossy-gossip", "full-participation"],
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
            for p in sorted((tmp_path / "out").glob("*.csv"))
        }
        assert digests == expected


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
        cfg2 = minimal_config(tmp_path, schedule={"T": 10, "tau": 5, "gamma": {"mode": "none"}})
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
            ("cost", {"cost": {"e_d2d": "x"}}),
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
            ("schedule.gamma", {"schedule": {"T": 10, "gamma": {"mode": "fixed", "value": 1.5}}}),
            ("schedule.gamma", {"schedule": {"T": 10, "gamma": {"mode": "fixed", "value": True}}}),
            ("schedule.gamma", {"schedule": {"T": 10, "gamma": {"mode": "fixed", "value": 1,
                                                                "cadence": 1.5}}}),
            ("schedule.gamma", {"schedule": {"T": 10, "gamma": {"mode": "certified",
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
            ("schedule.gamma", {"schedule": {"T": 10, "gamma": {"mode": "certified",
                                                                "max_rounds": -1}}}),
            ("schedule.gamma", {"schedule": {"mode": "adaptive", "T": 10,
                                             "gamma": {"max_rounds": -1}}}),
            ("control", {"schedule": {"mode": "adaptive", "T": 10}, "control": {"xi": 0}}),
            ("control", {"schedule": {"mode": "adaptive", "T": 10}, "control": {"xi": -1}}),
            ("control", {"schedule": {"mode": "adaptive", "T": 10}, "control": {"xi_boost": 0}}),
            ("control", {"schedule": {"mode": "adaptive", "T": 10}, "control": {"xi_boost": -1}}),
            ("control", {"schedule": {"mode": "adaptive", "T": 10}, "control": {"alpha_cap": -1}}),
            ("control", {"schedule": {"mode": "adaptive", "T": 10},
                         "control": {"alpha_margin": 0.5}}),
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
            "alpha-margin-below-1",
        ],
    )
    def test_unrunnable_config_exits_2_before_any_output(self, tmp_path, capsys, field, override):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_config(tmp_path, **override)))
        assert cli.main(["run", str(cfg_path)]) == 2
        assert f"config field '{field}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
