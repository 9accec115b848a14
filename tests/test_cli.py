"""Command-line behavior: exit codes, JSON/CSV output, reproducibility."""

import json
import math
import warnings

import numpy as np
import pytest

from faultroute import stability
from faultroute.cli import _CLASSIFICATION_EXIT, load_config, main, parse_config
from faultroute.errors import ParameterError
from faultroute.stability import stability_verdict, throughput_bounds


NETWORK = {"F1": 0.5, "F2": 0.5, "beta": 1.0, "eta": 0.5}
UNIFORM_CHAIN = {"probs": [0.25, 0.25, 0.25, 0.25]}


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {**NETWORK, **UNIFORM_CHAIN, **overrides}
    for key, value in list(cfg.items()):
        if value is None:
            del cfg[key]
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_stable_demand_exits_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, eta=0.5)
        code, out, _ = run(capsys, ["--config", str(cfg), "check"])
        payload = json.loads(out)
        assert code == 0
        assert payload["classification"] == "certified-stable"
        assert payload["sufficient"]["holds"] is True
        assert payload["necessary"]["holds"] is True
        assert len(payload["necessary"]["slacks"]) == 3
        assert payload["bounds"]["lower"] <= payload["bounds"]["upper"]

    def test_demand_one_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, eta=1.0)
        code, out, _ = run(capsys, ["--config", str(cfg), "check"])
        payload = json.loads(out)
        assert code == 2
        assert payload["classification"] == "certified-unstable"
        assert payload["violated"] == "necessary3"

    def test_gap_demand_exits_three(self, tmp_path, capsys):
        cfg = write_config(tmp_path, eta=0.69)
        code, out, _ = run(capsys, ["--config", str(cfg), "check"])
        assert code == 3
        assert json.loads(out)["classification"] == "indeterminate"

    def test_verdict_written_when_out_given(self, tmp_path, capsys):
        cfg = write_config(tmp_path, eta=0.5)
        out_dir = tmp_path / "results"
        code, _, _ = run(capsys, ["--config", str(cfg), "--out", str(out_dir), "check"])
        assert code == 0
        assert (out_dir / "verdict.json").exists()
        meta = json.loads((out_dir / "metadata.json").read_text())
        assert meta["tool"] == "faultroute"
        assert meta["config"]["eta"] == 0.5


class TestCheckMatchesBounds:
    """``check`` certifies a demand exactly when it is at most its own ``bounds.lower``."""

    @pytest.mark.parametrize(
        "config",
        [
            {},  # the README network
            {"F1": 0.7, "F2": 0.3, "beta": 3.0, "probs": [0.5, 0.2, 0.2, 0.1]},
            {"F1": 0.35, "F2": 0.65, "beta": 0.2, "probs": None, "failure": {"p": 0.3, "rho": 0.1}},
        ],
    )
    def test_stable_up_to_lower_and_not_beyond(self, tmp_path, capsys, config):
        _, out, _ = run(capsys, ["--config", str(write_config(tmp_path, **config)), "bounds"])
        lower = json.loads(out)["bounds"]["lower"]
        assert lower > 0.0
        for eta, expected in ((lower, "certified-stable"), (math.nextafter(lower, 1.0), "indeterminate")):
            cfg = write_config(tmp_path, **config, eta=eta)
            _, out, _ = run(capsys, ["--config", str(cfg), "check"])
            payload = json.loads(out)
            assert payload["necessary"]["holds"]
            assert payload["bounds"]["lower"] == lower
            assert payload["classification"] == expected
            assert (payload["classification"] == "certified-stable") == (eta <= payload["bounds"]["lower"])


class TestCheckRunsOneSearch:
    """``check`` asks for the verdict and the bounds, and the two share one search."""

    CONFIGS = [
        ({}, "certified-stable"),  # the README network
        ({"eta": 1.0}, "certified-unstable"),
        ({"eta": 0.69}, "indeterminate"),
    ]

    @pytest.mark.parametrize("config, classification", CONFIGS)
    def test_one_searcher_per_check(self, tmp_path, capsys, monkeypatch, config, classification):
        built = []
        init = stability._Searcher.__init__

        def counted(self, params):
            built.append(params)
            init(self, params)

        monkeypatch.setattr(stability._Searcher, "__init__", counted)
        _, out, _ = run(capsys, ["--config", str(write_config(tmp_path, **config)), "check"])
        assert json.loads(out)["classification"] == classification
        assert len(built) == 1

    @pytest.mark.parametrize("config, classification", CONFIGS)
    def test_output_equals_verdict_then_bounds(self, tmp_path, capsys, config, classification):
        path = write_config(tmp_path, **config)
        cfg = load_config(str(path))
        verdict = stability_verdict(cfg.params, cfg.probs)
        tb = throughput_bounds(cfg.params, cfg.probs)
        payload = verdict.to_dict()
        payload["bounds"] = {"lower": tb.lower, "upper": tb.upper}
        code, out, _ = run(capsys, ["--config", str(path), "check"])
        assert out == json.dumps(payload, indent=2, default=float) + "\n"
        assert verdict.classification == classification
        assert code == _CLASSIFICATION_EXIT[classification]


class TestConfigErrors:
    def test_missing_chain_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, probs=None)
        code, _, err = run(capsys, ["--config", str(cfg), "check"])
        assert code == 1
        assert "rates" in err

    def test_two_chain_entries_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rates=[[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]])
        code, _, err = run(capsys, ["--config", str(cfg), "check"])
        assert code == 1

    def test_bad_capacities_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, F2=0.6)
        code, _, err = run(capsys, ["--config", str(cfg), "check"])
        assert code == 1
        assert "error" in err

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run(capsys, ["--config", "/nonexistent.json", "check"])
        assert code == 1

    def test_bad_probs_sum_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, probs=[0.3, 0.3, 0.3, 0.3])
        code, _, _ = run(capsys, ["--config", str(cfg), "check"])
        assert code == 1

    @pytest.mark.parametrize("key, value", [("eta", float("nan")), ("beta", float("inf")), ("F1", float("nan"))])
    def test_non_finite_parameter_exits_one(self, tmp_path, capsys, key, value):
        # json writes these as NaN / Infinity and reads them back as floats
        cfg = write_config(tmp_path, **{key: value})
        code, out, err = run(capsys, ["--config", str(cfg), "check"])
        assert code == 1
        assert out == ""
        assert f"error: {key} must be finite" in err

    @pytest.mark.parametrize(
        "sim, key",
        [
            ({"horizon": 5, "seed": None}, "seed"),
            ({"horizon": 5, "x0": [1]}, "x0"),
            ({"horizon": 5, "x0": 1.5}, "x0"),
            ({"horizon": 5, "x0": [1, None]}, "x0"),
            ({"step": 0.1}, "horizon"),
        ],
    )
    def test_wrong_shaped_sim_value_exits_one(self, tmp_path, capsys, sim, key):
        cfg = write_config(tmp_path, sim=sim)
        code, _, err = run(capsys, ["--config", str(cfg), "simulate"])
        assert code == 1
        assert err.startswith("error: ")
        assert f"'{key}'" in err

    @pytest.mark.parametrize(
        "sim, message",
        [
            ({"horizon": float("inf")}, "horizon must be finite"),
            ({"horizon": float("nan")}, "horizon must be finite"),
            ({"horizon": 5, "divergence_cap": float("nan")}, "divergence cap must not be NaN"),
            ({"horizon": 5, "x0": [float("inf"), 0.0]}, "initial densities must be finite"),
            ({"horizon": 5, "x0": [0.0, float("nan")]}, "initial densities must be finite"),
            ({"horizon": 5, "step": float("inf"), "sample_interval": float("inf")}, "need 0 < step"),
            ({"horizon": 5, "sample_interval": float("inf")}, "need 0 < step"),
        ],
    )
    def test_non_finite_sim_value_exits_one(self, tmp_path, capsys, monkeypatch, sim, message):
        # json writes these as NaN / Infinity; the config is refused before any run starts
        monkeypatch.setattr("faultroute.sim._run", None)
        cfg = write_config(tmp_path, sim=sim)
        code, out, err = run(capsys, ["--config", str(cfg), "--out", str(tmp_path / "out"), "simulate"])
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "raw, named",
        [
            ({**NETWORK, **UNIFORM_CHAIN, "eta_grid": 5}, "'eta_grid'"),
            ({**NETWORK, **UNIFORM_CHAIN, "eta_grid": [0.1, None]}, "'eta_grid'"),
            ({**NETWORK, "failure": 5}, "'failure'"),
            ({**NETWORK, "failure": {"p": None}}, "'failure.p'"),
            ({**NETWORK, **UNIFORM_CHAIN, "F1": None}, "'F1'"),
            ("hello", "JSON object"),
            ([1, 2], "JSON object"),
            ({**NETWORK, "probs": [True, False, False, False]}, "'probs'"),
            ({**NETWORK, "probs": [[0.25, 0.25], 0.25, 0.25]}, "'probs'"),
        ],
    )
    def test_wrong_shaped_config_value_exits_one(self, tmp_path, capsys, raw, named):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))
        code, out, err = run(capsys, ["--config", str(cfg), "scan"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert named in err


    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"sim": {"horizon": 5, "seed": 3.7}}, "seed"),
            ({"sim": {"horizon": 5, "seed": 3.0}}, "seed"),
            ({"sim": {"horizon": 5, "s0": 2.9}}, "s0"),
            ({"sim": {"horizon": 5, "seed": True}}, "seed"),
            ({"sim": {"horizon": 5, "x0": [True, 0.0]}}, "x0"),
            ({"F1": True}, "F1"),
        ],
    )
    def test_no_silent_truncation_or_bool_number(self, overrides, key):
        # these were read as seed 3, s0 2, seed 1, x0 (1, 0) and F1 1.0
        with pytest.raises(ParameterError, match=f"'{key}'"):
            parse_config({**NETWORK, **UNIFORM_CHAIN, **overrides})

    @pytest.mark.parametrize(
        "raw, key",
        [
            ({**NETWORK, **UNIFORM_CHAIN, "F1": "0.5"}, "F1"),
            ({**NETWORK, **UNIFORM_CHAIN, "beta": 10**400}, "beta"),
            ({**NETWORK, "failure": {"p": 0.5, "rho": "0.1"}}, "failure.rho"),
            ({**NETWORK, "probs": [True, False, False, False]}, "probs"),
            ({**NETWORK, "probs": ["0.25", "0.25", "0.25", "0.25"]}, "probs"),
            ({**NETWORK, "probs": "0.25"}, "probs"),
            ({**NETWORK, "rates": [[0, 1, 1, "1"], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]}, "rates"),
            ({**NETWORK, "rates": [[0, 1, 1, True], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]}, "rates"),
            ({**NETWORK, **UNIFORM_CHAIN, "sim": {"horizon": "5"}}, "horizon"),
            ({**NETWORK, **UNIFORM_CHAIN, "sim": {"horizon": 5, "x0": ["1", 0.0]}}, "x0"),
            ({**NETWORK, "probs": [[0.25, 0.25], 0.25, 0.25]}, "probs"),
            ({**NETWORK, "probs": [0.5, 0.5]}, "probs"),
            ({**NETWORK, "rates": [[0, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]}, "rates"),
            ({**NETWORK, "rates": [0, 1, 1, 1]}, "rates"),
        ],
    )
    def test_config_values_must_be_json_numbers(self, raw, key):
        # each of these was read as a number (float("0.5"), or np.asarray on bools
        # and strings) or, for an int too large for a float, raised OverflowError;
        # a ragged or short list got numpy's or the validator's message, without the key
        with pytest.raises(ParameterError, match=f"'{key}'"):
            parse_config(raw)

    def test_fractional_seed_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sim={"horizon": 5, "seed": 3.7})
        code, out, err = run(capsys, ["--config", str(cfg), "--out", str(tmp_path / "out"), "simulate"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: sim key 'seed'")
        assert not (tmp_path / "out").exists()


class TestChainInputs:
    def test_rates_chain(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            probs=None,
            rates=[[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]],
        )
        parsed = load_config(str(cfg))
        assert parsed.chain_kind == "rates"
        assert np.allclose(parsed.probs, 0.25)

    def test_failure_chain(self, tmp_path, capsys):
        cfg = write_config(tmp_path, probs=None, failure={"p": 0.25, "rho": 0.0})
        parsed = load_config(str(cfg))
        assert parsed.chain_kind == "failure"
        assert np.allclose(parsed.probs, [9 / 16, 3 / 16, 3 / 16, 1 / 16])
        # simulation rates constructed to realize the same law
        from faultroute import stationary_distribution

        assert np.allclose(stationary_distribution(parsed.rates), parsed.probs, atol=1e-12)


class TestDumpConfig:
    def test_round_trip(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            eta=0.7,
            sim={"horizon": 100.0, "step": 0.01, "seed": 3, "sample_interval": 2.0},
            eta_grid=[0.2, 0.4],
        )
        code, out, _ = run(capsys, ["--config", str(cfg), "--dump-config"])
        assert code == 0
        dumped = json.loads(out)
        reparsed = parse_config(dumped)
        assert reparsed.to_dict() == dumped

    def test_sim_defaults_and_unknown_keys(self, tmp_path):
        from faultroute import SimConfig

        cfg = write_config(tmp_path, sim={"horizon": 5, "x0": [1, 2], "later_key": 1})
        parsed = load_config(str(cfg))
        assert parsed.sim == SimConfig(horizon=5.0, x0=(1.0, 2.0))
        assert parsed.to_dict()["sim"] == {
            "horizon": 5.0, "step": 0.01, "seed": 0, "x0": [1.0, 2.0], "s0": 1,
            "sample_interval": 1.0, "divergence_cap": 1000.0,
        }

    def test_requires_config(self, capsys):
        with pytest.raises(SystemExit):
            main(["--dump-config"])


class TestUsageErrors:
    """Usage errors exit 1, never 2, which means certified-unstable."""

    @pytest.mark.parametrize(
        "argv",
        [["check"], ["bounds"], ["simulate"], ["scan"], ["--dump-config"], [], ["figure", "nope"]],
    )
    def test_exit_one(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        assert "error" in capsys.readouterr().err


class TestFigures:
    def test_homo_rate_values(self, tmp_path, capsys):
        code, _, _ = run(capsys, ["--quiet", "--out", str(tmp_path), "figure", "homo-rate"])
        assert code == 0
        lines = (tmp_path / "figure_homo_rate.csv").read_text().splitlines()
        assert lines[0] == "p,lower_bound"
        assert len(lines) == 102
        assert lines[1] == "0,1"
        mid = lines[51].split(",")
        assert float(mid[0]) == pytest.approx(0.5)
        assert float(mid[1]) == pytest.approx(0.666667, abs=1e-6)

    def test_homo_corr_values(self, tmp_path, capsys):
        run(capsys, ["--quiet", "--out", str(tmp_path), "figure", "homo-corr"])
        lines = (tmp_path / "figure_homo_corr.csv").read_text().splitlines()
        assert lines[0] == "rho,lower_bound"
        last = lines[-1].split(",")
        assert float(last[0]) == pytest.approx(0.5)
        assert float(last[1]) == pytest.approx(1.0)

    def test_hetero_curves_and_numeric_upper(self, tmp_path, capsys):
        run(capsys, ["--quiet", "--out", str(tmp_path), "figure", "hetero"])
        lines = (tmp_path / "figure_hetero.csv").read_text().splitlines()
        assert lines[0] == "dF,lower_bound,upper_bound"
        first = lines[1].split(",")
        assert [float(v) for v in first] == [0.0, pytest.approx(0.666667, abs=1e-6), 1.0]
        last = [float(v) for v in lines[-1].split(",")]
        assert last[1] == 0.0 and abs(last[2]) < 1e-6

        numeric = (tmp_path / "figure_hetero_numeric_upper.csv").read_text().splitlines()
        assert numeric[0] == "dF,upper_bound"
        assert len(numeric) == 102
        rows = {float(r.split(",")[0]): float(r.split(",")[1]) for r in numeric[1:]}
        assert rows[0.0] >= 0.999
        assert rows[1.0] <= 1e-3
        assert rows[0.5] == pytest.approx(0.880367, abs=2e-4)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, ["--quiet", "--out", str(a), "figure", "hetero"])
        run(capsys, ["--quiet", "--out", str(b), "figure", "hetero"])
        assert (a / "figure_hetero.csv").read_bytes() == (b / "figure_hetero.csv").read_bytes()


class TestSimulate:
    def sim_config(self, tmp_path, **kw):
        sim = {"horizon": 60.0, "step": 0.01, "seed": 7, "sample_interval": 1.0}
        sim.update(kw.pop("sim", {}))
        return write_config(tmp_path, sim=sim, **kw)

    def test_trajectory_csv_reproducible(self, tmp_path, capsys):
        cfg = self.sim_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, ["--quiet", "--config", str(cfg), "--out", str(a), "simulate"])[0] == 0
        assert run(capsys, ["--quiet", "--config", str(cfg), "--out", str(b), "simulate"])[0] == 0
        ta = (a / "trajectory.csv").read_bytes()
        assert ta == (b / "trajectory.csv").read_bytes()
        header = ta.decode().splitlines()[0]
        assert header == "t,mode,x1,x2,avg_abs_x"

    def test_metadata_records_generator_and_summary(self, tmp_path, capsys):
        cfg = self.sim_config(tmp_path)
        run(capsys, ["--quiet", "--config", str(cfg), "--out", str(tmp_path / "m"), "simulate"])
        meta = json.loads((tmp_path / "m" / "metadata.json").read_text())
        assert meta["generator"] == "numpy.random.PCG64"
        assert meta["summary"]["diverged"] is False
        assert meta["summary"]["seed"] == 7

    def test_divergence_recorded_in_metadata(self, tmp_path, capsys):
        cfg = self.sim_config(
            tmp_path,
            eta=1.05,
            sim={"horizon": 2000.0, "divergence_cap": 50.0},
        )
        run(capsys, ["--quiet", "--config", str(cfg), "--out", str(tmp_path / "d"), "simulate"])
        meta = json.loads((tmp_path / "d" / "metadata.json").read_text())
        assert meta["summary"]["diverged"] is True
        assert meta["summary"]["diverged_at"] < 2000.0

    def test_seed_override_applies(self, tmp_path, capsys):
        cfg = self.sim_config(tmp_path)
        run(capsys, ["--quiet", "--config", str(cfg), "--seed", "99", "--out", str(tmp_path / "s"), "simulate"])
        meta = json.loads((tmp_path / "s" / "metadata.json").read_text())
        assert meta["summary"]["seed"] == 99

    @pytest.mark.parametrize("command", ["simulate", "scan"])
    def test_negative_seed_override_exits_one(self, tmp_path, capsys, command):
        cfg = self.sim_config(tmp_path)
        code, out, err = run(capsys, ["--quiet", "--config", str(cfg), "--seed", "-1", "--out", str(tmp_path), command])
        assert code == 1
        assert out == ""
        assert err.startswith("error: seed must be")

    def test_simulate_without_sim_section_errors(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code, _, err = run(capsys, ["--quiet", "--config", str(cfg), "simulate"])
        assert code == 1
        assert "sim" in err


class TestScan:
    def test_row_per_grid_point(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            sim={"horizon": 300.0, "step": 0.01, "seed": 0},
            eta_grid=[0.3, 0.5, 1.1],
        )
        out_dir = tmp_path / "scan"
        code, _, _ = run(capsys, ["--quiet", "--config", str(cfg), "--out", str(out_dir), "scan"])
        assert code == 0
        lines = (out_dir / "scan.csv").read_text().splitlines()
        assert lines[0] == "eta,verdict,n_diverged,median_avg_slope,median_growth_slope"
        assert len(lines) == 4
        scan = json.loads((out_dir / "scan.json").read_text())
        assert len(scan["rows"]) == 3
        assert scan["transition_window"][1] == 1.1

    def test_short_horizon_writes_strict_json_without_warnings(self, tmp_path, capsys):
        # under 4 samples every slope is NaN; json would write bare NaN tokens, and nanmedian would warn
        cfg = write_config(tmp_path, sim={"horizon": 2.0, "step": 0.01, "seed": 0}, eta_grid=[0.5])
        out_dir = tmp_path / "scan"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, ["--quiet", "--config", str(cfg), "--out", str(out_dir), "scan"])
        assert (code, err) == (0, "")

        def reject(constant):
            raise ValueError(f"{constant} in scan.json")

        row = json.loads((out_dir / "scan.json").read_text(), parse_constant=reject)["rows"][0]
        assert row["median_avg_slope"] is None and row["median_growth_slope"] is None
        assert all(run["avg_slope"] is None and run["growth_slope"] is None for run in row["runs"])
        assert "nan" in (out_dir / "scan.csv").read_text()
