"""Command-line behavior: exit codes, JSON/CSV output, reproducibility."""

import json

import numpy as np
import pytest

from faultroute.cli import load_config, main, parse_config


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "F1": 0.5,
        "F2": 0.5,
        "beta": 1.0,
        "eta": 0.5,
        "probs": [0.25, 0.25, 0.25, 0.25],
    }
    cfg.update(overrides)
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
