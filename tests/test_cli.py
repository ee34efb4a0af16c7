"""End-to-end checks of the command line entry points."""

import csv
import json

import pytest

from lteusim import cli, wifi
from lteusim.scenario import desk_config


SMALL = ["--set", "n_sbs=1", "--set", "n_users=3", "--set", "n_waps=0",
         "--set", "action_set_size=4", "--set", "reservoir_units=16",
         "--set", "max_iterations=60", "--set", "convergence_window=20"]


class TestRunCommand:
    def test_writes_all_outputs(self, tmp_path):
        code = cli.main(["run", "--out", str(tmp_path), "--seed", "4", *SMALL])
        assert code == 0
        for name in ("config_echo.txt", "trace.csv", "cdf.csv",
                     "summary.txt", "rates.csv"):
            assert (tmp_path / name).exists(), name
        summary = (tmp_path / "summary.txt").read_text()
        assert "algorithm = esn" in summary
        assert "seed = 4" in summary
        rows = list(csv.reader((tmp_path / "trace.csv").open()))
        assert rows[0][0] == "round"
        assert len(rows) > 1

    def test_set_overrides_reach_the_echo(self, tmp_path):
        cli.main(["run", "--out", str(tmp_path), *SMALL])
        echo = (tmp_path / "config_echo.txt").read_text()
        assert "n_users = 3" in echo
        assert "reservoir_units = 16" in echo

    def test_config_file_plus_set(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            desk_config(n_sbs=1, n_users=2, n_waps=0, action_set_size=4,
                        reservoir_units=16, max_iterations=40,
                        convergence_window=15).to_mapping()))
        out = tmp_path / "out"
        code = cli.main(["run", "--config", str(cfg_path),
                         "--set", "n_users=4", "--out", str(out)])
        assert code == 0
        assert "n_users = 4" in (out / "config_echo.txt").read_text()

    def test_q_algorithm_trace_has_nan_beta(self, tmp_path):
        code = cli.main(["run", "--algorithm", "q_lteu_decoupled",
                         "--out", str(tmp_path), *SMALL])
        assert code == 0
        rows = list(csv.reader((tmp_path / "trace.csv").open()))
        assert rows[1][5] == "nan"

    def test_bad_set_pair_fails(self, tmp_path, capsys):
        code = cli.main(["run", "--out", str(tmp_path), "--set", "oops"])
        assert code == 2
        assert "key=value" in capsys.readouterr().err

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        code = cli.main(["run", "--out", str(tmp_path),
                         "--set", "warp_drive=1"])
        assert code == 2
        assert "warp_drive" in capsys.readouterr().err

    @pytest.mark.parametrize("pair", ["wifi_rate_req_bps=nan", "f_u_hz=inf",
                                      "p_sbs_dbm=nan", "sbs_coverage_m=nan"])
    def test_non_finite_set_value_fails(self, tmp_path, capsys, pair):
        code = cli.main(["run", "--out", str(tmp_path), "--set", pair,
                         "--set", "max_iterations=5"])
        assert code == 2
        key = pair.split("=")[0]
        assert f"error: {key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("text,key", [
        ('{"pathloss_licensed": 5}', "pathloss_licensed"),
        ('{"n_sbs": true}', "n_sbs"),
    ])
    def test_malformed_json_value_fails(self, tmp_path, capsys, text, key):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(text)
        code = cli.main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err


class TestSweepCommand:
    def test_sweep_csv_layout(self, tmp_path):
        code = cli.main(["sweep", "--axis", "n_users", "--values", "2,3",
                         "--algorithms", "q_lteu_decoupled", "--runs", "1",
                         "--out", str(tmp_path), *SMALL])
        assert code == 0
        rows = list(csv.reader((tmp_path / "sweep.csv").open()))
        assert rows[0][:3] == ["axis", "value", "algorithm"]
        assert len(rows) == 3
        assert rows[1][0] == "n_users"

    def test_unknown_algorithm_rejected(self, tmp_path, capsys):
        code = cli.main(["sweep", "--axis", "n_users", "--values", "2",
                         "--algorithms", "dqn", "--runs", "1",
                         "--out", str(tmp_path), *SMALL])
        assert code == 2
        assert "dqn" in capsys.readouterr().err


class TestCoexistenceCommand:
    def test_table_matches_the_model(self, tmp_path):
        code = cli.main(["coexistence", "--wifi-users", "2,4",
                         "--rates", "2e6,4e6", "--out", str(tmp_path)])
        assert code == 0
        rows = list(csv.reader((tmp_path / "coexistence.csv").open()))
        assert rows[0] == ["n_wifi", "rate_req_bps", "tx_probability",
                          "throughput_bps", "lte_fraction",
                          "wifi_overloaded"]
        assert len(rows) == 5
        params = wifi.default_params(2)
        want = wifi.lte_fraction(params, 2e6).lte_share
        assert float(rows[1][4]) == pytest.approx(want, rel=1e-8)

    def test_default_rate_comes_from_config(self, tmp_path):
        code = cli.main(["coexistence", "--wifi-users", "4",
                         "--out", str(tmp_path)])
        assert code == 0
        rows = list(csv.reader((tmp_path / "coexistence.csv").open()))
        assert len(rows) == 2
        assert float(rows[1][1]) == desk_config().wifi_rate_req_bps


class TestNeCheckCommand:
    def test_report_and_export(self, tmp_path):
        code = cli.main(["ne-check", "--seed", "1", "--out", str(tmp_path),
                         "--set", "max_iterations=250"])
        report = (tmp_path / "ne_report.txt").read_text()
        assert "equilibrium =" in report
        assert "bs0:" in report
        assert (tmp_path / "small_game.txt").exists()
        assert code in (0, 1)

    def test_exit_code_matches_verdict(self, tmp_path):
        code = cli.main(["ne-check", "--seed", "1", "--out", str(tmp_path),
                         "--set", "max_iterations=250"])
        report = (tmp_path / "ne_report.txt").read_text()
        if "equilibrium = True" in report:
            assert code == 0
        else:
            assert code == 1


def test_console_entry_point_importable():
    assert callable(cli.main)
