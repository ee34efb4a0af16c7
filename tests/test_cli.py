"""End-to-end checks of the command line entry points."""

import csv
import json

import pytest

from lteusim import cli, game, harness, wifi
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

    @pytest.mark.parametrize("args,name", [
        (["--set", "rng_seed=-1"], "rng_seed"),
        (["--seed", "-3"], "--seed"),
    ])
    def test_negative_seed_fails(self, tmp_path, capsys, args, name):
        # numpy refuses a negative seed with a message naming neither
        out = tmp_path / "out"
        code = cli.main(["run", "--out", str(out), *args, *SMALL])
        assert code == 2
        assert f"error: {name} must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("text, kind", [("[1, 2]", "list"),
                                            ('"x"', "str")])
    def test_json_config_that_is_no_object_fails(self, tmp_path, capsys,
                                                 text, kind):
        cfg_path = tmp_path / "x.json"
        cfg_path.write_text(text)
        code = cli.main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a config must be a mapping")
        assert err.rstrip().endswith(f"got {kind}")


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
        assert "error: unknown algorithm 'dqn'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, name", [
        (["--values", ""], "values"),
        (["--values", ","], "values"),
        (["--values", "2", "--algorithms", ""], "algorithms"),
        (["--values", "2", "--algorithms", ","], "algorithms"),
    ])
    def test_empty_sweep_exits_2(self, tmp_path, capsys, flag, name):
        code = cli.main(["sweep", "--axis", "n_users", *flag, "--runs", "1",
                         "--out", str(tmp_path), *SMALL])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: sweep {name} must not be empty" in err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("flag, message", [
        (["--values", "2,2.0"], "sweep values must not repeat an entry, "
                                "got 2.0 twice"),
        (["--values", "2", "--algorithms", "esn,q_lteu_coupled,esn"],
         "sweep algorithms must not repeat an entry, got 'esn' twice"),
    ])
    def test_repeated_entry_exits_2(self, tmp_path, capsys, flag, message):
        code = cli.main(["sweep", "--axis", "n_users", *flag, "--runs", "1",
                         "--out", str(tmp_path), *SMALL])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_unreadable_value_names_its_flag(self, tmp_path, capsys):
        code = cli.main(["sweep", "--axis", "n_users", "--values", "2,a",
                         "--runs", "1", "--out", str(tmp_path), *SMALL])
        assert code == 2
        assert ("error: --values takes comma-separated float values, "
                "got 'a'") in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()


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


    @pytest.mark.parametrize("flag, entry, kind", [
        ("--rates", "a", "float"),
        ("--wifi-users", "x", "int"),
        ("--wifi-users", "2.5", "int"),
    ])
    def test_unreadable_entry_names_its_flag(self, tmp_path, capsys, flag,
                                             entry, kind):
        code = cli.main(["coexistence", flag, f"4,{entry}",
                         "--out", str(tmp_path)])
        assert code == 2
        assert (f"error: {flag} takes comma-separated {kind} values, "
                f"got {entry!r}") in capsys.readouterr().err
        assert not (tmp_path / "coexistence.csv").exists()


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

    def test_payoff_table_is_built_once(self, tmp_path, monkeypatch):
        calls = []
        build = game.joint_payoffs

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(game, "joint_payoffs", counted)
        code = cli.main(["ne-check", "--seed", "1", "--out", str(tmp_path),
                         "--set", "max_iterations=60"])
        assert code in (0, 1)
        assert len(calls) == 1
        assert (tmp_path / "small_game.txt").read_text().count("\n") > 2

    def test_oversized_instance_refused_before_the_run(self, tmp_path,
                                                        monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("a learning run started")

        monkeypatch.setattr(harness, "run", unreachable)
        # 500 x 1 x 500 joints x 3 players is past the 500,000 cap
        code = cli.main(["ne-check", "--seed", "1", "--out", str(tmp_path),
                         "--set", "action_set_size=500"])
        assert code == 2
        assert "error: instance too large" in capsys.readouterr().err
        assert not (tmp_path / "ne_report.txt").exists()


def test_console_entry_point_importable():
    assert callable(cli.main)
