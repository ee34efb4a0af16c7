"""End-to-end checks of the command line entry points."""

import csv
import json
import math

import numpy as np
import pytest

from lteusim import cli, game, harness, wifi
from lteusim.harness import run, sweep
from lteusim.rates import LinkCapacitySet, compute_user_rates
from lteusim.scenario import desk_config


SMALL_CONFIG = dict(n_sbs=1, n_users=3, wifi_users_per_wap=0,
                    action_set_size=4, reservoir_units=16, max_iterations=60,
                    convergence_window=20)
SMALL = [arg for key, value in SMALL_CONFIG.items()
         for arg in ("--set", f"{key}={value}")]


def small_config(**overrides):
    return desk_config(**{**SMALL_CONFIG, **overrides})


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
            desk_config(n_sbs=1, n_users=2, wifi_users_per_wap=0,
                        action_set_size=4, reservoir_units=16,
                        max_iterations=40,
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

    # f_u_hz names a fixed radio constant, which no config sets;
    # reservoir_density a field of the random reservoirs the cycle replaced;
    # the last seven fixed game and learning constants
    @pytest.mark.parametrize("pair", ["warp_drive=1", "f_u_hz=2e7",
                                      "reservoir_density=0.1", "z_levels=2",
                                      "eta=0.5", "epsilon=0.5",
                                      "lambda_alpha=0.1", "lambda_beta=0.1",
                                      "lambda_q=0.1", "convergence_tol=0.01",
                                      "n_waps=2"])
    def test_unknown_config_key_fails(self, tmp_path, capsys, pair):
        out = tmp_path / "out"
        code = cli.main(["run", "--out", str(out), "--set", pair])
        assert code == 2
        key = pair.split("=")[0]
        assert f"error: unknown config key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_echo_naming_a_removed_key_fails(self, tmp_path, capsys):
        # an echo written before the key left the config
        echo = tmp_path / "config_echo.txt"
        desk_config().echo(echo)
        echo.write_text(echo.read_text() + "reservoir_density = 0.1\n")
        out = tmp_path / "out"
        code = cli.main(["run", "--config", str(echo), "--out", str(out)])
        assert code == 2
        assert ("error: unknown config key 'reservoir_density'"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("pair", ["wifi_rate_req_bps=nan",
                                      "sbs_coverage_m=nan"])
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
        ('{"sbs_coverage_m": [0.5]}', "sbs_coverage_m"),
        ('{"n_sbs": true}', "n_sbs"),
    ])
    def test_malformed_json_value_fails(self, tmp_path, capsys, text, key):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(text)
        code = cli.main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be a number, got ")

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


class TestCsvOutput:
    def test_trace_layout_and_values(self, tmp_path):
        cfg = small_config(max_iterations=12, convergence_window=13)
        result = run(cfg, "esn", seed=6)
        path = tmp_path / "trace.csv"
        cli.write_trace_csv(result, path)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["round", "bs", "action", "e_alpha", "r_hat_alpha",
                           "e_beta", "r_hat_beta", "utility"]
        assert len(rows) == 1 + 12 * cfg.n_bs
        first = rows[1]
        assert first[0] == "1" and first[1] == "0"
        assert float(first[7]) == pytest.approx(
            result.records[0].utilities[0], rel=1e-8)

    def test_trace_for_q_runs_uses_nan_beta_columns(self, tmp_path):
        cfg = small_config(max_iterations=5, convergence_window=6)
        result = run(cfg, "q_lteu_decoupled", seed=6)
        path = tmp_path / "trace.csv"
        cli.write_trace_csv(result, path)
        rows = list(csv.reader(path.open()))
        assert math.isnan(float(rows[1][5]))
        assert math.isnan(float(rows[1][6]))

    def test_cdf_csv(self, tmp_path):
        path = tmp_path / "cdf.csv"
        cli.write_cdf_csv([5.0, 1.0, 3.0, 2.0], path)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["rate_bps", "cdf"]
        values = [float(r[0]) for r in rows[1:]]
        steps = [float(r[1]) for r in rows[1:]]
        assert values == [1.0, 2.0, 3.0, 5.0]
        assert steps == [0.25, 0.5, 0.75, 1.0]

    def test_rates_csv_export(self, tmp_path):
        # BS 1 serves user 0's downlink; user 1 is not served at all
        ramp = 1e7 * np.array([[1.0, 2.0], [3.0, 4.0]])
        caps = LinkCapacitySet(c_l_dl=ramp, c_l_ul=2.0 * ramp,
                               c_u_dl=np.zeros((2, 2)),
                               c_u_ul=np.zeros((2, 2)))
        block = np.zeros((4, 2, 2))
        block[0, 1, 0] = 1.0
        rates = compute_user_rates(block, caps)
        out = tmp_path / "rates.csv"
        cli.write_rates_csv(rates, out)
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["user", "dl_bps", "ul_bps", "serving_dl",
                           "serving_ul"]
        assert len(rows) == 3
        assert rows[1][0] == "0"
        assert float(rows[1][1]) == pytest.approx(caps.c_l_dl[0, 1], rel=1e-8)
        assert rows[1][1] == format(rates.dl_bps[0], ".9g")
        assert rows[2][3] == "-1" and rows[2][4] == "-1"

    def test_sweep_csv_round_trip(self, tmp_path):
        cfg = small_config(wifi_users_per_wap=4, max_iterations=3,
                           convergence_window=4)
        cells = sweep(cfg, "r_w", [1e6, 2e6], ["esn"], n_runs=1)
        path = tmp_path / "sweep.csv"
        cli.write_sweep_csv(cells, path)
        rows = list(csv.reader(path.open()))
        assert len(rows) == 1 + len(cells)
        assert rows[0][0] == "axis"
        assert rows[1][0] == "r_w"
        assert float(rows[1][1]) == 1e6
        # no run converges in 3 rounds: the mean is None, written as nan
        assert cells[0].result.mean_converged_at is None
        assert rows[0][-1] == "mean_converged_at" and rows[1][-1] == "nan"

    def test_sweep_columns_are_the_cells_results(self, tmp_path):
        # 3e7 bps per station overloads a 4-station WAP; 3 rounds converge
        # no run, so both cells carry a bool and a None
        cfg = small_config(wifi_users_per_wap=4, max_iterations=3,
                           convergence_window=4)
        cells = sweep(cfg, "r_w", [1e6, 3e7], ["esn"], n_runs=2)
        path = tmp_path / "sweep.csv"
        cli.write_sweep_csv(cells, path)
        rows = list(csv.reader(path.open()))
        assert len(rows) == 1 + len(cells)
        for cell, row in zip(cells, rows[1:]):
            r = cell.result
            want = {
                "axis": cell.axis, "value": cell.value,
                "algorithm": r.algorithm, "n_runs": r.n_runs,
                "lte_fraction": r.lte_fraction,
                "wifi_overloaded": r.wifi_overloaded,
                "sum_rate_mean": r.sum_rate_mean,
                "sum_rate_ci_lo": r.sum_rate_ci[0],
                "sum_rate_ci_hi": r.sum_rate_ci[1],
                "median_rate_mean": r.median_rate_mean,
                "median_rate_ci_lo": r.median_rate_ci[0],
                "median_rate_ci_hi": r.median_rate_ci[1],
                "converged_fraction": r.converged_fraction,
                "mean_converged_at": r.mean_converged_at,
            }
            assert rows[0] == list(want)
            assert row == [cli._fmt(value) for value in want.values()]
        assert [c.result.wifi_overloaded for c in cells] == [False, True]
        assert [row[5] for row in rows[1:]] == ["False", "True"]
        assert [c.result.mean_converged_at for c in cells] == [None, None]
        assert [row[13] for row in rows[1:]] == ["nan", "nan"]

    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "cdf.csv"
        cli.write_cdf_csv([123456789.123456], path)
        rows = list(csv.reader(path.open()))
        assert rows[1][0] == "123456789"


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

    def test_tiny_wifi_demand_writes_its_table(self, tmp_path):
        # r_w = 10 bps leaves WiFi a hair under its demand after rounding,
        # within the one-ulp guarantee
        code = cli.main(["sweep", "--axis", "r_w", "--values", "10,4e6",
                         "--algorithms", "q_lteu_decoupled", "--runs", "1",
                         "--set", "max_iterations=5",
                         "--set", "wifi_users_per_wap=2",
                         "--out", str(tmp_path)])
        assert code == 0
        rows = list(csv.DictReader((tmp_path / "sweep.csv").open()))
        assert [row["value"] for row in rows] == ["10", "4000000"]

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

    def test_rejected_sweep_leaves_no_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["sweep", "--axis", "n_users", "--values", "12.5",
                         "--runs", "1", "--out", str(out), *SMALL])
        assert code == 2
        assert "takes whole numbers" in capsys.readouterr().err
        assert not out.exists()


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
        want = wifi.lte_fraction(2, 2e6,
                                 wifi.saturation_throughput(2)).lte_share
        assert float(rows[1][4]) == pytest.approx(want, rel=1e-8)

    def test_default_rate_comes_from_config(self, tmp_path):
        code = cli.main(["coexistence", "--wifi-users", "4",
                         "--out", str(tmp_path)])
        assert code == 0
        rows = list(csv.reader((tmp_path / "coexistence.csv").open()))
        assert len(rows) == 2
        assert float(rows[1][1]) == desk_config().wifi_rate_req_bps

    def test_fixed_point_is_solved_once_per_station_count(self, tmp_path,
                                                           monkeypatch):
        solved = []
        solve = wifi.tx_probability

        def counted(n_wifi):
            solved.append(n_wifi)
            return solve(n_wifi)

        monkeypatch.setattr(wifi, "tx_probability", counted)
        code = cli.main(["coexistence", "--wifi-users", "1,2,3,4,8,20",
                         "--rates", "0,1e6,4e6,1.2e7,3e7",
                         "--out", str(tmp_path)])
        assert code == 0
        assert solved == [1, 2, 3, 4, 8, 20]
        rows = list(csv.reader((tmp_path / "coexistence.csv").open()))
        assert len(rows) == 1 + 6 * 5

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

    def test_empty_rates_flag_means_the_config_demand(self, tmp_path):
        code = cli.main(["coexistence", "--wifi-users", "4", "--rates", "",
                         "--out", str(tmp_path)])
        assert code == 0
        rows = list(csv.reader((tmp_path / "coexistence.csv").open()))
        assert [float(row[1]) for row in rows[1:]] == [
            desk_config().wifi_rate_req_bps]

    @pytest.mark.parametrize("rates", ["nan", "inf", "1e6,nan"])
    def test_non_finite_rate_writes_no_file(self, tmp_path, capsys, rates):
        # NaN would read as no demand and inf as an overload; both are
        # refused like a negative demand
        out = tmp_path / "out"
        code = cli.main(["coexistence", "--rates", rates, "--out", str(out)])
        assert code == 2
        assert ("the WiFi rate requirement must be nonnegative and finite"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--wifi-users", ","], "--wifi-users must not be empty"),
        (["--wifi-users", ""], "--wifi-users must not be empty"),
        (["--rates", ","], "--rates must not be empty"),
        (["--wifi-users", "2,2"],
         "--wifi-users must not repeat an entry, got 2 twice"),
        (["--rates", "1e6,1000000"],
         "--rates must not repeat an entry, got 1000000.0 twice"),
    ])
    def test_empty_or_repeated_list_writes_no_file(self, tmp_path, capsys,
                                                   argv, message):
        out = tmp_path / "out"
        code = cli.main(["coexistence", *argv, "--out", str(out)])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--rates", "1e6,-1",
         "the WiFi rate requirement must be nonnegative"),
        ("--wifi-users", "2,0", "n_wifi must be at least 1"),
    ])
    def test_bad_later_entry_writes_no_file(self, tmp_path, capsys, flag,
                                            value, message):
        # the first entry's rows are valid; the bad one must still leave
        # no output directory, so neither the echo nor a partial table
        out = tmp_path / "out"
        code = cli.main(["coexistence", flag, value, "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


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
        out = tmp_path / "out"
        code = cli.main(["ne-check", "--seed", "1", "--out", str(out),
                         "--set", "action_set_size=500"])
        assert code == 2
        assert "error: instance too large" in capsys.readouterr().err
        assert not out.exists()


def _files(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


class TestSeedRule:
    """``--seed`` sets the config's ``rng_seed``, so the echo holds the
    seed every command used."""

    @pytest.mark.parametrize("argv", [
        ["run", "--algorithm", "q_lteu_decoupled", *SMALL],
        ["sweep", "--axis", "n_users", "--values", "2,3",
         "--algorithms", "esn,q_lteu_decoupled", "--runs", "2", *SMALL],
        ["ne-check", "--set", "max_iterations=60"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("seed", [1, 3])
    def test_command_reproduces_from_its_echo(self, tmp_path, argv, seed):
        first, again = tmp_path / "first", tmp_path / "again"
        code = cli.main([*argv, "--seed", str(seed), "--out", str(first)])
        assert code in (0, 1)  # ne-check's 1 is a "not an equilibrium"
        echo = first / "config_echo.txt"
        assert f"rng_seed = {seed}\n" in echo.read_text()
        assert cli.main([*argv, "--config", str(echo),
                         "--out", str(again)]) == code
        assert _files(again) == _files(first)

    def test_seed_flag_wins_over_set(self, tmp_path):
        code = cli.main(["run", "--out", str(tmp_path), *SMALL,
                         "--set", "rng_seed=3", "--seed", "4"])
        assert code == 0
        assert "rng_seed = 4\n" in (tmp_path / "config_echo.txt").read_text()
        assert "seed = 4\n" in (tmp_path / "summary.txt").read_text()

    def test_seed_past_float_precision_is_exact(self, tmp_path):
        seed = 2**53 + 1  # float(seed) rounds to 2**53
        code = cli.main(["run", "--out", str(tmp_path), *SMALL,
                         "--set", "max_iterations=2", "--seed", str(seed)])
        assert code == 0
        echo = (tmp_path / "config_echo.txt").read_text()
        assert f"rng_seed = {seed}\n" in echo
        assert f"seed = {seed}\n" in (tmp_path / "summary.txt").read_text()


@pytest.mark.parametrize("argv", [
    ["run"],
    ["sweep", "--axis", "n_users", "--values", "4", "--runs", "1"],
    ["ne-check"],
    ["coexistence"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("nested", [False, True], ids=["file", "under_file"])
def test_out_blocked_by_a_file_fails_before_any_work(tmp_path, monkeypatch,
                                                     capsys, argv, nested):
    def unreachable(*args, **kwargs):
        raise AssertionError("computation started")

    for module, name in ((harness, "run"), (harness, "sweep"),
                         (harness, "prepare_run"),
                         (wifi, "tx_probability")):
        monkeypatch.setattr(module, name, unreachable)
    blocker = tmp_path / "afile"
    blocker.write_bytes(b"keep me\n")
    out = blocker / "sub" if nested else blocker
    code = cli.main([*argv, "--out", str(out)])
    assert code == 2
    assert (f"error: --out {out} is blocked by an existing file"
            in capsys.readouterr().err)
    assert blocker.read_bytes() == b"keep me\n"
    assert sorted(tmp_path.iterdir()) == [blocker]


def test_console_entry_point_importable():
    assert callable(cli.main)
