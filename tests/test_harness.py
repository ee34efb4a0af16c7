"""Round-loop, replication, and sweep behavior."""

import numpy as np
import pytest

import lteusim
from lteusim import agents, cli, game, harness, wifi
from lteusim.harness import (MonteCarloResult, RunResult, monte_carlo,
                             prepare_run, run, sweep)
from lteusim.scenario import ALGORITHMS, desk_config
from oracles import converged_at_oracle


def toy_config(**overrides):
    """One MBS, one user, two actions (idle / full band), no WiFi."""
    base = dict(n_sbs=0, n_users=1, wifi_users_per_wap=0, action_set_size=2,
                reservoir_units=20, max_iterations=400,
                convergence_window=30)
    base.update(overrides)
    return desk_config(**base)


def small_config(**overrides):
    base = dict(n_sbs=1, n_users=3, wifi_users_per_wap=0, action_set_size=4,
                reservoir_units=16, max_iterations=150,
                convergence_window=25)
    base.update(overrides)
    return desk_config(**base)


class TestRun:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_two_action_toy_converges_to_the_better_action(self, algorithm):
        result = run(toy_config(), algorithm, seed=3)
        assert result.converged_at is not None
        assert result.converged_at <= result.config.max_iterations
        # the sampled two-action space is {all zero, whole band}; the
        # greedy choice must settle on the whole-band action
        assert result.records[-1].greedy_action == (1,)
        assert result.final_rates.dl_bps[0] > 0
        assert result.final_rates.ul_bps[0] > 0

    def test_zero_iterations_gives_empty_run(self):
        result = run(toy_config(max_iterations=0), "esn", seed=0)
        assert result.records == ()
        assert result.converged_at is None
        assert result.metrics["sum_rate_bps"] == 0.0
        assert np.all(result.final_rates.serving_dl == -1)

    @pytest.mark.parametrize("n_wifi, r_w", [(1, 1), (2, 10), (100, 10)])
    def test_tiny_wifi_demand_runs(self, n_wifi, r_w):
        # N_w r_w far below the WAP's throughput: computing L = 1 - N_w r_w
        # / R cancels the demand's digits, short of it by under one ulp
        cfg = desk_config(wifi_users_per_wap=n_wifi, wifi_rate_req_bps=r_w,
                          max_iterations=0)
        result = run(cfg, "q_lteu_decoupled", 0)
        assert 0.99 < result.lte_fraction < 1.0
        assert not result.wifi_overloaded

    def test_wifi_fixed_point_is_solved_once(self, monkeypatch):
        solved = []
        solve = wifi.tx_probability

        def counted(n_wifi):
            solved.append(n_wifi)
            return solve(n_wifi)

        monkeypatch.setattr(wifi, "tx_probability", counted)
        run(desk_config(max_iterations=0), "q_lteu_decoupled", 0)
        assert solved == [4]

    def test_deterministic_in_config_seed_algorithm(self):
        for cfg in (small_config(), small_config(reservoir_units=60)):
            a = run(cfg, "esn", seed=11)
            b = run(cfg, "esn", seed=11)
            assert a.converged_at == b.converged_at
            assert len(a.records) == len(b.records)
            for ra, rb in zip(a.records, b.records):
                assert ra.joint_action == rb.joint_action
                assert ra.utilities == rb.utilities
                assert ra.greedy_action == rb.greedy_action
            assert a.metrics["sum_rate_bps"] == b.metrics["sum_rate_bps"]
            assert np.array_equal(a.final_rates.dl_bps, b.final_rates.dl_bps)

    def test_different_seeds_differ(self):
        a = run(small_config(), "esn", seed=1)
        b = run(small_config(), "esn", seed=2)
        assert (a.metrics["sum_rate_bps"] != b.metrics["sum_rate_bps"]
                or [r.joint_action for r in a.records]
                != [r.joint_action for r in b.records])

    def test_converged_at_respects_window(self):
        result = run(toy_config(), "esn", seed=5)
        assert result.converged_at >= result.config.convergence_window

    def test_record_shapes(self):
        cfg = small_config(max_iterations=40, convergence_window=41)
        result = run(cfg, "esn", seed=2)
        assert result.converged_at is None
        assert len(result.records) == 40
        for record in result.records:
            assert len(record.joint_action) == cfg.n_bs
            assert len(record.utilities) == cfg.n_bs
            assert len(record.greedy_action) == cfg.n_bs
            assert len(record.association) == cfg.n_users
            assert record.total_reward == pytest.approx(sum(record.utilities))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_records_off_matches_records_kept_bitwise(self, algorithm):
        cfg = desk_config(max_iterations=400)
        kept = run(cfg, algorithm, 0)
        dropped = run(cfg, algorithm, 0, keep_records=False)
        assert dropped.records == () and kept.records
        assert dropped.converged_at == kept.converged_at
        assert dropped.metrics == kept.metrics
        for part in ("dl_bps", "ul_bps", "serving_dl", "serving_ul"):
            assert np.array_equal(getattr(dropped.final_rates, part),
                                  getattr(kept.final_rates, part))
        assert dropped.decoupled_users == kept.decoupled_users

    @pytest.mark.parametrize("keep_records, per_round", [(False, 1),
                                                         (True, 2)])
    def test_played_rates_are_built_only_for_records(self, monkeypatch,
                                                     keep_records, per_round):
        built, original = [], harness.compute_user_rates

        def counted(settled, caps):
            built.append(settled)
            return original(settled, caps)

        monkeypatch.setattr(harness, "compute_user_rates", counted)
        # a window longer than the run keeps it from converging early
        cfg = desk_config(max_iterations=6, convergence_window=10)
        run(cfg, "q_lteu_decoupled", 0, keep_records=keep_records)
        assert len(built) == per_round * cfg.max_iterations

    @pytest.mark.parametrize("keep_records", [False, True])
    def test_played_grants_are_checked_every_round(self, monkeypatch,
                                                   keep_records):
        settled_joints = []

        def double_granting(spaces, joint, caps, coupled=False):
            settled = game.resolve_conflicts(spaces, joint, caps,
                                             coupled=coupled)
            settled_joints.append(joint)
            # a round settles its played joint first, then the greedy one
            if len(settled_joints) % 2:
                settled = settled.copy()
                settled[0, :, 0] = 0.25  # every BS grants user 0 its DL
            return settled

        monkeypatch.setattr(harness, "resolve_conflicts", double_granting)
        with pytest.raises(ValueError, match="^user 0 is granted a DL "
                                             "allocation by more than one "
                                             "BS$"):
            run(desk_config(max_iterations=5), "q_lteu_decoupled", 0,
                keep_records=keep_records)
        # raised on the played joint, before the audit and the greedy joint
        assert len(settled_joints) == 1

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_no_agent_learns_from_a_refused_reward(self, monkeypatch,
                                                  algorithm):
        def learned(agent):
            """Copies of everything ``finish_round`` updates."""
            if isinstance(agent, agents.QAgent):
                return [agent.q_table.copy()]
            return [agent.ro_alpha.w_out.copy(), agent.ro_beta.w_out.copy(),
                    agent.res_alpha.state.copy(),
                    agent.res_beta.state.copy(), agent.x_beta.copy(),
                    np.array(agent.opponent_bests)]

        teams, make = [], harness.make_agents

        def captured(*args):
            team = make(*args)
            teams.append((team, [learned(agent) for agent in team]))
            return team

        def disagreeing(settled, caps):
            return game.resolved_utilities(settled, caps) + 1.0

        monkeypatch.setattr(harness, "make_agents", captured)
        monkeypatch.setattr(harness, "resolved_utilities", disagreeing)
        with pytest.raises(RuntimeError, match="^reward audit failed"):
            run(desk_config(max_iterations=5), algorithm, 0)
        [(team, before)] = teams
        for agent, initial in zip(team, before):
            for now, then in zip(learned(agent), initial):
                assert np.array_equal(now, then)

    def test_round_utilities_recompute_to_1e9(self):
        cfg = small_config(max_iterations=30, convergence_window=31)
        result = run(cfg, "esn", seed=4)
        inputs = prepare_run(cfg, "esn", 4)
        for record in result.records:
            again = game.resolved_utilities(
                game.resolve_conflicts(inputs.spaces, record.joint_action,
                                       inputs.capacities),
                inputs.capacities)
            np.testing.assert_allclose(record.utilities, again, atol=1e-9)

    def test_wifi_overload_is_flagged_but_valid(self):
        cfg = small_config(wifi_users_per_wap=4, wifi_rate_req_bps=1e9)
        result = run(cfg, "esn", seed=0)
        assert result.wifi_overloaded
        assert result.lte_fraction == 0.0
        assert result.converged_at is not None

    def test_wifi_share_reduces_lte_fraction(self):
        result = run(small_config(wifi_users_per_wap=4), "esn", seed=0)
        assert 0.0 < result.lte_fraction < 1.0
        assert not result.wifi_overloaded

    def test_no_wifi_station_gives_lte_all_airtime(self):
        cfg = desk_config(wifi_users_per_wap=0, max_iterations=5)
        result = run(cfg, "q_lteu_decoupled", seed=0)
        assert result.lte_fraction == 1.0
        assert result.wifi_overloaded is False

    @pytest.mark.parametrize("seed", range(3))
    def test_wifi_load_does_not_move_the_world(self, seed):
        # the WiFi load sets only the unlicensed airtime share: the drop,
        # the action spaces and the licensed capacities stay
        worlds = [prepare_run(desk_config(wifi_users_per_wap=n), "esn", seed)
                  for n in (0, 1, 4)]
        first = worlds[0]
        for other in worlds[1:]:
            assert other.duty != first.duty
            assert other.agent_seed == first.agent_seed
            for a, b in zip(first.spaces, other.spaces, strict=True):
                assert a.covered_users == b.covered_users
                assert np.array_equal(a.fractions, b.fractions)
            for band in ("c_l_dl", "c_l_ul"):
                assert np.array_equal(getattr(first.capacities, band),
                                      getattr(other.capacities, band))

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run(small_config(), "sarsa", seed=0)

    def test_negative_seed_rejected_by_name(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the seed reached prepare_run")

        monkeypatch.setattr(harness, "prepare_run", unreachable)
        with pytest.raises(ValueError, match="^seed must be nonnegative, "
                                             "got -1$"):
            run(desk_config(max_iterations=2), "q_lteu_decoupled", -1)

    def test_coupled_variant_never_splits_users(self):
        cfg = desk_config(n_sbs=2, n_users=6, wifi_users_per_wap=0,
                          action_set_size=8, sbs_coverage_m=250.0,
                          max_iterations=300, convergence_window=25)
        for seed in range(3):
            result = run(cfg, "q_lteu_coupled", seed=seed)
            assert result.decoupled_users == 0
            for record in result.records:
                for dl, ul in record.association:
                    if dl >= 0 and ul >= 0:
                        assert dl == ul

    def test_single_association_every_round(self):
        cfg = small_config(max_iterations=25, convergence_window=26)
        result = run(cfg, "esn", seed=9)
        for record in result.records:
            assert np.all(record.user_rates.serving_dl < cfg.n_bs)
            assert np.all(record.user_rates.serving_ul < cfg.n_bs)

    def test_decoupling_evidence_on_reference_scenario(self):
        cfg = desk_config(n_users=16)
        result = run(cfg, "esn", seed=1, keep_records=False)
        assert result.converged_at is not None
        assert result.decoupled_users > 0


class TestConvergence:
    @pytest.mark.parametrize("overrides", [{}, {"convergence_window": 3}])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_converged_at_is_the_window_rule(self, algorithm, seed,
                                             overrides):
        # the running counts stop where the full window of records would
        config = desk_config(**overrides)
        result = run(config, algorithm, seed)
        sizes = [len(s) for s in prepare_run(config, algorithm, seed).spaces]
        assert result.converged_at == converged_at_oracle(
            result.records, sizes, config.convergence_window,
            harness.CONVERGENCE_TOL)


class TestBatchedRound:
    """One evaluator call per round: each agent's reward row, then the
    played and the greedy joint."""

    @pytest.fixture(scope="class", params=ALGORITHMS)
    def round_setup(self, request):
        algorithm = request.param
        config = desk_config()
        inputs = prepare_run(config, algorithm, 5)
        team = agents.make_agents(algorithm, inputs.spaces, config,
                                  inputs.agent_seed)
        evaluator = game.JointEvaluator(inputs.spaces, inputs.capacities,
                                        coupled=algorithm == "q_lteu_coupled")
        return algorithm, config, inputs, team, evaluator

    def random_round(self, team, spaces, rng):
        """The broadcast rows of one round, (joint_action, greedy_action):
        played actions drawn uniformly by the agents, advertised bests at
        random."""
        joint_action, greedy_action = [], []
        for agent in team:
            agent.epsilon = 1.0  # the played action is a uniform draw
            joint_action.append(agents.select_and_broadcast(agent)[0])
            greedy_action.append(int(rng.integers(len(spaces[agent.bs]))))
        return tuple(joint_action), tuple(greedy_action)

    def test_rewards_match_resolved_utilities(self, round_setup):
        algorithm, config, inputs, team, evaluator = round_setup
        spaces, n_bs = inputs.spaces, config.n_bs
        coupled = algorithm == "q_lteu_coupled"
        rng = np.random.default_rng(8)
        for _ in range(12):
            joint_action, greedy_action = self.random_round(team, spaces, rng)
            rows = harness._evaluator_rows(team, joint_action, greedy_action)
            batch = evaluator.batch_utilities(rows)
            assert batch.shape == (n_bs + 2, n_bs)
            assert rows[n_bs] == joint_action
            assert rows[n_bs + 1] == greedy_action
            for n, agent in enumerate(team):
                others = (joint_action if algorithm == "esn"
                          else greedy_action)
                assert rows[n] == tuple(joint_action[n] if m == n
                                        else others[m] for m in range(n_bs))
                settled = game.resolve_conflicts(spaces, rows[n],
                                                 inputs.capacities,
                                                 coupled=coupled)
                want = game.resolved_utilities(settled, inputs.capacities)[n]
                assert batch[n, n] == pytest.approx(want, rel=1e-12,
                                                    abs=1e-12)

    def test_batched_rows_equal_rows_alone_bitwise(self, round_setup):
        _, config, inputs, team, evaluator = round_setup
        rng = np.random.default_rng(9)
        for _ in range(12):
            rows = harness._evaluator_rows(
                team, *self.random_round(team, inputs.spaces, rng))
            batch = evaluator.batch_utilities(rows)
            for row, got in zip(rows, batch):
                alone = evaluator.batch_utilities([row])[0]
                assert np.array_equal(got, alone)
                assert np.array_equal(got, evaluator.utilities(row))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_run_rewards_are_the_batched_entries(self, algorithm):
        cfg = small_config(n_sbs=2, max_iterations=25, convergence_window=26)
        result = run(cfg, algorithm, seed=6)
        inputs = prepare_run(cfg, algorithm, 6)
        evaluator = game.JointEvaluator(inputs.spaces, inputs.capacities,
                                        coupled=algorithm == "q_lteu_coupled")
        for record in result.records:
            for n, diag in enumerate(record.diagnostics):
                if algorithm == "esn":
                    # the reward row is the played row, bit for bit
                    assert diag.e_alpha == record.utilities[n]
                    continue
                row = tuple(record.joint_action[n] if m == n else best
                            for m, best in enumerate(record.greedy_action))
                assert diag.e_alpha == evaluator.utility_of(n, row)


class TestMonteCarlo:
    def test_single_run_aggregates_match_the_run(self):
        cfg = small_config()
        mc = monte_carlo(cfg, "esn", n_runs=1, base_seed=42)
        seed = int(np.random.SeedSequence(42).generate_state(1)[0])
        single = run(cfg, "esn", seed, keep_records=False)
        assert mc.sum_rate_mean == pytest.approx(
            single.metrics["sum_rate_bps"], rel=1e-12)
        assert mc.median_rate_mean == pytest.approx(
            single.metrics["median_user_rate_bps"], rel=1e-12)
        assert mc.sum_rate_ci == (mc.sum_rate_mean, mc.sum_rate_mean)
        assert mc.pooled_cdf_bps == single.metrics["rate_cdf_bps"]

    def test_same_base_seed_reproduces_aggregates(self):
        cfg = small_config()
        a = monte_carlo(cfg, "q_lteu_decoupled", n_runs=3, base_seed=7)
        b = monte_carlo(cfg, "q_lteu_decoupled", n_runs=3, base_seed=7)
        assert a == b

    def test_repeated_esn_replications_share_no_cache(self):
        # reservoir drives and profile tables live in each agent; a second
        # replication set after a Q run in the same process must not see
        # anything the first one left
        cfg = desk_config(max_iterations=150)
        first = monte_carlo(cfg, "esn", 2, 0)
        monte_carlo(cfg, "q_lteu_decoupled", 1, 0)
        assert monte_carlo(cfg, "esn", 2, 0) == first
        # no run converges in 150 rounds
        assert first.mean_converged_at is None

    def test_omitted_base_seed_is_the_config_seed(self):
        cfg = small_config()
        default = monte_carlo(cfg.with_overrides(rng_seed=5), "esn", 2)
        assert default == monte_carlo(cfg, "esn", 2, base_seed=5)
        assert default != monte_carlo(cfg, "esn", 2, base_seed=0)

    def test_ci_brackets_the_mean(self):
        mc = monte_carlo(small_config(), "esn", n_runs=4, base_seed=1)
        lo, hi = mc.sum_rate_ci
        assert lo <= mc.sum_rate_mean <= hi
        lo, hi = mc.median_rate_ci
        assert lo <= mc.median_rate_mean <= hi

    def test_pooled_cdf_is_sorted_and_complete(self):
        cfg = small_config()
        mc = monte_carlo(cfg, "esn", n_runs=3, base_seed=5)
        pooled = np.array(mc.pooled_cdf_bps)
        assert pooled.size == 3 * cfg.n_users
        assert np.all(np.diff(pooled) >= 0)

    def test_zero_runs_rejected(self):
        with pytest.raises(ValueError):
            monte_carlo(small_config(), "esn", n_runs=0)

    def test_negative_base_seed_rejected_by_name(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the seed reached prepare_run")

        monkeypatch.setattr(harness, "prepare_run", unreachable)
        with pytest.raises(ValueError, match="^base_seed must be "
                                             "nonnegative, got -1$"):
            monte_carlo(desk_config(max_iterations=2), "q_lteu_decoupled",
                        1, -1)


class TestSweep:
    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            sweep(small_config(), "bandwidth", [1, 2], ["esn"], n_runs=1)

    @pytest.mark.parametrize("values, algorithms, name", [
        ([], ["esn"], "values"),
        ([2], [], "algorithms"),
        ((v for v in ()), None, "values"),
    ])
    def test_empty_sweep_rejected_by_name(self, values, algorithms, name):
        with pytest.raises(ValueError, match=f"sweep {name} must not be empty"):
            sweep(small_config(), "n_users", values, algorithms, n_runs=1)

    @pytest.mark.parametrize("values, algorithms, name, entry", [
        ([2, 3, 2], ["esn"], "values", "2"),
        ([2, 2.0], ["esn"], "values", "2.0"),
        ([2], ["esn", "q_lteu_coupled", "esn"], "algorithms", "'esn'"),
    ])
    def test_repeated_entry_rejected_by_name(self, monkeypatch, values,
                                             algorithms, name, entry):
        def unreachable(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(harness, "monte_carlo", unreachable)
        with pytest.raises(ValueError, match=f"^sweep {name} must not repeat "
                                             f"an entry, got {entry} twice$"):
            sweep(small_config(), "n_users", values, algorithms, n_runs=1)

    def test_unknown_algorithm_rejected_before_any_cell(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(harness, "monte_carlo", unreachable)
        with pytest.raises(ValueError, match="^unknown algorithm 'dqn'$"):
            sweep(desk_config(), "n_users", [6], ["esn", "dqn"], n_runs=2)

    @pytest.mark.parametrize("axis", ["n_sbs", "n_users", "n_wifi"])
    @pytest.mark.parametrize("value", [12.5, 2.000001, float("nan"),
                                       float("inf")])
    def test_count_axis_rejects_non_integral_values(self, axis, value,
                                                     monkeypatch):
        # the config refuses it before any cell runs, so the valid 2 runs
        # nothing either
        monkeypatch.setattr(harness, "monte_carlo", self.no_cell)
        message = "must be an integer" if np.isfinite(value) \
            else "must be finite"
        with pytest.raises(ValueError, match=message):
            sweep(small_config(), axis, [2, value], ["q_lteu_decoupled"],
                  n_runs=1)

    @staticmethod
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran before the refusal")

    def test_non_finite_rate_is_refused_before_any_cell(self, monkeypatch):
        monkeypatch.setattr(harness, "monte_carlo", self.no_cell)
        with pytest.raises(ValueError, match="must be finite"):
            sweep(small_config(), "r_w", [1e6, float("nan")],
                  ["q_lteu_decoupled"], n_runs=1)

    def test_integral_float_on_a_count_axis_is_accepted(self):
        cfg = small_config(max_iterations=3, convergence_window=4)
        cells = sweep(cfg, "n_users", [3.0], ["q_lteu_decoupled"], n_runs=1)
        direct = monte_carlo(cfg.with_overrides(n_users=3),
                             "q_lteu_decoupled", n_runs=1)
        assert cells[0].value == 3.0
        assert cells[0].result.sum_rate_mean == direct.sum_rate_mean

    def test_non_integral_count_exits_2_from_the_cli(self, tmp_path, capsys):
        code = cli.main(["sweep", "--axis", "n_users", "--values", "12.5",
                         "--algorithms", "q_lteu_decoupled", "--runs", "1",
                         "--out", str(tmp_path)])
        assert code == 2
        assert "n_users must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_wifi_demand_sweep_monotone_duty_cycle(self):
        cfg = small_config(wifi_users_per_wap=4, max_iterations=4,
                           convergence_window=5)
        cells = sweep(cfg, "r_w", [1e6, 3e6, 6e6, 9e6], ["esn"], n_runs=1)
        fractions = [c.result.lte_fraction for c in cells]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))
        assert fractions[0] > fractions[-1]

    def test_wifi_load_sweep_from_no_wifi(self):
        # zero stations is the no-WiFi cell, with all of the airtime
        cfg = small_config(max_iterations=4, convergence_window=5)
        cells = sweep(cfg, "n_wifi", [0, 4], ["q_lteu_decoupled"], n_runs=1)
        assert [c.value for c in cells] == [0, 4]
        assert cells[0].result.lte_fraction == 1.0
        assert not cells[0].result.wifi_overloaded
        assert cells[1].result.lte_fraction < 1.0

    def test_wifi_load_sweep_monotone_duty_cycle(self):
        cfg = small_config(wifi_users_per_wap=4, max_iterations=4,
                           convergence_window=5)
        cells = sweep(cfg, "n_wifi", [2, 4, 8], ["esn"], n_runs=1)
        fractions = [c.result.lte_fraction for c in cells]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))

    def test_cell_matches_direct_monte_carlo(self):
        cfg = small_config()
        cells = sweep(cfg, "n_users", [4], ["q_lteu_decoupled"], n_runs=2,
                      base_seed=3)
        direct = monte_carlo(cfg.with_overrides(n_users=4),
                             "q_lteu_decoupled", n_runs=2, base_seed=3)
        assert len(cells) == 1
        cell = cells[0].result
        assert cell.sum_rate_mean == direct.sum_rate_mean
        assert cell.median_rate_mean == direct.median_rate_mean
        # the per-run values reach the cell, run by run
        assert cell.run_sum_rates == direct.run_sum_rates
        assert cell.run_median_rates == direct.run_median_rates
        assert cell.run_converged_at == direct.run_converged_at
        assert cell.run_decoupled_users == direct.run_decoupled_users
        assert len(cell.run_sum_rates) == 2

    def test_omitted_base_seed_is_the_config_seed(self):
        cfg = small_config()
        axis = ("n_users", [2, 3], ["esn", "q_lteu_decoupled"])
        default = sweep(cfg.with_overrides(rng_seed=5), *axis, n_runs=2)
        assert default == sweep(cfg, *axis, n_runs=2, base_seed=5)
        assert default != sweep(cfg, *axis, n_runs=2, base_seed=0)

    def test_cross_product_layout(self):
        cfg = small_config(max_iterations=3, convergence_window=4)
        cells = sweep(cfg, "n_users", [2, 4],
                      ["esn", "q_lteu_decoupled"], n_runs=1)
        assert [(c.value, c.result.algorithm) for c in cells] == [
            (2.0, "esn"), (2.0, "q_lteu_decoupled"),
            (4.0, "esn"), (4.0, "q_lteu_decoupled")]


def test_harness_settles_with_the_one_resolver():
    # game.resolve_conflicts is the resolver's one public path; harness
    # holds the same function for its own rounds
    assert harness.resolve_conflicts is game.resolve_conflicts
    assert "resolve_conflicts" not in harness.__all__
    assert not hasattr(lteusim, "resolve_conflicts")


def test_infeasible_action_stops_the_run_before_any_learner(monkeypatch):
    # the small cell's sampled space gets one action over its DL budget
    monkeypatch.setattr(game, "_sampled_units", lambda k, z, *rest: [
        (0,) * (4 * k), (z + 1,) + (0,) * (4 * k - 1)])

    def unreachable(*args, **kwargs):
        raise AssertionError("a learner was built")

    monkeypatch.setattr(harness, "make_agents", unreachable)
    with pytest.raises(RuntimeError, match=r"^infeasible action 1 in BS \d "
                                           r"space: sum\(d\) <= z fails"):
        run(small_config(), "esn", seed=0)


def test_run_result_is_frozen():
    result = run(toy_config(max_iterations=0), "esn", seed=0)
    assert isinstance(result, RunResult)
    with pytest.raises(AttributeError):
        result.seed = 1
