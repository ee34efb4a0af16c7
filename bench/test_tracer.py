"""Tests for the benchmark's tracer and run probe.

    python3 -m pytest bench
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lteusim import agents, game, harness  # noqa: E402
from lteusim.scenario import desk_config  # noqa: E402
from tracer import METHODS, Tracer, package_modules  # noqa: E402
from run import round_cost, setup_cost  # noqa: E402
from workloads import RunOutcome, RunProbe, learners_finite  # noqa: E402

ROUNDS = 3


def tiny(**overrides):
    # a window longer than the run keeps it from converging early
    return desk_config(max_iterations=ROUNDS, reservoir_units=20,
                       convergence_window=50, **overrides)


def bindings():
    """Every module-level and traced-method binding of the package."""
    found = {(m.__name__, attr): value for m in package_modules()
             for attr, value in vars(m).items()}
    for short, cls_name, methods in METHODS:
        cls = getattr(sys.modules[f"lteusim.{short}"], cls_name)
        found.update({(cls_name, attr): vars(cls)[attr] for attr in methods})
    return found


def traced_run(algorithm, **overrides):
    tracer = Tracer()
    with tracer.installed():
        harness.run(tiny(**overrides), algorithm, 0)
    return tracer


def self_times_from_spans(tracer):
    duration = (np.frombuffer(tracer.span_end)
                - np.frombuffer(tracer.span_start))
    parent = np.frombuffer(tracer.span_parent, dtype=np.int32)
    children = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(children, parent[has_parent], duration[has_parent])
    own = duration - children
    names = np.frombuffer(tracer.span_name, dtype=np.int32)
    return {name: float(own[names == i].sum())
            for i, name in enumerate(tracer.names)}


class TestSelfTime:
    def test_fake_clock_nesting(self):
        ticks = itertools.count()
        tracer = Tracer(clock=lambda: float(next(ticks)))
        inner = tracer.wrap("m.inner", lambda: None)

        def body():
            inner()
            inner()

        tracer.wrap("m.outer", body)()
        # outer spans ticks 0..5 and its two children cover 1..2 and 3..4
        totals = tracer.layer_totals()
        assert totals["m.outer"] == {"self_s": 3.0, "calls": 1}
        assert totals["m.inner"] == {"self_s": 2.0, "calls": 2}
        assert list(tracer.span_parent) == [-1, 0, 0]

    def test_accumulated_self_time_matches_spans(self):
        tracer = traced_run("esn")
        recomputed = self_times_from_spans(tracer)
        for name, total in tracer.layer_totals().items():
            assert total["self_s"] == pytest.approx(recomputed[name],
                                                    abs=1e-9)

    def test_spans_share_their_run(self):
        tracer = traced_run("q_lteu_decoupled")
        names = [tracer.names[i] for i in tracer.span_name]
        root = names.index("harness.run")
        inside = [r for r, p in zip(tracer.span_request, tracer.span_parent)
                  if p >= 0]
        assert inside and set(inside) == {root}


class TestCounts:
    @pytest.mark.parametrize("algorithm", ["esn", "q_lteu_decoupled"])
    def test_per_round_counts_match_hand_count(self, algorithm):
        tracer = traced_run(algorithm)
        calls = {n: t["calls"] for n, t in tracer.layer_totals().items()}
        n_bs = tiny().n_bs
        # per round: one evaluator row per agent's own reward plus the
        # played and the greedy joint in the harness; both joints are also
        # resolved and turned into rates, and the played one re-audited
        assert tracer.counts["game.batch_utilities.rows"] == \
            ROUNDS * (n_bs + 2)
        assert calls["game.resolve_conflicts"] == ROUNDS * 2
        assert calls["rates.compute_user_rates"] == ROUNDS * 2
        assert calls["game.resolved_utilities"] == ROUNDS * 1
        expected_beta = ROUNDS * n_bs if algorithm == "esn" else 0
        # best reply, the alpha prediction, and the beta state commit
        expected_peeks = 3 * expected_beta
        assert calls.get("agents.beta_expectation", 0) == expected_beta
        assert calls.get("esn.peek_state", 0) == expected_peeks

    def test_exact_branch_is_counted(self):
        sampled = traced_run("esn")
        assert sampled.counts["agents.beta_expectation.exact"] == 0
        # two actions per small cell keeps the opponent space in budget
        exact = traced_run("esn", action_set_size=2)
        calls = exact.layer_totals()["agents.beta_expectation"]["calls"]
        assert exact.counts["agents.beta_expectation.exact"] == calls > 0


class TestRestore:
    def test_every_name_restored(self):
        before = bindings()
        tracer = Tracer()
        with tracer.installed(), RunProbe(harness).installed():
            assert harness.run is not before[("lteusim.harness", "run")]
            assert (game.JointEvaluator.batch_utilities
                    is not before[("JointEvaluator", "batch_utilities")])
        after = bindings()
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)

    def test_restored_after_an_error(self):
        before = bindings()
        with pytest.raises(ValueError):
            with Tracer().installed():
                harness.run(tiny(), "no_such_algorithm", 0)
        after = bindings()
        assert all(after[k] is before[k] for k in before)

    def test_no_spans_after_uninstall(self):
        tracer = traced_run("q_lte_decoupled")
        count = len(tracer.span_name)
        harness.run(tiny(), "q_lte_decoupled", 0)
        assert len(tracer.span_name) == count


class TestProbe:
    def test_run_outcome(self):
        probe = RunProbe(harness)
        with probe.installed():
            harness.monte_carlo(tiny(), "esn", 2, 0)
        outcomes = probe.take()
        assert len(outcomes) == 2 and probe.outcomes == []
        for outcome in outcomes:
            assert outcome.rounds == ROUNDS and outcome.converged_at is None
            assert outcome.ok and outcome.healthy
            assert 0 < outcome.setup_s < outcome.wall_s
            # one start per round, all after set-up, so ROUNDS - 1 times
            assert len(outcome.round_starts) == ROUNDS
            assert len(outcome.round_ms()) == ROUNDS - 1
            assert all(ms > 0 for ms in outcome.round_ms())

    def test_non_finite_learners_are_caught(self):
        config = tiny()
        inputs = harness.prepare_run(config, "esn", 0)
        for algorithm, field in (("esn", "ro_beta"), ("q_lteu_coupled", None)):
            team = agents.make_agents(algorithm, inputs.spaces, config, 0)
            assert learners_finite(team)
            table = (team[1].q_table if field is None
                     else getattr(team[1], field).w_out)
            table.flat[0] = np.nan
            assert not learners_finite(team)

    def test_round_cost_counts_every_algorithm(self):
        def outcome(algorithm, ms, setup_s=1.0):
            return RunOutcome(algorithm, 0, setup_s=setup_s, rounds=100,
                              wall_s=1.0 + ms / 10, rates_valid=True)

        # without round starts, the fastest run of each scenario, then
        # the mean over algorithms; a run that never reached its first
        # round has no per-round cost
        runs = ([outcome("a", ms) for ms in (1.0, 1.5, 2.0)]
                + [outcome("b", ms) for ms in (3.0, 4.0)]
                + [outcome("b", 0.1, setup_s=None)])
        assert round_cost([{"runs": runs}]) == pytest.approx(2.0)
        assert round_cost([{"runs": runs[-1:]}]) is None

    def test_round_cost_uses_round_times(self):
        def outcome(seed, ms):
            # 100 rounds of ``ms`` each, and one round in a busy moment
            starts = list(np.cumsum([0.0] + [ms / 1e3] * 98 + [1.0]))
            return RunOutcome("a", seed, setup_s=0.0, rounds=100,
                              wall_s=1.0, rates_valid=True,
                              round_starts=starts)

        # the fastest hundredth per scenario, then the mean over scenarios
        runs = [outcome(0, 2.0), outcome(1, 4.0), outcome(1, 5.0)]
        assert round_cost([{"runs": runs}]) == pytest.approx(3.0)
        # a run whose rounds were not all seen falls back to its figure
        runs[0].round_starts.pop()
        assert round_cost([{"runs": runs}]) == pytest.approx(
            (10.0 + 4.0) / 2)

    def test_setup_cost_counts_every_algorithm(self):
        # the fastest twentieth of each algorithm's set-ups, from its runs
        # and from the chunks between calls, then the mean over algorithms
        runs = [RunOutcome("a", 0, setup_s=0.5), RunOutcome("b", 0),
                RunOutcome("b", 0, setup_s=3.0)]
        chunk = [("a", 0.1 * i) for i in range(1, 20)] + [("b", 4.0)]
        calls = [{"runs": runs, "setups": chunk}]
        assert setup_cost(calls) == pytest.approx((0.2 + 3.0) / 2)
