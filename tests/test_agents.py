"""Agent-level tests: selection law, opponent models, learning targets for
both reservoir networks, the Q baselines, and the per-algorithm gating."""

import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from lteusim import agents, esn, game, harness
from lteusim.agents import (BEST_SWITCH_MARGIN, EsnAgent, QAgent,
                            _alpha_predictions, _best_reply, _encode_space,
                            _guide_row, _invert, _ProfileTables, _stack_rows,
                            algorithm_capacities, algorithm_spaces,
                            beta_expectation, finish_round, make_agents,
                            observe_outcome, reward_joint,
                            select_and_broadcast)
from lteusim.game import (DEFAULT_ETA, JointEvaluator, MixedStrategy,
                          _epsilon_greedy)
from lteusim.rates import LinkCapacitySet
from lteusim.scenario import desk_config
from oracles import action_at, actions_of, make_action, space_of


# helpers -------------------------------------------------------------------


def flat_caps(n_users, n_bs, c=2.0, cu=2.0):
    licensed = np.full((n_users, n_bs), float(c))
    unlicensed = np.full((n_users, n_bs), float(cu))
    unlicensed[:, 0] = 0.0
    return LinkCapacitySet(c_l_dl=licensed.copy(), c_l_ul=licensed.copy(),
                           c_u_dl=unlicensed.copy(), c_u_ul=unlicensed.copy(),
                           lte_fraction=1.0)


def macro_space(n_users, fraction_rows):
    """Macro-cell space over every user from (d, v, kappa, tau)
    per-user tuples; kappa and tau are None."""
    return space_of([make_action(0, tuple(range(n_users)), n_users, d, v,
                                 kappa, tau)
                     for d, v, kappa, tau in fraction_rows])


def single_user_space(owner, rows, users=(0,), n_users=1):
    return space_of([make_action(owner=owner, users=users, n_users=n_users,
                                 d=d, v=v, kappa=kappa, tau=tau)
                     for d, v, kappa, tau in rows])


def tiny_config(**overrides):
    overrides.setdefault("reservoir_units", 12)
    return desk_config(**overrides)


def play_round(agent, others, caps):
    """One round of a single agent whose opponents' broadcasts are already
    known, as ``harness.run`` plays it: select and broadcast, stack the
    (played, advertised) pairs into the round's two rows, score the reward
    joint with the evaluator, learn. ``others`` maps each opponent to its
    pair. Returns the agent's own pair and the step diagnostics."""
    own = select_and_broadcast(agent)
    pairs = {**others, agent.bs: own}
    played, advertised = zip(*(pairs[m] for m in range(len(agent.spaces))))
    evaluator = JointEvaluator(agent.spaces, caps, eta=DEFAULT_ETA)
    row = reward_joint(agent, played, advertised)
    reward = evaluator.batch_utilities([row])[0, agent.bs]
    return own, finish_round(agent, played, advertised, reward)


def macro_two_action_space():
    return single_user_space(0, [
        ((0.0,), (0.0,), None, None),
        ((1.0,), (1.0,), None, None),
    ])


def sbs_idle_busy_space(owner=1):
    return single_user_space(owner, [
        ((0.0,), (0.0,), (0.0,), (0.0,)),
        ((1.0,), (1.0,), (0.0,), (0.0,)),
    ])


# selection -----------------------------------------------------------------


class TestSelection:
    def make_agent(self, scores, epsilon):
        rows = [((0.0,), (0.0,), (0.0,), (0.0,)),
                ((0.1,), (0.0,), (0.0,), (0.0,)),
                ((0.2,), (0.0,), (0.0,), (0.0,)),
                ((0.3,), (0.0,), (0.0,), (0.0,))][:len(scores)]
        space = single_user_space(0, [(d, v, None, None) for d, v, _, _ in rows])
        agent = EsnAgent(0, [space], tiny_config(), seed=5)
        agent.epsilon = epsilon
        agent.ro_beta.w_out[:] = 0.0
        # state is zero until the first round, so scores come from the input
        # columns alone; x_beta is the all-ones request state
        for i, s in enumerate(scores):
            agent.ro_beta.w_out[i, agent.res_beta.n_units:] = \
                s / agent.x_beta.sum()
        return agent

    def test_greedy_when_epsilon_zero(self):
        agent = self.make_agent([1.0, 5.0, 2.0], epsilon=0.0)
        assert all(select_and_broadcast(agent)[0] == 1 for _ in range(10))

    def test_tie_breaks_to_lowest_index(self):
        agent = self.make_agent([3.0, 3.0, 3.0], epsilon=0.0)
        assert select_and_broadcast(agent)[0] == 0

    def test_broadcast_current_action_follows_beta(self):
        agent = self.make_agent([1.0, 5.0, 2.0], epsilon=0.0)
        # the advertised best comes from the alpha readout; pin it to 2
        agent.ro_alpha.w_out[:] = 0.0
        agent.ro_alpha.w_out[:, -1] = [0.0, 0.0, 7.0]
        assert select_and_broadcast(agent) == (1, 2)
        assert agent._pending[0] == 1  # the action finish_round trains

    def test_epsilon_greedy_law_chi_square(self):
        # argmax at index 2: P = 1 - 0.7 + 0.7/4 = 0.475, others 0.175 each
        agent = self.make_agent([0.0, 0.0, 4.0, 0.0], epsilon=0.7)
        n = 100_000
        draws = np.array([select_and_broadcast(agent)[0] for _ in range(n)])
        counts = np.bincount(draws, minlength=4)
        law = np.array([0.175, 0.175, 0.475, 0.175])
        result = scipy.stats.chisquare(counts, n * law)
        assert result.pvalue > 0.001
        sigma = math.sqrt(0.475 * 0.525 / n)
        assert abs(counts[2] / n - 0.475) < 3 * sigma


# advertised best reply -----------------------------------------------------


class TestBestReply:
    """The reservoir agent advertises alpha's reply to the opponents' last
    announced bests, debounced so near-ties do not flap the broadcast."""

    def reply_agent(self):
        own = macro_two_action_space()
        opp = sbs_idle_busy_space(owner=1)
        agent = EsnAgent(0, [own, opp], tiny_config(), seed=3)
        agent.ro_alpha.w_out[:] = 0.0
        return agent

    def test_reply_tracks_opponent_announcements(self):
        agent = self.reply_agent()
        n = agent.res_alpha.n_units
        # action 0 is worth 1 regardless; action 1 is worth 4 exactly when
        # the opponent sits at its action 1 (its idle row encodes to zeros)
        agent.ro_alpha.w_out[0, -1] = 1.0
        agent.ro_alpha.w_out[1, n:n + 4] = [4.0, 4.0, 0.0, 0.0]
        agent.opponent_bests = (0, 0)
        assert _best_reply(agent) == 0
        agent.opponent_bests = (0, 1)
        assert _best_reply(agent) == 1
        agent.opponent_bests = (0, 0)
        assert _best_reply(agent) == 0

    def test_advertised_action_sticks_within_margin(self):
        agent = self.reply_agent()
        agent.ro_alpha.w_out[0, -1] = 1.0
        agent.ro_alpha.w_out[1, -1] = 1.0 + 0.5 * BEST_SWITCH_MARGIN
        agent._best_prev = 0
        assert _best_reply(agent) == 0
        assert agent._best_prev == 0

    def test_clear_challenger_switches(self):
        agent = self.reply_agent()
        agent.ro_alpha.w_out[0, -1] = 1.0
        agent.ro_alpha.w_out[1, -1] = 1.0 + 2.0 * BEST_SWITCH_MARGIN
        agent._best_prev = 0
        assert _best_reply(agent) == 1
        assert agent._best_prev == 1

    def test_finish_round_records_opponent_bests(self):
        agent = self.reply_agent()
        caps = flat_caps(1, 2)
        assert agent.opponent_bests == (0, 0)
        own_played, own_best = select_and_broadcast(agent)
        played, advertised = (own_played, 0), (own_best, 1)
        reward = JointEvaluator(agent.spaces, caps).utility_of(
            0, reward_joint(agent, played, advertised))
        finish_round(agent, played, advertised, reward)
        assert agent.opponent_bests == advertised

    def test_table_agents_advertise_their_argmax(self):
        own = macro_two_action_space()
        opp = sbs_idle_busy_space(owner=1)
        agent = QAgent(0, [own, opp], tiny_config(), seed=3)
        agent.epsilon = 0.0
        agent.q_table[:] = [0.2, 0.9]
        assert select_and_broadcast(agent) == (1, 1)


# opponent model ------------------------------------------------------------


class TestOpponentModel:
    """Opponent m plays the epsilon-greedy law peaked at its advertised
    best; ``game._epsilon_greedy`` is that law for the agents' expectation
    and for ``MixedStrategy``."""

    def test_two_action_values(self):
        probs = _epsilon_greedy(2, 0, 0.7)
        assert isinstance(probs, np.ndarray)
        assert probs.tolist() == pytest.approx([0.65, 0.35], abs=1e-12)

    def test_greedy_limit_is_point_mass(self):
        assert _epsilon_greedy(2, 1, 0.0).tolist() == [0.0, 1.0]

    def test_probabilities_sum_to_one(self):
        for n_actions, epsilon in [(2, 0.3), (5, 0.7), (9, 0.95)]:
            probs = _epsilon_greedy(n_actions, n_actions - 1, epsilon)
            assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_same_floats_as_mixed_strategy(self):
        for n_actions, epsilon, best in [(2, 0.3, 1), (5, 0.7, 0), (9, 0.95, 4),
                                         (32, 0.1, 31), (7, 1.0, 3)]:
            rows = [((i / 10.0,), (0.0,), None, None) for i in range(n_actions)]
            space = single_user_space(0, rows)
            # the plain formula in Python floats
            want = [epsilon / n_actions] * n_actions
            want[best] += 1.0 - epsilon
            assert _epsilon_greedy(n_actions, best, epsilon).tolist() == want
            got = MixedStrategy.epsilon_greedy(space, best, epsilon).probs
            assert list(got) == want

    def test_model_is_the_advertised_row(self):
        # the exact expectation weighs each opponent action by the law
        # peaked at the opponent's entry of the last advertised row
        spaces = [macro_two_action_space(), sbs_idle_busy_space(1),
                  sbs_idle_busy_space(2)]
        agent = EsnAgent(1, spaces, tiny_config(), seed=3)
        assert agent.opponent_bests == (0, 0, 0)
        values = {}
        distinct = [(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 1, 1)]
        for bests in distinct + [(0, 1, 0), (1, 0, 1)]:
            agent.opponent_bests = bests
            values[bests] = beta_expectation(agent, 1).value
        # the own entry is never read; each opponent pair is its own model
        assert values[(0, 0, 0)] == values[(0, 1, 0)]
        assert values[(1, 1, 1)] == values[(1, 0, 1)]
        assert len({values[b] for b in distinct}) == 4

    def bus_agent(self):
        spaces = [macro_two_action_space(), sbs_idle_busy_space(1),
                  sbs_idle_busy_space(2)]
        agent = EsnAgent(1, spaces, tiny_config(), seed=3)
        select_and_broadcast(agent)
        return agent

    def test_missing_message_is_protocol_error(self):
        # BS 2 sent nothing: its entry is absent from both rows
        agent = self.bus_agent()
        with pytest.raises(ValueError, match="3 entries, one per BS"):
            finish_round(agent, (0, 0), (0, 0), 1.0)
        assert agent.opponent_bests == (0, 0, 0)

    def test_duplicate_message_is_protocol_error(self):
        # BS 2 sent twice: its surplus entry makes each row one too long
        agent = self.bus_agent()
        with pytest.raises(ValueError, match="3 entries, one per BS"):
            finish_round(agent, (0, 0, 0, 1), (0, 0, 0, 1), 1.0)
        assert agent.opponent_bests == (0, 0, 0)


# alpha target --------------------------------------------------------------


def alpha_target(agent, joint, caps):
    """The reward ``finish_round`` receives when the agent plays
    ``joint[agent.bs]`` and each opponent m plays ``joint[m]``: the resolved
    utility of the agent's reward joint."""
    # epsilon 0 and a beta readout peaked at the wanted action pin the draw
    agent.epsilon = 0.0
    agent.ro_beta.w_out[:] = 0.0
    agent.ro_beta.w_out[joint[agent.bs], -1] = 1.0
    select_and_broadcast(agent)
    played, advertised = tuple(int(i) for i in joint), (0,) * len(joint)
    row = reward_joint(agent, played, advertised)
    assert row == played
    return JointEvaluator(agent.spaces, caps, eta=DEFAULT_ETA).utility_of(
        agent.bs, row)


class TestAlphaTarget:
    def test_idle_joint_is_zero(self):
        spaces = [macro_two_action_space(), sbs_idle_busy_space()]
        agent = EsnAgent(1, spaces, tiny_config(), seed=3)
        caps = flat_caps(1, 2)
        assert alpha_target(agent, [0, 0], caps) == 0.0

    def test_single_bs_equals_own_utility(self):
        space = single_user_space(0, [((0.5,), (0.5,), None, None),
                                      ((1.0,), (0.0,), None, None)])
        agent = EsnAgent(0, [space], tiny_config(), seed=3)
        caps = flat_caps(1, 1, c=3.0)
        want = math.log2(1 + 0.5 * 3.0) + math.log2(1 + 0.5 * 3.0)
        assert alpha_target(agent, [0], caps) == pytest.approx(
            want, rel=1e-12)

    def test_matches_resolved_utilities_on_random_joints(self):
        config = tiny_config()
        rng = np.random.default_rng(11)
        macro = macro_space(2, [
            ((0.0, 0.0), (0.0, 0.0), None, None),
            ((1.0, 0.0), (0.0, 1.0), None, None),
            ((0.5, 0.5), (0.5, 0.5), None, None),
        ])
        sbs = single_user_space(1, [
            ((0.0,), (0.0,), (0.0,), (0.0,)),
            ((1.0,), (1.0,), (0.5,), (0.5,)),
            ((0.0,), (0.5,), (0.7,), (0.0,)),
        ], users=(1,), n_users=2)
        licensed = rng.uniform(0.5, 4.0, size=(2, 2))
        unlicensed = rng.uniform(0.5, 4.0, size=(2, 2))
        unlicensed[:, 0] = 0.0
        caps = LinkCapacitySet(c_l_dl=licensed, c_l_ul=licensed * 1.5,
                               c_u_dl=unlicensed, c_u_ul=unlicensed * 0.5,
                               lte_fraction=1.0)
        agent = EsnAgent(1, [macro, sbs], config, seed=4)
        for _ in range(10):
            joint = [rng.integers(3), rng.integers(3)]
            want = game.resolved_utilities(
                game.resolve_conflicts([macro, sbs], joint, caps), caps,
                eta=config.eta)[1]
            got = alpha_target(agent, joint, caps)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


class TestRewardJoint:
    def three_bs(self, kind):
        spaces = [macro_two_action_space(), sbs_idle_busy_space(1),
                  sbs_idle_busy_space(2)]
        agent = kind(1, spaces, tiny_config(), seed=3)
        agent.epsilon = 1.0
        own, best = select_and_broadcast(agent)
        # BS 0 plays 1 and advertises 0; BS 2 plays 0 and advertises 1
        return agent, own, (1, own, 0), (0, best, 1)

    def test_reservoir_agent_scores_against_played_actions(self):
        agent, own, played, advertised = self.three_bs(EsnAgent)
        assert reward_joint(agent, played, advertised) == (1, own, 0)

    def test_q_agent_scores_against_announced_bests(self):
        agent, own, played, advertised = self.three_bs(QAgent)
        assert reward_joint(agent, played, advertised) == (0, own, 1)

    def test_own_echo_is_ignored(self):
        # the agent's own entries are replaced by its pending action
        for kind, (first, last) in [(EsnAgent, (1, 0)), (QAgent, (0, 1))]:
            agent, own, _, _ = self.three_bs(kind)
            echo = (1, 1 - own, 0), (0, 1 - own, 1)
            assert reward_joint(agent, *echo) == (first, own, last)

    def test_requires_a_pending_action(self):
        spaces = [macro_two_action_space(), sbs_idle_busy_space()]
        agent = QAgent(1, spaces, tiny_config(), seed=3)
        with pytest.raises(RuntimeError, match="select_and_broadcast"):
            reward_joint(agent, (0, 0), (0, 0))

    @pytest.mark.parametrize("kind", [EsnAgent, QAgent])
    def test_missing_or_duplicate_broadcast_raises(self, kind):
        # a row short of an entry misses a broadcast, a longer one carries
        # a surplus; either raises before anything is learned
        agent, own, played, advertised = self.three_bs(kind)
        state = (agent.opponent_bests if kind is EsnAgent
                 else agent.q_table.copy())
        bad_rows = [played[:2], played + (0,), (), played[:1]]
        for bad in bad_rows:
            for rows in [(bad, advertised), (played, bad)]:
                with pytest.raises(ValueError, match="3 entries, one per BS"):
                    reward_joint(agent, *rows)
                with pytest.raises(ValueError, match="3 entries, one per BS"):
                    finish_round(agent, *rows, 1.0)
        # nothing was learned, and the pending action still finishes
        if kind is EsnAgent:
            assert agent.opponent_bests == state
        else:
            assert np.array_equal(agent.q_table, state)
        finish_round(agent, played, advertised, 1.0)
        with pytest.raises(RuntimeError, match="select_and_broadcast"):
            finish_round(agent, played, advertised, 1.0)

    def test_finish_round_takes_the_reward_as_given(self):
        spaces = [macro_two_action_space(), sbs_idle_busy_space()]
        agent = QAgent(1, spaces, tiny_config(), seed=3)
        select_and_broadcast(agent)
        diag = finish_round(agent, (0, 0), (0, 0), 2.5)
        assert diag.target == 2.5
        assert diag.q_after == pytest.approx(0.06 * 2.5, rel=1e-12)

    def test_capacities_are_not_a_reward(self):
        spaces = [macro_two_action_space(), sbs_idle_busy_space()]
        agent = EsnAgent(1, spaces, tiny_config(), seed=3)
        select_and_broadcast(agent)
        with pytest.raises(TypeError):
            finish_round(agent, (0, 0), (0, 0), flat_caps(1, 2))


# beta target ---------------------------------------------------------------


class TestBetaTarget:
    def test_point_mass_matches_single_alpha_prediction(self):
        spaces = [macro_two_action_space(), sbs_idle_busy_space()]
        agent = EsnAgent(1, spaces, tiny_config(), seed=9)
        rng = np.random.default_rng(2)
        agent.res_alpha.state = rng.uniform(-0.5, 0.5, agent.res_alpha.n_units)
        agent.epsilon = 0.0  # the law is a point mass on the advertised best
        agent.opponent_bests = (1, 0)
        got = beta_expectation(agent, 1)
        assert got.exact and got.stderr == 0.0
        x = agent.profile_input((1, 0))
        mu = esn.peek_state(agent.res_alpha, x)
        want = esn.readout_all(agent.ro_alpha, mu, x)[1]
        assert got.value == pytest.approx(want, rel=1e-12)

    def test_uniform_opponent_averages_trained_values(self):
        # alpha reads exactly u0/u1 off the two opponent encodings, so the
        # expectation under a fair coin is their midpoint
        own = macro_two_action_space()
        opp = single_user_space(1, [
            ((0.2,), (0.0,), (0.0,), (0.0,)),
            ((0.4,), (0.0,), (0.0,), (0.0,)),
        ])
        agent = EsnAgent(0, [own, opp], tiny_config(), seed=1)
        agent.ro_alpha.w_out[:] = 0.0
        agent.ro_alpha.w_out[0, agent.res_alpha.n_units] = 30.0
        agent.epsilon = 1.0  # uniform over the opponent's two actions
        got = beta_expectation(agent, 0)
        assert got.exact
        assert got.value == pytest.approx((3.0 + 6.0) / 2.0, rel=1e-12)

    def naive_prediction(self, agent, indices, action_i):
        parts = []
        for m in agent.opponents:
            action = action_at(agent.spaces[m], indices[m])
            k = len(action.users)
            block = np.zeros(4 * k)
            block[:k] = action.d
            block[k:2 * k] = action.v
            if action.kappa is not None:
                block[2 * k:3 * k] = action.kappa
                block[3 * k:4 * k] = action.tau
            parts.append(block)
        x = np.concatenate(parts) / math.sqrt(agent.alpha_dim)
        reservoir = agent.res_alpha
        mu = np.tanh(reservoir.w @ reservoir.state + reservoir.w_in @ x)
        z = np.concatenate([mu, x, [1.0]])
        return float(agent.ro_alpha.w_out[action_i] @ z)

    def two_opponent_agent(self, budget=128):
        own = macro_two_action_space()
        opp1 = single_user_space(1, [
            ((0.0,), (0.0,), (0.0,), (0.0,)),
            ((1.0,), (0.5,), (0.0,), (0.5,)),
            ((0.5,), (1.0,), (0.5,), (0.0,)),
            ((0.2,), (0.2,), (0.2,), (0.2,)),
        ])
        opp2 = single_user_space(2, [
            ((0.0,), (0.0,), (0.0,), (0.0,)),
            ((0.9,), (0.1,), (0.0,), (0.0,)),
            ((0.1,), (0.9,), (0.3,), (0.3,)),
            ((0.4,), (0.4,), (0.1,), (0.1,)),
            ((0.6,), (0.0,), (0.2,), (0.0,)),
        ])
        config = tiny_config(expectation_budget=budget)
        agent = EsnAgent(0, [own, opp1, opp2], config, seed=21)
        rng = np.random.default_rng(3)
        agent.res_alpha.state = rng.uniform(-0.4, 0.4, agent.res_alpha.n_units)
        agent.opponent_bests = (0, 2, 0)
        return agent

    def model(self, agent):
        """The opponents' epsilon-greedy arrays, by the plain formula."""
        return [epsilon_greedy(len(agent.spaces[m]), agent.opponent_bests[m],
                               agent.epsilon) for m in agent.opponents]

    def test_exact_expectation_matches_brute_force(self):
        agent = self.two_opponent_agent()
        assert agent.epsilon == 0.7
        got = beta_expectation(agent, 1)
        assert got.exact
        probs1, probs2 = self.model(agent)
        want = sum(probs1[j] * probs2[k]
                   * self.naive_prediction(agent, {1: j, 2: k}, 1)
                   for j in range(4) for k in range(5))
        assert got.value == pytest.approx(want, rel=1e-12)

    def test_monte_carlo_within_three_stderr_of_exact(self):
        exact = beta_expectation(self.two_opponent_agent(), 1).value
        agent = self.two_opponent_agent(budget=16)  # 20 profiles > budget
        got = beta_expectation(agent, 1)
        assert not got.exact and got.stderr > 0.0
        assert abs(got.value - exact) <= 3.0 * got.stderr

    @pytest.mark.parametrize("budget", [16, 128])  # sampled, exact
    def test_stale_scratch_does_not_reach_the_result(self, budget):
        # a team shares one pair of work arrays, so each call must write
        # every entry it reads
        want = beta_expectation(self.two_opponent_agent(budget), 1)
        agent = self.two_opponent_agent(budget)
        agent._scratch = np.full((2, budget, agent.res_alpha.n_units), np.nan)
        assert beta_expectation(agent, 1) == want

    @pytest.mark.parametrize("budget", [2, 3, 16])
    def test_sampled_moments_are_numpys(self, budget):
        # the sampled profiles are one Generator.choice per opponent, and
        # the one-pass mean and standard error equal numpy's mean and
        # std(ddof=1) on their predictions, bit for bit
        agent = self.two_opponent_agent(budget)
        rng = np.random.default_rng()
        rng.bit_generator.state = agent.rng.bit_generator.state
        values = _alpha_predictions(
            agent, choice_stack(rng, self.model(agent), budget), 1)
        got = beta_expectation(agent, 1)
        assert not got.exact
        assert got.value == float(values.mean())
        assert got.stderr == float(values.std(ddof=1) / math.sqrt(budget))
        assert agent.rng.random() == rng.random()

    def test_no_opponents_reads_alpha_directly(self):
        space = macro_two_action_space()
        agent = EsnAgent(0, [space], tiny_config(), seed=6)
        got = beta_expectation(agent, 1)
        empty = np.zeros(0)
        want = esn.readout_all(agent.ro_alpha,
                               esn.peek_state(agent.res_alpha, empty), empty)[1]
        assert got.exact and got.value == pytest.approx(want, rel=1e-12)


def choice_stack(rng, probs, budget):
    """Reference sampler: one ``Generator.choice`` call per probability
    array, in order, stacked one row per array."""
    return np.stack([rng.choice(len(p), size=budget, p=p) for p in probs])


def model_agent(sizes, bests, epsilon):
    """What ``_ProfileTables.table`` reads of an agent: BS 0 and one
    opponent per entry of ``sizes``, advertising ``bests``."""
    return SimpleNamespace(opponents=tuple(range(1, len(sizes) + 1)),
                           spaces=[None] + [range(n) for n in sizes],
                           opponent_bests=(0,) + tuple(bests),
                           epsilon=epsilon)


def sampled_profiles(rng, agent, budget, tables=None):
    """The sampled expectation's profiles: one block of uniforms, inverted
    through the agent's stacked guide table."""
    tables = _ProfileTables() if tables is None else tables
    return _invert(tables.table(agent),
                   rng.random((len(agent.opponents), budget)))


class TestDrawProfiles:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 40), st.integers(0, 39)),
                    min_size=1, max_size=5),
           st.floats(0.0, 1.0), st.integers(1, 600), st.integers(0, 2**32 - 1))
    def test_matches_per_opponent_choice_bitwise(self, opponents, epsilon,
                                                 budget, seed):
        agent = model_agent([size for size, _ in opponents],
                            [best % size for size, best in opponents],
                            epsilon)
        probs = [epsilon_greedy(len(agent.spaces[m]),
                                agent.opponent_bests[m], epsilon)
                 for m in agent.opponents]
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sampled_profiles(ours, agent, budget)
        want = choice_stack(ref, probs, budget)
        assert got.shape == want.shape == (len(probs), budget)
        assert np.array_equal(got, want)
        # the generators leave the draws in the same state
        assert ours.random() == ref.random()

    def test_rows_are_contiguous_index_rows(self):
        agent = model_agent([4, 3], [0, 2], epsilon=1.0)  # uniform laws
        draws = sampled_profiles(np.random.default_rng(0), agent, 50)
        assert draws.shape == (2, 50) and draws.flags.c_contiguous
        assert draws[0].max() < 4 and draws[1].max() < 3


def epsilon_greedy(size, best, epsilon):
    p = np.full(size, epsilon / size)
    p[best] += 1.0 - epsilon
    return p


def stacked(probs):
    """Guide rows of arbitrary probability arrays, stacked."""
    return _stack_rows([_guide_row(p) for p in probs])


def searchsorted_stack(probs, uniforms):
    """Reference inversion: a binary search of each normalized CDF."""
    rows = []
    for p, u in zip(probs, uniforms):
        cdf = p.cumsum()
        cdf /= cdf[-1]
        rows.append(cdf.searchsorted(u, side="right"))
    return np.stack(rows)


def edge_uniforms(probs):
    """Per row: every CDF value below 1, every cell edge k/G, 0.0 and the
    largest double below 1, with the neighbouring doubles of each; rows
    are padded to a common length with 0.5."""
    rows = []
    for p in probs:
        cdf, _, cells, _ = _guide_row(p)
        points = np.concatenate([cdf[cdf < 1.0], np.arange(cells) / cells,
                                 [0.0, np.nextafter(1.0, 0.0)]])
        points = np.concatenate([points, np.nextafter(points, 0.0),
                                 np.nextafter(points, 1.0)])
        rows.append(points[(points >= 0.0) & (points < 1.0)])
    width = max(len(r) for r in rows)
    return np.stack([np.pad(r, (0, width - len(r)), constant_values=0.5)
                     for r in rows])


class TestGuideInversion:
    """``_invert`` against ``searchsorted(side="right")``, bit for bit."""

    def check(self, probs, uniforms):
        table = stacked(probs)
        got = _invert(table, uniforms)
        assert got.dtype == np.intp
        assert np.array_equal(got, searchsorted_stack(probs, uniforms))
        return table

    def test_edges_of_cells_and_cdf_entries(self):
        probs = [epsilon_greedy(32, 5, 0.7), epsilon_greedy(7, 0, 0.3),
                 np.full(4, 0.25), np.array([1.0])]
        self.check(probs, edge_uniforms(probs))

    def test_many_entries_in_one_cell(self):
        # 39 entries 2.5e-5 apart share the cells below the peak
        probs = [epsilon_greedy(40, 39, 1e-3), epsilon_greedy(40, 0, 1e-3)]
        table = self.check(probs, edge_uniforms(probs))
        assert table[-1] > 1  # comparisons per uniform
        rng = np.random.default_rng(1)
        self.check(probs, rng.random((2, 4000)) * 1e-3)

    def test_zero_probability_entries(self):
        probs = [np.array([0.0, 0.3, 0.0, 0.0, 0.7, 0.0]),
                 np.array([0.0, 0.0, 1.0]),
                 np.array([0.5, 0.0, 0.5]),
                 np.array([0.25, 0.25, 0.0, 0.5, 0.0])]
        self.check(probs, edge_uniforms(probs))
        rng = np.random.default_rng(2)
        draws = _invert(stacked(probs), rng.random((4, 2000)))
        for p, row in zip(probs, draws):
            assert np.all(p[row] > 0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40)
                    .filter(lambda w: sum(w) > 0), min_size=1, max_size=5),
           st.integers(0, 2**32 - 1))
    def test_any_probabilities(self, weights, seed):
        probs = [np.array(w) / sum(w) for w in weights]
        uniforms = np.random.default_rng(seed).random((len(probs), 300))
        self.check(probs, uniforms)
        self.check(probs, edge_uniforms(probs))

    def test_tables_are_kept_per_model(self, monkeypatch):
        built = []

        def counted(p):
            built.append(p.tolist())
            return _guide_row(p)

        monkeypatch.setattr(agents, "_guide_row", counted)
        tables = _ProfileTables()
        agent = model_agent([32, 16], [1, 2], epsilon=0.7)
        model = [epsilon_greedy(32, 1, 0.7), epsilon_greedy(16, 2, 0.7)]
        first = tables.table(agent)
        assert built == [p.tolist() for p in model]
        # the same bests in a fresh row keep the stacked table
        agent.opponent_bests = tuple(list(agent.opponent_bests))
        assert tables.table(agent) is first
        # a moved best restacks, building only the new (opponent, best) row
        agent.opponent_bests = (0, 1, 9)
        moved = [model[0], epsilon_greedy(16, 9, 0.7)]
        second = tables.table(agent)
        assert second is not first
        assert built[2:] == [moved[1].tolist()]
        uniforms = np.random.default_rng(3).random((2, 500))
        assert np.array_equal(_invert(second, uniforms),
                              searchsorted_stack(moved, uniforms))
        # moving back reuses both kept rows
        agent.opponent_bests = (5, 1, 2)  # the own entry is not read
        third = tables.table(agent)
        assert third is not second and len(built) == 3
        assert np.array_equal(_invert(third, uniforms),
                              searchsorted_stack(model, uniforms))


# full reservoir step -------------------------------------------------------


class TestAgentStep:
    def step_fixture(self, **config_overrides):
        spaces = [macro_two_action_space(), sbs_idle_busy_space()]
        config = tiny_config(**config_overrides)
        agent = EsnAgent(1, spaces, config, seed=17)
        caps = flat_caps(1, 2)
        others = {0: (0, 0)}  # the macro cell plays and advertises idle
        return agent, caps, others

    def test_frozen_rates_leave_readouts_unchanged(self):
        agent, caps, others = self.step_fixture(lambda_alpha=0.0,
                                                lambda_beta=0.0)
        before_alpha = agent.ro_alpha.w_out.copy()
        before_beta = agent.ro_beta.w_out.copy()
        (played, best), diag = play_round(agent, others, caps)
        assert np.array_equal(agent.ro_alpha.w_out, before_alpha)
        assert np.array_equal(agent.ro_beta.w_out, before_beta)
        assert 0 <= played < 2 and 0 <= best < 2
        assert math.isfinite(diag.e_alpha) and math.isfinite(diag.e_beta)

    def test_exactly_one_row_per_readout_changes(self):
        agent, caps, _ = self.step_fixture()
        before_alpha = agent.ro_alpha.w_out.copy()
        before_beta = agent.ro_beta.w_out.copy()
        # opponent plays busy so the alpha features are nonzero already in
        # round one (idle encodes to the zero vector)
        (taken, _), _ = play_round(agent, {0: (1, 0)}, caps)
        for row in range(2):
            alpha_same = np.array_equal(agent.ro_alpha.w_out[row],
                                        before_alpha[row])
            beta_same = np.array_equal(agent.ro_beta.w_out[row],
                                       before_beta[row])
            if row == taken:
                assert not alpha_same and not beta_same
            else:
                assert alpha_same and beta_same

    def test_hand_computed_single_step(self):
        # one BS, one user, two actions; every quantity reproduced with plain
        # numpy arithmetic on the 2-unit reservoirs
        space = single_user_space(0, [((0.5,), (0.5,), None, None),
                                      ((1.0,), (0.0,), None, None)])
        agent = EsnAgent(0, [space], tiny_config(), seed=0)
        agent.epsilon = 0.0

        w_alpha = np.array([[0.5, -0.25], [0.1, 0.3]])
        state_alpha = np.array([0.2, -0.1])
        w_out_alpha = np.array([[0.3, -0.2, 0.04], [0.05, 0.1, -0.02]])
        agent.res_alpha = esn.Reservoir(w_in=np.zeros((2, 0)),
                                        w=scipy.sparse.csr_matrix(w_alpha),
                                        state=state_alpha.copy(), n_units=2)
        agent.ro_alpha = esn.Readout(w_out=w_out_alpha.copy(),
                                     rate=0.08)
        w_beta = np.array([[0.1, 0.05], [-0.2, 0.25]])
        w_in_beta = np.array([[0.2, -0.1], [0.05, 0.15]])
        state_beta = np.array([0.4, 0.1])
        agent.res_beta = esn.Reservoir(w_in=w_in_beta,
                                       w=scipy.sparse.csr_matrix(w_beta),
                                       state=state_beta.copy(), n_units=2)
        agent.ro_beta = esn.Readout(w_out=np.zeros((2, 5)),
                                    rate=0.06)

        caps = flat_caps(1, 1, c=3.0)
        own, diag = play_round(agent, {}, caps)
        assert own == (0, 0)

        x_beta = np.ones(2) / math.sqrt(2.0)
        mu_alpha = np.tanh(w_alpha @ state_alpha)
        z_alpha = np.concatenate([mu_alpha, [1.0]])
        u0 = 2.0 * math.log2(1.0 + 0.5 * 3.0)
        r_hat = float(w_out_alpha[0] @ z_alpha)
        assert diag.e_alpha == pytest.approx(u0, rel=1e-12)
        assert diag.r_hat_alpha == pytest.approx(r_hat, rel=1e-12)
        assert diag.e_beta == pytest.approx(r_hat, rel=1e-12)
        assert diag.r_hat_beta == 0.0

        want_alpha_row = w_out_alpha[0] + 0.08 * (u0 - r_hat) * z_alpha
        z_beta = np.concatenate([state_beta, x_beta, [1.0]])
        want_beta_row = 0.06 * r_hat * z_beta
        np.testing.assert_allclose(agent.ro_alpha.w_out[0], want_alpha_row,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(agent.ro_alpha.w_out[1], w_out_alpha[1],
                                   rtol=0, atol=0)
        np.testing.assert_allclose(agent.ro_beta.w_out[0], want_beta_row,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(agent.res_alpha.state, mu_alpha,
                                   rtol=0, atol=1e-12)
        want_state_beta = np.tanh(w_beta @ state_beta + w_in_beta @ x_beta)
        np.testing.assert_allclose(agent.res_beta.state, want_state_beta,
                                   rtol=0, atol=1e-12)

    def test_missing_opponent_broadcast_raises(self):
        agent, _, _ = self.step_fixture()
        select_and_broadcast(agent)
        before = agent.ro_alpha.w_out.copy()
        # the rows carry the agent's own entry but none from BS 0
        with pytest.raises(ValueError, match="2 entries, one per BS"):
            finish_round(agent, (0,), (0,), 1.0)
        assert np.array_equal(agent.ro_alpha.w_out, before)

    def test_fixed_opponent_reaches_constant_argmax(self):
        spaces = [single_user_space(0, [((0.0,), (0.0,), None, None)]),
                  sbs_idle_busy_space()]
        agent = EsnAgent(1, spaces, tiny_config(reservoir_units=16), seed=8)
        agent.epsilon = 0.3
        caps = flat_caps(1, 2)
        actions = []
        for t in range(200):
            if t == 120:
                agent.epsilon = 0.0
            (played, _), _ = play_round(agent, {0: (0, 0)}, caps)
            actions.append(played)
            resolved = game.resolve_conflicts(spaces, [0, played], caps)
            observe_outcome(agent, resolved)
        # busy strictly dominates idle, and after exploration stops the
        # selection must sit still on it
        assert set(actions[-50:]) == {1}

    def test_finish_before_select_raises(self):
        agent, _, _ = self.step_fixture()
        with pytest.raises(RuntimeError, match="select_and_broadcast"):
            finish_round(agent, (0, 0), (0, 0), 1.0)

    def test_same_seed_same_trajectory(self):
        def run_one():
            spaces = [macro_two_action_space(), sbs_idle_busy_space()]
            agent = EsnAgent(1, spaces, tiny_config(), seed=7)
            caps = flat_caps(1, 2)
            out = []
            for t in range(1, 6):
                out.append(play_round(agent, {0: (t % 2, 0)}, caps))
            return out

        assert run_one() == run_one()


# association input ---------------------------------------------------------


def observe_reference(agent, settled):
    """The beta input ``observe_outcome`` should leave, by a per-user loop
    over the agent's own settled fractions: a covered user's DL bit is set
    when its licensed or unlicensed DL fraction is positive, then the same
    for UL. The macro cell's action has no unlicensed part to read."""
    own = action_at(agent.action_space, 0)
    d, v, kappa, tau = ([settled[row, agent.bs, u] for u in own.users]
                        for row in range(4))
    if own.kappa is None:
        kappa = tau = None
    k = len(own.users)
    bits = np.zeros(2 * k)
    for i in range(k):
        dl = d[i] > 0 or (kappa is not None and kappa[i] > 0)
        ul = v[i] > 0 or (tau is not None and tau[i] > 0)
        bits[i] = 1.0 if dl else 0.0
        bits[k + i] = 1.0 if ul else 0.0
    return bits * agent._beta_scale


@functools.lru_cache(maxsize=None)
def desk_team(seed):
    """Inputs and ESN team of a desk_config() run. At seed 10 BS 1 covers no
    user, at seed 11 BS 3 covers none."""
    config = desk_config(reservoir_units=12)
    inputs = harness.prepare_run(config, "esn", seed)
    team = make_agents("esn", inputs.spaces, config, inputs.agent_seed)
    return inputs, team


@st.composite
def settled_desk_blocks(draw):
    """(team, settled block): a random desk joint settled either way, or a
    raw block of grid fractions with the macro cell's unlicensed rows zero."""
    inputs, team = desk_team(draw(st.sampled_from([0, 10, 11])))
    spaces, caps = inputs.spaces, inputs.capacities
    if draw(st.booleans()):
        joint = [draw(st.integers(0, len(s) - 1)) for s in spaces]
        return team, game.resolve_conflicts(spaces, joint, caps,
                                            coupled=draw(st.booleans()))
    levels = draw(st.lists(st.integers(0, 10),
                           min_size=4 * caps.n_bs * caps.n_users,
                           max_size=4 * caps.n_bs * caps.n_users))
    block = np.array(levels).reshape(4, caps.n_bs, caps.n_users) / 10
    block[2:, 0] = 0.0
    return team, block


@pytest.mark.parametrize("seed", [0, 10])
def test_opponent_encoding_is_the_per_action_blocks(seed):
    # [d | v | kappa | tau] over the covered users, kappa and tau zero at
    # the macro cell; seed 10 leaves BS 1 with no covered user
    inputs, _ = desk_team(seed)
    for space in inputs.spaces:
        want = []
        for action in actions_of(space):
            zeros = (0.0,) * len(action.users)
            want.append(list(action.d + action.v + (action.kappa or zeros)
                             + (action.tau or zeros)))
        got = _encode_space(space)
        assert got.shape == (len(space), 4 * len(space.covered_users))
        assert got.tolist() == want


class TestAssociationInput:
    def test_initial_request_state(self):
        spaces = [macro_two_action_space(), sbs_idle_busy_space()]
        agent = EsnAgent(1, spaces, tiny_config(), seed=3)
        np.testing.assert_allclose(agent.x_beta,
                                   np.ones(2) / math.sqrt(2.0), rtol=0)

    def test_bits_follow_resolved_grants(self):
        macro = macro_space(2, [((0.0, 0.0), (0.0, 0.0), None, None)])
        sbs = space_of([make_action(owner=1, users=(0, 1), n_users=2,
                                    d=(0.6, 0.0), v=(0.0, 0.3),
                                    kappa=(0.0, 0.0), tau=(0.0, 0.0))])
        agent = EsnAgent(1, [macro, sbs], tiny_config(), seed=3)
        observe_outcome(agent, game.resolve_conflicts(
            [macro, sbs], [0, 0], flat_caps(2, 2)))
        np.testing.assert_allclose(agent.x_beta,
                                   np.array([1.0, 0.0, 0.0, 1.0]) / 2.0,
                                   rtol=0)

    def test_unlicensed_grant_counts_as_association(self):
        macro = macro_space(1, [((0.0,), (0.0,), None, None)])
        sbs = single_user_space(1, [((0.0,), (0.0,), (0.4,), (0.0,))])
        agent = EsnAgent(1, [macro, sbs], tiny_config(), seed=3)
        observe_outcome(agent, game.resolve_conflicts(
            [macro, sbs], [0, 0], flat_caps(1, 2)))
        np.testing.assert_allclose(agent.x_beta,
                                   np.array([1.0, 0.0]) / math.sqrt(2.0),
                                   rtol=0)

    def test_q_agent_ignores_outcomes(self):
        spaces = [macro_two_action_space(), sbs_idle_busy_space()]
        agent = QAgent(1, spaces, tiny_config(), seed=3)
        observe_outcome(agent, game.resolve_conflicts(
            spaces, [0, 0], flat_caps(1, 2)))
        assert not hasattr(agent, "x_beta")

    @settings(max_examples=150, deadline=None)
    @given(settled_desk_blocks())
    def test_bits_match_the_per_user_reference(self, case):
        team, settled = case
        for agent in team:
            want = observe_reference(agent, settled)
            observe_outcome(agent, settled)
            assert agent.x_beta.dtype == want.dtype
            assert agent.x_beta.tobytes() == want.tobytes()

    def test_empty_and_macro_agents_are_covered(self):
        inputs, team = desk_team(10)
        assert len(team[1].action_space.covered_users) == 0
        assert action_at(team[0].action_space, 0).kappa is None
        observe_outcome(team[1], np.ones((4, 5, inputs.capacities.n_users)))
        assert team[1].x_beta.shape == (0,)

    @pytest.mark.parametrize("shape", [(4, 4, 12), (4, 5, 11), (4, 5, 13),
                                       (2, 2, 5, 12), (240,), (4, 12, 5)])
    def test_wrongly_shaped_block_raises(self, shape):
        inputs, team = desk_team(0)
        assert inputs.capacities.n_users == 12 and len(team) == 5
        agent = team[2]
        before = agent.x_beta.copy()
        with pytest.raises(ValueError, match="shape"):
            observe_outcome(agent, np.ones(shape))
        assert np.array_equal(agent.x_beta, before)


# Q baselines ---------------------------------------------------------------


class TestQAgent:
    def unit_reward_agent(self, **kwargs):
        # one action worth exactly log2(1 + 1*1) = 1 per round
        space = single_user_space(0, [((1.0,), (0.0,), None, None)])
        agent = QAgent(0, [space], tiny_config(), seed=2, **kwargs)
        caps = flat_caps(1, 1, c=1.0)
        return agent, caps

    def test_single_update_from_zero(self):
        agent, caps = self.unit_reward_agent()
        own, diag = play_round(agent, {}, caps)
        assert own == (0, 0)
        assert diag.q_before == 0.0
        assert diag.target == pytest.approx(1.0, rel=1e-12)
        assert diag.q_after == pytest.approx(0.06, rel=1e-12)

    def test_rate_one_jumps_to_target(self):
        agent, caps = self.unit_reward_agent()
        agent.lambda_q = 1.0
        agent.q_table[0] = 0.37
        _, diag = play_round(agent, {}, caps)
        assert diag.q_after == diag.target

    def test_geometric_convergence_to_constant_target(self):
        agent, caps = self.unit_reward_agent()
        for k in range(1, 101):
            _, diag = play_round(agent, {}, caps)
            want = 1.0 - (1.0 - 0.06) ** k
            assert diag.q_after == pytest.approx(want, rel=1e-12)

    def test_update_touches_only_taken_entry(self):
        spaces = [macro_two_action_space(), sbs_idle_busy_space()]
        agent = QAgent(1, spaces, tiny_config(), seed=4)
        agent.q_table[:] = [0.2, 0.5]
        caps = flat_caps(1, 2)
        (taken, _), _ = play_round(agent, {0: (0, 0)}, caps)
        untaken = 1 - taken
        assert agent.q_table[untaken] == [0.2, 0.5][untaken]

    def test_target_uses_broadcast_best_profile(self):
        # the macro plays idle but announces busy as its best; with a stronger
        # macro offer the agent's DL grant loses, so the target must be 0
        macro = macro_two_action_space()
        sbs = sbs_idle_busy_space()
        licensed = np.array([[5.0, 2.0]])
        unlicensed = np.zeros((1, 2))
        caps = LinkCapacitySet(c_l_dl=licensed, c_l_ul=licensed * 0.0,
                               c_u_dl=unlicensed, c_u_ul=unlicensed,
                               lte_fraction=1.0)
        agent = QAgent(1, [macro, sbs], tiny_config(), seed=4)
        agent.epsilon = 0.0
        agent.q_table[:] = [0.0, 1.0]
        (taken, _), diag = play_round(agent, {0: (0, 1)}, caps)
        assert taken == 1
        assert diag.target == 0.0
        against_current = game.resolved_utilities(
            game.resolve_conflicts([macro, sbs], [0, 1], caps),
            caps, eta=0.7)[1]
        assert against_current > 0.0  # the discriminating alternative
        assert diag.q_after == pytest.approx(0.94, rel=1e-12)

    def test_unknown_variant_rejected(self):
        space = single_user_space(0, [((1.0,), (0.0,), None, None)])
        with pytest.raises(ValueError, match="unknown Q variant"):
            QAgent(0, [space], tiny_config(), seed=0, variant="sarsa")


# per-algorithm gating ------------------------------------------------------


class TestAlgorithmGating:
    def gated_spaces(self, algorithm):
        macro = macro_space(1, [((0.0,), (0.0,), None, None),
                                ((1.0,), (1.0,), None, None)])
        sbs = single_user_space(1, [
            ((0.0,), (0.0,), (0.0,), (0.0,)),
            ((1.0,), (1.0,), (0.0,), (0.0,)),
            ((1.0,), (0.0,), (0.0,), (0.0,)),
            ((0.0,), (0.0,), (0.5,), (0.0,)),
            ((0.3,), (0.0,), (0.0,), (0.5,)),
        ])
        return algorithm_spaces([macro, sbs], algorithm)

    def test_identity_for_esn_and_decoupled_lteu(self):
        macro = macro_two_action_space()
        sbs = sbs_idle_busy_space()
        for algorithm in ("esn", "q_lteu_decoupled"):
            gated = algorithm_spaces([macro, sbs], algorithm)
            assert gated[0] is macro and gated[1] is sbs

    def test_licensed_only_strips_unlicensed_grants(self):
        macro, sbs = self.gated_spaces("q_lte_decoupled")
        assert len(macro) == 2
        assert len(sbs) == 4  # pure-unlicensed action collapses into idle
        for action in actions_of(sbs):
            assert max(action.kappa) == 0.0 and max(action.tau) == 0.0

    def test_coupled_spaces_never_decouple(self):
        for space in self.gated_spaces("q_lteu_coupled"):
            for action in actions_of(space):
                kappa = action.kappa or (0.0,) * len(action.users)
                tau = action.tau or (0.0,) * len(action.users)
                for i in range(len(action.users)):
                    has_dl = action.d[i] > 0 or kappa[i] > 0
                    has_ul = action.v[i] > 0 or tau[i] > 0
                    assert has_dl == has_ul
        assert len(self.gated_spaces("q_lteu_coupled")[1]) == 3

    def test_capacity_gate(self):
        caps = flat_caps(2, 2, c=3.0, cu=5.0)
        gated = algorithm_capacities(caps, "q_lte_decoupled")
        assert np.array_equal(gated.c_l_dl, caps.c_l_dl)
        assert not gated.c_u_dl.any() and not gated.c_u_ul.any()
        for algorithm in ("esn", "q_lteu_decoupled", "q_lteu_coupled"):
            assert algorithm_capacities(caps, algorithm) is caps
        with pytest.raises(ValueError, match="unknown algorithm"):
            algorithm_capacities(caps, "dqn")

    def test_make_agents_kinds_and_order(self):
        spaces = [macro_two_action_space(), sbs_idle_busy_space()]
        config = tiny_config()
        team = make_agents("esn", spaces, config, seed=1)
        assert [a.bs for a in team] == [0, 1]
        assert all(isinstance(a, EsnAgent) for a in team)
        # one pair of expectation work arrays for the whole team
        assert team[0]._scratch is team[1]._scratch
        team = make_agents("q_lteu_coupled", spaces, config, seed=1)
        assert all(isinstance(a, QAgent) and a.variant == "q_lteu_coupled"
                   for a in team)
        with pytest.raises(ValueError, match="unknown algorithm"):
            make_agents("dqn", spaces, config, seed=1)
