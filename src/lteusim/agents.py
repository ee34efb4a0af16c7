"""Learning agents for the spectrum allocation game.

Two kinds of player: the two-reservoir agent (EsnAgent), which predicts
per-action rewards with one echo state network and their opponent-averaged
expectations with a second, and the table-driven QAgent baselines in three
variants. Both follow the same synchronous round protocol:

  1. ``select_and_broadcast``: epsilon-greedy pick from the stored predictor,
     return (played, advertised best); the caller stacks the pairs into the
     round's broadcast, two index rows with one entry per BS.
  2. ``finish_round``: once both rows are in, take the round's reward (the
     resolved utility of the ``reward_joint`` index row, evaluated by the
     caller), adopt the advertised row as the opponent model, compute the
     remaining targets with the pre-update readouts, apply one readout-row
     (or Q-entry) update, then commit reservoir states. Both kinds return
     one ``StepDiagnostics``: the predictions and targets of the update.
  3. ``observe_outcome``: absorb the played joint's settled fraction block
     (the array ``game.resolve_conflicts`` returns); the agent's own
     association bits, read off its rows of that block, become the next
     round's selection input.

The caller evaluates every reward of a round (``harness.run`` makes one
batched evaluator call), so an agent never scores a joint action itself.
Actions are indices into each BS's ``game.ActionSpace``; the reservoir
agent feeds an opponent's action to alpha as that action's fractions over
the opponent's covered users.

Each invariant is checked once, where its value enters: ``make_agents``
checks that the spaces are in owner order, once per team, and
``finish_round`` that both broadcast rows hold one entry per BS, before
anything is learned. ``reward_joint`` builds its row unchecked, and
``JointEvaluator.batch_utilities`` refuses a row of the wrong width. The
settled block that ``observe_outcome`` reads has passed
``rates.check_grants``' shape check earlier in the same round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import esn
from .game import (EPSILON, ExpectedUtility, epsilon_greedy,
                   restrict_coupled, restrict_licensed_only)
from .scenario import ALGORITHMS

# the rates of beta's readout and the Q tables; alpha's is lambda_alpha
LAMBDA_BETA = 0.06
LAMBDA_Q = 0.06


@dataclass(frozen=True)
class StepDiagnostics:
    """What one ``finish_round`` learned: a prediction from before the
    update and its target. The reservoir agent fills both readouts' pairs.
    A Q baseline reports its entry before the update as ``r_hat_alpha`` and
    its update target as ``e_alpha``; it has no beta readout, so that pair
    stays NaN. These are the four learning columns of ``trace.csv``."""

    r_hat_alpha: float
    e_alpha: float
    r_hat_beta: float = math.nan
    e_beta: float = math.nan


def _encode_space(space):
    """(|A|, 4K) matrix of [d | v | kappa | tau] blocks over covered users."""
    covered = list(space.covered_users)
    return space.fractions[:, :, covered].reshape(len(space), -1)


class EsnAgent:
    """Two-reservoir learner of one BS.

    The alpha network maps the opponents' announced actions to a predicted
    own reward per action; the beta network maps the agent's last resolved
    association pattern to the opponent-averaged expectation of those
    predictions and drives selection. The two readouts answer different
    questions and the broadcast reflects that: the played action is an
    epsilon-greedy draw around beta's robust pick, while the advertised
    best_action is alpha's reply to wherever the opponents last said their
    bests were.
    """

    def __init__(self, bs, spaces, config, seed):
        self.spaces = tuple(spaces)
        self.bs = int(bs)
        self.action_space = self.spaces[self.bs]
        self.epsilon = EPSILON
        self.expectation_budget = int(config.expectation_budget)
        self.opponents = tuple(m for m in range(len(self.spaces)) if m != self.bs)
        # the opponent model: the last advertised row (own entry unread)
        self.opponent_bests = (0,) * len(self.spaces)
        self._laws = None  # the _OpponentLaws of the advertised bests
        self._best_prev = None
        self._pending = None

        streams = np.random.SeedSequence([int(seed), self.bs]).generate_state(3)
        self.rng = np.random.default_rng(int(streams[0]))

        # opponents' actions enter alpha as one concatenated block per
        # opponent, the whole vector scaled by 1/sqrt(width)
        blocks = [_encode_space(self.spaces[m]) for m in self.opponents]
        alpha_dim = int(sum(b.shape[1] for b in blocks))
        scale = 1.0 / math.sqrt(alpha_dim) if alpha_dim else 1.0
        blocks = [b * scale for b in blocks]

        beta_dim = 2 * len(self.action_space.covered_users)
        self._beta_scale = 1.0 / math.sqrt(beta_dim) if beta_dim else 1.0
        # observe_outcome reads this BS's row of each round's settled
        # (4, n_bs, n_users) block at the covered users' columns
        self._covered = np.array(self.action_space.covered_users, dtype=np.intp)

        n_actions = len(self.action_space)
        self.res_alpha, self.ro_alpha = esn.init(
            config.reservoir_units, alpha_dim, n_actions,
            target_radius=config.reservoir_radius, seed=int(streams[1]))
        self.ro_alpha.rate = config.lambda_alpha
        self.res_beta, self.ro_beta = esn.init(
            config.reservoir_units, beta_dim, n_actions,
            target_radius=config.reservoir_radius, seed=int(streams[2]))
        self.ro_beta.rate = LAMBDA_BETA

        # per-action input projections; profile encodings in the expectation
        # then reduce to row gathers instead of matrix products. It reads
        # them stacked, opponent after opponent, as one (sum |A_m|, units)
        # table, and the encodings as one block-diagonal (sum |A_m|,
        # alpha_dim) matrix; a profile is one row index per opponent
        starts = np.cumsum([0] + [len(b) for b in blocks], dtype=np.intp)
        self._phi_stack = np.zeros((starts[-1], config.reservoir_units))
        self._enc_stack = np.zeros((starts[-1], alpha_dim))
        off = 0
        for block, start, stop in zip(blocks, starts, starts[1:]):
            width = block.shape[1]
            self._phi_stack[start:stop] = (
                block @ self.res_alpha.w_in[:, off:off + width].T)
            self._enc_stack[start:stop, off:off + width] = block
            off += width
        self._row_starts = starts[:-1, None]

        self.x_beta = np.ones(beta_dim) * self._beta_scale  # request state

    def profile_input(self, indices):
        """Alpha input vector for one opponent profile, an index row; the
        opponents' rows of ``_enc_stack`` sum exactly, in disjoint columns."""
        picks = np.array([indices[m] for m in self.opponents], dtype=np.intp)
        return self._enc_stack.take(picks + self._row_starts[:, 0],
                                    axis=0).sum(axis=0)


class QAgent:
    """Per-action value learner of one BS.

    One update rule serves every Q baseline: a variant acts only through
    the gated spaces its run hands over (licensed-only actions hold zero
    unlicensed fractions, so they earn nothing from the unlicensed
    capacities). The coupled variant's rewards are coupled-association
    payoffs, because its run scores every joint that way.
    """

    def __init__(self, bs, spaces, config, seed):
        self.spaces = tuple(spaces)
        self.bs = int(bs)
        self.action_space = self.spaces[self.bs]
        self.epsilon = EPSILON
        self.lambda_q = LAMBDA_Q
        self.q_table = np.zeros(len(self.action_space))
        self._pending = None
        streams = np.random.SeedSequence([int(seed), self.bs]).generate_state(1)
        self.rng = np.random.default_rng(int(streams[0]))


# selection and broadcast ---------------------------------------------------


def _scores(agent):
    # a Q agent's scores are its live table: _q_finish reads only the
    # pending action, never these scores
    if isinstance(agent, QAgent):
        return agent.q_table
    return esn.readout_all(agent.ro_beta, agent.res_beta.state, agent.x_beta)


# a challenger must beat the advertised incumbent by this relative margin
# before the broadcast switches; stray LMS jitter between near-tied actions
# otherwise keeps every agent's reply input churning and nothing settles
BEST_SWITCH_MARGIN = 0.06


def _best_reply(agent):
    """Alpha's argmax against the opponents' last announced bests.

    This is the action the reservoir agent advertises: a direct reply to
    where the others say they are. It re-reads the opponents' positions
    every round, so it tracks their moves immediately instead of waiting
    to revisit actions the way a value table must. Switches of the
    advertised action are debounced by BEST_SWITCH_MARGIN.
    """
    x = _opponent_laws(agent).x_best
    mu = esn.peek_state(agent.res_alpha, x)
    values = esn.readout_all(agent.ro_alpha, mu, x)
    best = int(np.argmax(values))
    prev = agent._best_prev
    if prev is not None and prev != best:
        if values[best] <= values[prev] + BEST_SWITCH_MARGIN * abs(values[prev]):
            best = prev
    agent._best_prev = best
    return best


def select_and_broadcast(agent) -> tuple[int, int]:
    """Phase one of a round: pick an action, remember it, and return the
    broadcast pair (played, advertised).

    The action is an epsilon-greedy draw around the stored predictor's peak;
    score ties go to the lowest action index. For the reservoir agent the
    advertised best and the selection peak are different readouts; for the
    table learners they coincide.
    """
    scores = _scores(agent)
    peak = action = int(scores.argmax())
    # argmax with prob 1-eps, uniform with prob eps; realizes the epsilon
    # greedy law (peak gets 1-eps+eps/|A|, everything else eps/|A|)
    if agent.rng.random() < agent.epsilon:
        action = int(agent.rng.integers(len(agent.action_space)))
    best = _best_reply(agent) if isinstance(agent, EsnAgent) else peak
    agent._pending = (action, scores)
    return action, best


def _check_rows(agent, *rows):
    if any(len(row) != len(agent.spaces) for row in rows):
        raise ValueError(f"a broadcast row needs {len(agent.spaces)} "
                         "entries, one per BS")


# learning targets ----------------------------------------------------------


def reward_joint(agent, played, advertised) -> tuple[int, ...]:
    """Index row whose resolved utility is the agent's reward this round.

    ``played`` and ``advertised`` are the round's broadcast rows, one entry
    per BS. The reservoir agent is rewarded for its pending action against
    what the opponents played; the Q baselines score it against the
    opponents' advertised bests. The agent's own entry is its pending
    action either way.
    """
    if agent._pending is None:
        raise RuntimeError("select_and_broadcast must run before reward_joint")
    joint = list(advertised if isinstance(agent, QAgent) else played)
    joint[agent.bs] = agent._pending[0]
    return tuple(joint)


def _cdf_rows(laws):
    """One row per probability array: its normalized CDF, the floats
    ``Generator.choice`` inverts, padded with 1.0 to the longest array."""
    cdfs = np.ones((len(laws), max(map(len, laws), default=0)))
    for row, p in zip(cdfs, laws):
        cdf = p.cumsum()
        cdf /= cdf[-1]
        row[:len(p)] = cdf
    return cdfs


def _inverse_cdf(cdfs, uniforms):
    """``searchsorted(cdfs[j], uniforms[j], side="right")`` for every row j
    at once, bit for bit: the count of CDF entries at or below each
    uniform. A padded 1.0 lies above every uniform in [0, 1), so it is
    never counted."""
    return (cdfs[:, None, :] <= uniforms[:, :, None]).sum(axis=2)


class _OpponentLaws(NamedTuple):
    """What the opponent model fixes until an advertised best moves."""

    bests: tuple       # the opponents' advertised bests, the cache key
    probs: np.ndarray  # the epsilon-greedy laws back to back
    cdfs: np.ndarray   # their _cdf_rows
    phi_mean: np.ndarray  # probs @ _phi_stack: the expected input drive
    x_best: np.ndarray    # alpha's input for the advertised profile


def _opponent_laws(agent) -> _OpponentLaws:
    """The opponent model's epsilon-greedy laws, peaked at the advertised
    bests, with what the agent derives from them alone. ``probs`` follows
    the order of the stacked ``_phi_stack`` rows. Kept while the
    advertised bests stay."""
    bests = tuple(agent.opponent_bests[m] for m in agent.opponents)
    if agent._laws is None or agent._laws.bests != bests:
        laws = [epsilon_greedy(len(agent.spaces[m]), best, agent.epsilon)
                for m, best in zip(agent.opponents, bests)]
        probs = np.concatenate([np.zeros(0), *laws])
        x_best = agent.profile_input(agent.opponent_bests)
        x_best.flags.writeable = False
        agent._laws = _OpponentLaws(bests, probs, _cdf_rows(laws),
                                    probs @ agent._phi_stack, x_best)
    return agent._laws


def beta_expectation(agent, action_i) -> ExpectedUtility:
    """Expectation of alpha's predicted reward for ``action_i`` over the
    opponent model, where opponent m plays the epsilon-greedy law p_m
    peaked at ``agent.opponent_bests[m]``.

    One estimator serves both cases, a control variate (Glasserman, *Monte
    Carlo Methods in Financial Engineering*, 2003, sec. 4.1). With ``w``
    and ``b`` the reservoir part and constant of alpha's row, ``tanh`` is
    linearized at the expected pre-activation ``s_bar = drive + sum_m p_m .
    phi_m``, ``t_bar = tanh(s_bar)``. The linear part, and the readout's
    input part, which is linear already, are taken in exact expectation
    through one ``|A_m|``-vector per opponent, ``g_m = phi_m (w * (1 -
    t_bar**2))`` and ``c_m = enc_m . (input part of the row)``. What is
    left is the curvature residual ``r = w . (tanh(s) - t_bar) - sum_m
    g_m[a_m]`` of each opponent profile:

        value = w . t_bar + b + sum_m p_m . (c_m + g_m) + sum weight * r

    When the joint opponent space fits ``expectation_budget``, every profile
    enters with its product of epsilon-greedy weights, the value is exact
    and ``stderr`` is 0 (no opponents: the one empty profile). Otherwise
    ``budget`` drawn profiles enter with weight 1/budget, and ``stderr =
    std(r, ddof=1) / sqrt(budget)`` is the standard error of that residual
    mean; it is 0 when the row's reservoir part is.

    The draws, and the generator state after them, equal one
    ``rng.choice(|A_m|, size=budget, p=p_m)`` per opponent in order: one
    (opponents, budget) block holds those calls' uniforms back to back, and
    ``_inverse_cdf`` inverts each against its opponent's CDF.
    """
    sizes = [len(agent.spaces[m]) for m in agent.opponents]
    budget, n_profiles = agent.expectation_budget, math.prod(sizes)
    laws = _opponent_laws(agent)
    probs = laws.probs
    exact = n_profiles <= budget
    # each profile as one row index of the stacked tables per opponent
    if exact:
        picks = np.indices(sizes).reshape(len(sizes), n_profiles)
    else:
        picks = _inverse_cdf(laws.cdfs,
                             agent.rng.random((len(sizes), budget)))
    picks += agent._row_starts
    phi = agent._phi_stack
    row = agent.ro_alpha.w_out[action_i]
    n = agent.res_alpha.n_units
    w = row[:n]
    drive = agent.res_alpha.drive
    t_bar = np.tanh(drive + laws.phi_mean)
    g = phi @ (w * (1.0 - t_bar * t_bar))
    c = agent._enc_stack @ row[n:-1]
    linear = w @ t_bar
    states = phi.take(picks, axis=0).sum(axis=0)
    states += drive
    np.tanh(states, out=states)
    residual = states @ w
    residual -= linear
    residual -= g.take(picks).sum(axis=0)
    control = linear + row[-1] + probs @ (c + g)
    if exact:
        weights = probs.take(picks).prod(axis=0)
        return ExpectedUtility(value=float(control + weights @ residual),
                               stderr=0.0, exact=True)
    mean = residual.sum() / budget
    residual -= mean
    variance = residual @ residual / (budget - 1)
    return ExpectedUtility(value=float(control + mean),
                           stderr=math.sqrt(variance / budget), exact=False)


# round completion ----------------------------------------------------------


def _esn_finish(agent, action, scores, played, advertised, e_alpha):
    agent.opponent_bests = tuple(advertised)

    # both targets and both predictions use the readouts and states as they
    # stood at selection time; training and state commits come after
    e_beta = beta_expectation(agent, action).value
    x_alpha = agent.profile_input(played)
    mu_alpha = esn.peek_state(agent.res_alpha, x_alpha)
    r_hat_beta = float(scores[action])

    r_hat_alpha = esn.train_step(agent.ro_alpha, mu_alpha, x_alpha, action,
                                 e_alpha)
    esn.train_step(agent.ro_beta, agent.res_beta.state, agent.x_beta, action,
                   e_beta)
    agent.res_alpha.state = mu_alpha
    esn.update_state(agent.res_beta, agent.x_beta)
    return StepDiagnostics(r_hat_alpha=r_hat_alpha, e_alpha=e_alpha,
                           r_hat_beta=r_hat_beta, e_beta=e_beta)


def _q_finish(agent, action, target):
    q_before = float(agent.q_table[action])
    agent.q_table[action] = (1.0 - agent.lambda_q) * q_before \
        + agent.lambda_q * target
    return StepDiagnostics(r_hat_alpha=q_before, e_alpha=target)


def finish_round(agent, played, advertised, reward):
    """Phase two of a round. ``reward`` is the agent's resolved utility on
    its ``reward_joint`` row: the reservoir agent's alpha target, the Q
    baselines' update target. ``played`` and ``advertised`` are the round's
    broadcast rows, one entry per BS (any other length is refused before
    anything is learned); the reservoir agent feeds the played row to alpha
    and keeps the advertised row as its opponent model."""
    if agent._pending is None:
        raise RuntimeError("select_and_broadcast must run before finish_round")
    _check_rows(agent, played, advertised)
    reward = float(reward)
    action, scores = agent._pending
    agent._pending = None
    if isinstance(agent, QAgent):
        return _q_finish(agent, action, reward)
    return _esn_finish(agent, action, scores, played, advertised, reward)


def observe_outcome(agent, settled):
    """Absorb the played joint's settled (4, n_bs, n_users) fraction block
    ``[d, v, kappa, tau]``. For the reservoir agent the own-association bits
    (served DL per covered user, then served UL) become the next round's
    beta input: a direction is served when the agent's licensed or
    unlicensed fraction for it is positive. The Q baselines keep no such
    state."""
    if not isinstance(agent, EsnAgent):
        return
    # (2 band, 2 direction, k): [[d, v], [kappa, tau]] of the own rows
    own = settled[:, agent.bs].take(agent._covered, axis=1).reshape(2, 2, -1)
    served = (own[0] > 0) | (own[1] > 0)
    agent.x_beta = served.ravel() * agent._beta_scale


# per-algorithm gating ------------------------------------------------------


def algorithm_spaces(spaces, algorithm):
    """Action spaces after the named algorithm's structural gate."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if algorithm == "q_lte_decoupled":
        return tuple(restrict_licensed_only(s) for s in spaces)
    if algorithm == "q_lteu_coupled":
        return tuple(restrict_coupled(s) for s in spaces)
    return tuple(spaces)


def make_agents(algorithm, spaces, config, seed):
    """One agent per BS over already-gated spaces, listed in owner order;
    agent n plays ``spaces[n]``."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    spaces = tuple(spaces)
    if any(space.owner != n for n, space in enumerate(spaces)):
        raise ValueError("spaces must be listed in owner order")
    kind = EsnAgent if algorithm == "esn" else QAgent
    return [kind(n, spaces, config, seed) for n in range(len(spaces))]
