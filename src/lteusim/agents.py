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
     (or Q-entry) update, then commit reservoir states.
  3. ``observe_outcome``: absorb the played joint's settled fraction block
     (the array ``game.resolve_conflicts`` returns); the agent's own
     association bits, read off its rows of that block, become the next
     round's selection input.

The caller evaluates every reward of a round (``harness.run`` makes one
batched evaluator call), so an agent never scores a joint action itself.
Actions are indices into each BS's ``game.ActionSpace``; the reservoir
agent feeds an opponent's action to alpha as that action's fractions over
the opponent's covered users.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import esn
from .game import (ExpectedUtility, _epsilon_greedy, restrict_coupled,
                   restrict_licensed_only)
from .scenario import ALGORITHMS

Q_VARIANTS = tuple(a for a in ALGORITHMS if a.startswith("q_"))


@dataclass(frozen=True)
class StepDiagnostics:
    r_hat_alpha: float
    e_alpha: float
    r_hat_beta: float
    e_beta: float


@dataclass(frozen=True)
class QDiagnostics:
    q_before: float
    target: float
    q_after: float


def _check_spaces(bs, spaces):
    spaces = tuple(spaces)
    if not 0 <= bs < len(spaces):
        raise ValueError("bs index outside the player list")
    for n, space in enumerate(spaces):
        if space.owner != n:
            raise ValueError("spaces must be listed in owner order")
    return spaces


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

    def __init__(self, bs, spaces, config, seed, scratch=None):
        self.spaces = _check_spaces(bs, spaces)
        self.bs = int(bs)
        self.action_space = self.spaces[self.bs]
        self.epsilon = float(config.epsilon)
        self.expectation_budget = int(config.expectation_budget)
        self.opponents = tuple(m for m in range(len(self.spaces)) if m != self.bs)
        # the opponent model: the last advertised row (own entry unread)
        self.opponent_bests = (0,) * len(self.spaces)
        self._profile_tables = _ProfileTables()
        self._best_prev = None
        self._pending = None

        streams = np.random.SeedSequence([int(seed), self.bs]).generate_state(3)
        self.rng = np.random.default_rng(int(streams[0]))

        # opponents' actions enter alpha as one concatenated block per
        # opponent, the whole vector scaled by 1/sqrt(width)
        blocks = [_encode_space(self.spaces[m]) for m in self.opponents]
        self.alpha_dim = int(sum(b.shape[1] for b in blocks))
        scale = 1.0 / math.sqrt(self.alpha_dim) if self.alpha_dim else 1.0
        self._enc = {m: b * scale for m, b in zip(self.opponents, blocks)}

        k = len(self.action_space.covered_users)
        self.beta_dim = 2 * k
        self._beta_scale = 1.0 / math.sqrt(self.beta_dim) if self.beta_dim else 1.0
        # observe_outcome reads this BS's row of each round's settled
        # (4, n_bs, n_users) block at the covered users' columns
        self._settled_shape = (4, len(self.spaces), self.action_space.n_users)
        self._covered = np.array(self.action_space.covered_users, dtype=np.intp)

        n_actions = len(self.action_space)
        self.res_alpha, self.ro_alpha = esn.init(
            config.reservoir_units, self.alpha_dim, n_actions,
            density=config.reservoir_density,
            target_radius=config.reservoir_radius, seed=int(streams[1]),
            input_scale=config.reservoir_input_scale)
        self.ro_alpha.rate = config.lambda_alpha
        self.res_beta, self.ro_beta = esn.init(
            config.reservoir_units, self.beta_dim, n_actions,
            density=config.reservoir_density,
            target_radius=config.reservoir_radius, seed=int(streams[2]),
            input_scale=config.reservoir_input_scale)
        self.ro_beta.rate = config.lambda_beta

        # per-action input projections; profile encodings in the expectation
        # then reduce to row gathers instead of matrix products
        self._phi = {}
        off = 0
        for m in self.opponents:
            width = self._enc[m].shape[1]
            self._phi[m] = self._enc[m] @ self.res_alpha.w_in[:, off:off + width].T
            off += width

        self.x_beta = np.ones(self.beta_dim) * self._beta_scale  # request state

        # (2, rows, reservoir units) work arrays of beta_expectation, made on
        # first use when None. They are overwritten on every call, so agents
        # that never run at the same time can share them (make_agents gives a
        # team one pair); reuse spares the allocator fresh pages every call.
        self._scratch = scratch

    def profile_input(self, indices):
        """Alpha input vector for one opponent profile, an index row."""
        if not self.opponents:
            return np.zeros(0)
        return np.concatenate([self._enc[m][indices[m]] for m in self.opponents])


class QAgent:
    """Per-action value learner of one BS.

    ``variant`` names the capacity/action-space gating the surrounding run
    applies; the update rule itself is identical across variants. The
    coupled variant's rewards are coupled-association payoffs, because its
    run scores every joint that way.
    """

    def __init__(self, bs, spaces, config, seed, variant="q_lteu_decoupled"):
        if variant not in Q_VARIANTS:
            raise ValueError(f"unknown Q variant {variant!r}")
        self.spaces = _check_spaces(bs, spaces)
        self.bs = int(bs)
        self.action_space = self.spaces[self.bs]
        self.epsilon = float(config.epsilon)
        self.lambda_q = float(config.lambda_q)
        self.variant = variant
        self.q_table = np.zeros(len(self.action_space))
        self._pending = None
        streams = np.random.SeedSequence([int(seed), self.bs]).generate_state(1)
        self.rng = np.random.default_rng(int(streams[0]))


# selection and broadcast ---------------------------------------------------


def _scores(agent):
    if isinstance(agent, QAgent):
        return np.array(agent.q_table)
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
    x = agent.profile_input(agent.opponent_bests)
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
    _check_rows(agent, played, advertised)
    joint = list(advertised if isinstance(agent, QAgent) else played)
    joint[agent.bs] = agent._pending[0]
    return tuple(joint)


def _alpha_predictions(agent, combos, action_i):
    """Alpha readout of one action over candidate states, one per opponent
    profile: ``combos`` holds one row of action indices per opponent
    (agent.opponents order) and one column per profile.

    States branch from the current committed state; nothing here mutates
    the reservoir.
    """
    base = agent.res_alpha.drive
    rows, scratch = combos.shape[1], agent._scratch
    if (scratch is None or scratch.shape[1] < rows
            or scratch.shape[2] != base.size):
        scratch = agent._scratch = np.empty((2, rows, base.size))
    states, gathered = scratch[:, :rows]
    if agent.opponents:
        # pre-activations add up as ((base + phi_1) + phi_2) + ..., so
        # gathering the first term from base + phi_1 (|A| rows) gives the
        # same floats as adding base to every profile's phi_1 row; the
        # indices are in range, and "clip" lets take write to out unbuffered
        first, *rest = agent.opponents
        np.take(base + agent._phi[first], combos[0], axis=0, out=states,
                mode="clip")
        for j, m in enumerate(rest, 1):
            np.take(agent._phi[m], combos[j], axis=0, out=gathered,
                    mode="clip")
            states += gathered
    else:
        states[:] = base  # the one empty profile
    np.tanh(states, out=states)
    row = agent.ro_alpha.w_out[action_i]
    n = agent.res_alpha.n_units
    values = states @ row[:n] + row[-1]
    off = n
    for j, m in enumerate(agent.opponents):
        width = agent._enc[m].shape[1]
        values += (agent._enc[m] @ row[off:off + width])[combos[j]]
        off += width
    return values


# caps a guide row at 4096 cells; tinier probabilities only cost a few more
# comparisons per uniform (epsilon-greedy desk rows need 64 cells)
_MAX_GUIDE_BITS = 12


def _guide_row(p):
    """Inversion table of one probability array: ``(cdf, guide, cells,
    width)``.

    ``cdf`` is the normalized CDF with the floats ``Generator.choice``
    inverts. The unit interval is cut into ``cells`` equal cells, a power
    of two, so ``u * cells`` is exact and its floor is the cell that holds
    ``u``. ``guide[c]`` counts the CDF entries <= c / cells: every one of
    them is <= any ``u`` in cell c. ``width`` is the most entries any cell
    holds strictly inside it, so ``width`` comparisons from ``guide[c]``
    reach the count of entries <= ``u``. Cells are about as narrow as the
    smallest positive probability, which keeps ``width`` near 1.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    bits = math.ceil(-math.log2(p[p > 0].min()))
    cells = 1 << min(max(bits, 0), _MAX_GUIDE_BITS)
    edges = np.arange(cells + 1) / cells
    guide = cdf.searchsorted(edges[:-1], side="right")
    width = int((cdf.searchsorted(edges[1:], side="left") - guide).max())
    return cdf, guide, cells, width


class _ProfileTables:
    """Guide rows of one agent's opponent model, stacked for the sampled
    expectation: opponent m's row inverts the epsilon-greedy law peaked at
    its advertised best.

    A row is built once per ``(opponent, best)`` and kept for the agent's
    life (``agent.epsilon`` is fixed after construction, like a reservoir's
    ``w``); the stacked table is kept while the advertised bests stay.
    """

    def __init__(self):
        self._rows = {}
        self._bests = None
        self._table = None

    def table(self, agent):
        bests = tuple(agent.opponent_bests[m] for m in agent.opponents)
        if bests != self._bests:
            keys = list(zip(agent.opponents, bests))
            for m, best in keys:
                if (m, best) not in self._rows:
                    self._rows[m, best] = _guide_row(_epsilon_greedy(
                        len(agent.spaces[m]), best, agent.epsilon))
            self._bests = bests
            self._table = _stack_rows([self._rows[key] for key in keys])
        return self._table


def _stack_rows(rows):
    """One flat CDF and one flat guide over every row; guide entries index
    the flat CDF."""
    cdfs, guides, cells, widths = zip(*rows)
    cdf_start = np.cumsum([0] + [len(c) for c in cdfs[:-1]])
    guide_start = np.cumsum([0] + list(cells[:-1]))
    cdf = np.concatenate(cdfs)
    guide = np.concatenate([g + s for g, s in zip(guides, cdf_start)])
    scale = np.array(cells, dtype=float)[:, None]
    return (cdf, guide, scale, guide_start[:, None], cdf_start[:, None],
            max(widths))


def _invert(table, uniforms):
    """``searchsorted(cdf_j, uniforms[j], side="right")`` for every row j of
    a stacked table at once, bit for bit.

    Every CDF ends at exactly 1.0 and each uniform lies in [0, 1), so no
    comparison reads past the end of its own row.
    """
    cdf, guide, scale, guide_start, cdf_start, width = table
    index = (uniforms * scale).astype(np.intp)
    index += guide_start
    index = guide.take(index)
    for _ in range(width):
        index += cdf.take(index) <= uniforms
    index -= cdf_start
    return index


def beta_expectation(agent, action_i) -> ExpectedUtility:
    """Expectation of alpha's predicted reward for ``action_i`` over the
    opponent model, where opponent m plays the epsilon-greedy law peaked at
    ``agent.opponent_bests[m]``: exact enumeration when the joint opponent
    space fits the budget, else a Monte-Carlo average over that many
    profile draws.

    The draws, and the generator state after them, equal one
    ``rng.choice(|A_m|, size=budget, p=p_m)`` per opponent in order: one
    (opponents, budget) block holds those calls' uniforms back to back, and
    guide tables (Chen and Asau, 1974; ``_guide_row``) invert them.
    """
    sizes = [len(agent.spaces[m]) for m in agent.opponents]
    budget, n_profiles = agent.expectation_budget, math.prod(sizes)
    if n_profiles <= budget:
        # no opponents: one empty profile
        combos = np.indices(sizes).reshape(len(sizes), n_profiles)
        weights = np.ones(combos.shape[1])
        for j, m in enumerate(agent.opponents):
            p = _epsilon_greedy(sizes[j], agent.opponent_bests[m],
                                agent.epsilon)
            weights *= p[combos[j]]
        values = _alpha_predictions(agent, combos, action_i)
        return ExpectedUtility(value=float(weights @ values), stderr=0.0,
                               exact=True)
    uniforms = agent.rng.random((len(sizes), budget))
    combos = _invert(agent._profile_tables.table(agent), uniforms)
    values = _alpha_predictions(agent, combos, action_i)
    # numpy's mean and std(ddof=1), in its operation order, in one pass
    mean = values.sum() / budget
    deviations = values - mean
    np.square(deviations, out=deviations)
    std = math.sqrt(deviations.sum() / (budget - 1))
    return ExpectedUtility(value=float(mean), stderr=std / math.sqrt(budget),
                           exact=False)


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
    return QDiagnostics(q_before=q_before, target=target,
                        q_after=float(agent.q_table[action]))


def finish_round(agent, played, advertised, reward):
    """Phase two of a round. ``reward`` is the agent's resolved utility on
    its ``reward_joint`` row: the reservoir agent's alpha target, the Q
    baselines' update target. ``played`` and ``advertised`` are the round's
    broadcast rows, one entry per BS; the reservoir agent feeds the played
    row to alpha and keeps the advertised row as its opponent model."""
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
    if settled.shape != agent._settled_shape:
        raise ValueError(f"settled block must have shape {agent._settled_shape}")
    # (2 band, 2 direction, k): [[d, v], [kappa, tau]] of the own rows
    own = settled[:, agent.bs, agent._covered].reshape(2, 2, -1)
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


def algorithm_capacities(caps, algorithm):
    """Capacity set after the named algorithm's band gate."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if algorithm == "q_lte_decoupled":
        return caps.without_unlicensed()
    return caps


def make_agents(algorithm, spaces, config, seed):
    """One agent per BS over already-gated spaces."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if algorithm == "esn":
        scratch = np.empty((2, config.expectation_budget,
                            config.reservoir_units))
        return [EsnAgent(n, spaces, config, seed, scratch=scratch)
                for n in range(len(spaces))]
    return [QAgent(n, spaces, config, seed, variant=algorithm)
            for n in range(len(spaces))]
