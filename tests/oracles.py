"""Per-action reference code for the array-based action spaces of
``lteusim.game``.

``Action`` is a plain view of one action as per-covered-user tuples, with
builders to and from ``ActionSpace``. ``validate_space_oracle`` checks a
space's fractions against the feasibility rules, per action and in
floats, independently of the integer check in ``enumerate_actions``.
``sample_grid_vector_oracle`` is the stars-and-bars draw as one
``Generator.choice`` call per vector, and ``sampled_units_oracle`` is the
one-action-at-a-time loop over it that ``game._sampled_units`` replaced
with batches of bounded draws, bit for bit. The per-action loops that
``restrict_coupled`` and ``restrict_licensed_only`` replaced are kept
here as oracles for them, and so are the per-batch
arithmetic that ``JointEvaluator``'s per-action tables replaced and the
plain and the control-variate Monte-Carlo estimators of the agents' beta
expectation. ``expected_utility_oracle`` is the scalar loop behind
``verify_mixed_ne``'s payoff tables. ``converged_at_oracle`` is the window
rule that ``harness.run``'s running counts replaced.
``recurrent_matrix`` is the dense matrix that an ``esn.Reservoir``'s
shifted drive stands for.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np

from lteusim import game
from lteusim.game import ActionSpace, resolve_conflicts, resolved_utilities

# the unlicensed-DL utility discount the unit tests score with
ETA = game.ETA


class Violation(NamedTuple):
    """First failed feasibility constraint of an action."""

    constraint: str  # quantization | licensed_dl_budget | licensed_ul_budget
    #                | unlicensed_budget
    detail: str


class Action(NamedTuple):
    """One BS's allocation over its covered users; the fraction tuples run
    parallel to ``users``. ``kappa``/``tau`` are None for the macro cell,
    which has no unlicensed radio."""

    owner: int
    users: tuple
    n_users: int
    d: tuple
    v: tuple
    kappa: tuple | None
    tau: tuple | None

    @property
    def key(self):
        return (self.d, self.v, self.kappa, self.tau)

    def dense(self) -> np.ndarray:
        """(4, n_users) rows ``[d, v, kappa, tau]``, zero off the covered
        users and in a macro action's unlicensed rows."""
        block = np.zeros((4, self.n_users))
        for row, values in zip(block, self.key):
            if values is not None:
                row[list(self.users)] = values
        return block


def make_action(owner, users, n_users, d, v, kappa=None, tau=None) -> Action:
    to_tuple = lambda vec: None if vec is None else tuple(float(x) for x in vec)
    return Action(owner=int(owner), users=tuple(int(u) for u in users),
                  n_users=int(n_users), d=to_tuple(d), v=to_tuple(v),
                  kappa=to_tuple(kappa), tau=to_tuple(tau))


def space_of(actions) -> ActionSpace:
    """The space holding ``actions`` in order; they share the owner and
    covered users of the first."""
    first = actions[0]
    return ActionSpace(owner=first.owner, covered_users=first.users,
                       fractions=np.stack([a.dense() for a in actions]))


def action_at(space: ActionSpace, i: int) -> Action:
    """Action i of ``space`` as an ``Action``."""
    users = space.covered_users
    d, v, kappa, tau = map(tuple, space.fractions[i][:, list(users)].tolist())
    if space.owner == 0:
        kappa = tau = None
    return Action(owner=space.owner, users=users, n_users=space.n_users,
                  d=d, v=v, kappa=kappa, tau=tau)


def actions_of(space: ActionSpace) -> list:
    return [action_at(space, i) for i in range(len(space))]


def settle(joint, caps, coupled: bool = False) -> np.ndarray:
    """``resolve_conflicts`` of a joint given as one ``Action`` per BS."""
    return resolve_conflicts([space_of([a]) for a in joint], [0] * len(joint),
                             caps, coupled=coupled)


def point_mass(space: ActionSpace, index: int) -> np.ndarray:
    """The pure strategy ``index`` of ``space`` as a probability vector."""
    probs = np.zeros(len(space))
    probs[index] = 1.0
    return probs


def best_swap(report):
    """``(bs, action, gain)`` of the most profitable pure swap in a
    ``verify_mixed_ne`` report: the largest ``max(expected_by_action[n]) -
    expected_current[n]``, the first BS on ties. ``bs`` and ``action`` are
    None, and ``gain`` is 0.0, when no swap gains."""
    best = (None, None, 0.0)
    for n, (table, current) in enumerate(zip(report.expected_by_action,
                                             report.expected_current)):
        i = int(np.argmax(table))
        if table[i] - current > best[2]:
            best = (n, i, table[i] - current)
    return best


# per-action oracles ----------------------------------------------------------


def validate_action(action: Action, z_levels: int):
    """None when feasible, otherwise the first violated constraint."""
    parts = [action.d, action.v]
    if action.kappa is not None:
        parts += [action.kappa, action.tau]
    for vec in parts:
        for value in vec:
            scaled = value * z_levels
            if not 0.0 <= value <= 1.0 or abs(scaled - round(scaled)) > 1e-9:
                return Violation("quantization",
                                 f"{value!r} is not an i/{z_levels} level")
    if sum(action.d) > 1.0 + 1e-9:
        return Violation("licensed_dl_budget", f"sum(d) = {sum(action.d)!r}")
    if sum(action.v) > 1.0 + 1e-9:
        return Violation("licensed_ul_budget", f"sum(v) = {sum(action.v)!r}")
    if action.kappa is not None:
        total = sum(action.kappa) + sum(action.tau)
        if total > 1.0 + 1e-9:
            return Violation("unlicensed_budget", f"sum(kappa)+sum(tau) = {total!r}")
    return None


def validate_space_oracle(space: ActionSpace, z_levels: int):
    """``(i, violation)`` of the first infeasible action, or None."""
    for i, action in enumerate(actions_of(space)):
        violation = validate_action(action, z_levels)
        if violation is not None:
            return i, violation
    return None


def sample_grid_vector_oracle(rng, k: int, z: int):
    """The stars-and-bars draw with ``np.sort`` and ``np.diff``: k bars
    among z + k slots from one ``Generator.choice`` call, each entry the
    gap before its bar."""
    bars = np.sort(rng.choice(z + k, size=k, replace=False))
    return tuple(int(gap) - 1 for gap in np.diff(bars, prepend=-1))


def sampled_units_oracle(k: int, z: int, unlicensed: bool, cap: int,
                         seed: int):
    """``game._sampled_units`` as a loop of one action per attempt, each
    vector from its own ``sample_grid_vector_oracle`` call. Returns the
    units and the generator's state after the last draw."""
    rng = np.random.default_rng(seed)
    idle = (0,) * (2 * k)
    even = tuple(game._even_units(k, z))
    both = tuple(game._even_units(2 * k, z)) if unlicensed else idle
    seeds = [(0,) * (4 * k), even + even + both]
    one_hot = lambda pos, units: tuple(units if i == pos else 0
                                       for i in range(k))
    for pos in range(k):
        band = (one_hot(pos, z // 2) + one_hot(pos, z - z // 2) if unlicensed
                else idle)
        seeds.append(one_hot(pos, z) + one_hot(pos, z) + band)
    kept = {}
    for units in seeds:
        if len(kept) < cap:
            kept.setdefault(units)
    attempts = 0
    while len(kept) < cap:
        attempts += 1
        if attempts > 1000 * cap:
            raise RuntimeError("action sampling failed to find enough "
                               "distinct feasible actions")
        d = sample_grid_vector_oracle(rng, k, z)
        v = sample_grid_vector_oracle(rng, k, z)
        kept.setdefault(d + v + (sample_grid_vector_oracle(rng, 2 * k, z)
                                 if unlicensed else idle))
    return list(kept), rng.bit_generator.state


def _dedupe(actions) -> list:
    kept, seen = [], set()
    for action in actions:
        if action.key not in seen:
            seen.add(action.key)
            kept.append(action)
    return kept


def restrict_licensed_only_oracle(space: ActionSpace) -> list:
    projected = []
    for action in actions_of(space):
        if action.kappa is None:
            projected.append(action)
            continue
        zeros = (0.0,) * len(action.users)
        projected.append(action._replace(kappa=zeros, tau=zeros))
    return _dedupe(projected)


def restrict_coupled_oracle(space: ActionSpace) -> list:
    projected = []
    for action in actions_of(space):
        k = len(action.users)
        kappa = action.kappa if action.kappa is not None else (0.0,) * k
        tau = action.tau if action.tau is not None else (0.0,) * k
        d, v = list(action.d), list(action.v)
        kp, tp = list(kappa), list(tau)
        for i in range(k):
            has_dl = d[i] > 0 or kp[i] > 0
            has_ul = v[i] > 0 or tp[i] > 0
            if has_dl != has_ul:
                d[i] = v[i] = kp[i] = tp[i] = 0.0
        projected.append(action._replace(
            d=tuple(d), v=tuple(v),
            kappa=None if action.kappa is None else tuple(kp),
            tau=None if action.tau is None else tuple(tp)))
    return _dedupe(projected)


# evaluator oracle ------------------------------------------------------------


def batch_utilities_oracle(spaces, caps, index_matrix, coupled=False):
    """``JointEvaluator.batch_utilities`` with the fraction-weighted
    capacities recomputed for every batch: gather the joints' fractions,
    weight them by the capacities, settle, and take the log-sum of the
    kept fractions' rates."""
    idx = np.atleast_2d(np.asarray(index_matrix, dtype=int))
    n_bs, n_users = len(spaces), caps.n_users
    # (2 band, 2 direction, S, n_bs, n_users): [[d, v], [kappa, tau]]
    frac = np.stack([space.fractions[idx[:, n]] for n, space
                     in enumerate(spaces)], axis=1)
    frac = frac.transpose(2, 0, 1, 3).reshape(2, 2, len(idx), n_bs, n_users)
    block = caps.block[:, :, None]
    active = (frac[0] > 0) | (frac[1] > 0)
    product = frac * block
    pick = np.where(active, product[0] + product[1], -1.0).argmax(
        axis=2, keepdims=True)
    bs = np.arange(n_bs)[:, None]
    if coupled:
        served = active.any(axis=2, keepdims=True)
        serving = np.where(served[0], pick[0], pick[1])
        keep = (served[0] | served[1]) & (bs == serving)
    else:
        keep = active & (bs == pick)
    settled = np.where(keep, frac, 0.0)
    discount = np.array([ETA, 1.0])[:, None, None, None]
    gain = np.log2(1.0 + settled[0] * block[0]
                   + discount * settled[1] * block[1])
    per_direction = gain.sum(axis=3)
    return per_direction[0] + per_direction[1]


# expected utility oracle -----------------------------------------------------


def expected_utility_oracle(n, action_i, spaces, profile, caps):
    """Expected resolved utility of BS n playing its action ``action_i``
    against the opponents' mixed strategies, ``profile[m]`` a probability
    vector over ``spaces[m]``, one opponent joint at a time: each joint is
    settled and scored on its own and weighted by the opponents'
    probabilities."""
    opponents = [m for m in range(len(profile)) if m != n]
    total = 0.0
    for combo in itertools.product(*(range(len(spaces[m]))
                                     for m in opponents)):
        weight = math.prod(profile[m][i]
                           for m, i in zip(opponents, combo))
        if weight == 0.0:
            continue
        joint = list(combo)
        joint.insert(n, action_i)
        settled = resolve_conflicts(spaces, joint, caps)
        total += weight * float(resolved_utilities(settled, caps)[n])
    return total


# beta expectation oracles ----------------------------------------------------


def epsilon_greedy(size, best, epsilon):
    p = np.full(size, epsilon / size)
    p[best] += 1.0 - epsilon
    return p


def opponent_laws(agent):
    """The opponents' epsilon-greedy arrays of an ``EsnAgent``, by the plain
    formula, in ``agent.opponents`` order."""
    return [epsilon_greedy(len(agent.spaces[m]), agent.opponent_bests[m],
                           agent.epsilon) for m in agent.opponents]


def choice_stack(rng, probs, budget):
    """Reference sampler: one ``Generator.choice`` call per probability
    array, in order, stacked one row per array."""
    return np.stack([rng.choice(len(p), size=budget, p=p) for p in probs])


def _opponent_block(agent, m, a):
    """Opponent m's action a as ``[d | v | kappa | tau]`` over its covered
    users, unscaled; kappa and tau are zero at the macro cell."""
    action = action_at(agent.spaces[m], a)
    k = len(action.users)
    block = np.zeros(4 * k)
    block[:k] = action.d
    block[k:2 * k] = action.v
    if action.kappa is not None:
        block[2 * k:3 * k] = action.kappa
        block[3 * k:4 * k] = action.tau
    return block


def alpha_input(blocks):
    """Alpha's input from one block per opponent: their concatenation over
    the square root of its width."""
    x = np.concatenate(blocks)
    return x / math.sqrt(x.size)


def recurrent_matrix(reservoir):
    """The cycle reservoir's (n_units, n_units) recurrent matrix: ``radius``
    at row i, column i - 1, the last column for row 0."""
    return reservoir.radius * np.roll(np.eye(reservoir.n_units), 1, axis=0)


def naive_predictions(agent, profiles, action_i):
    """Alpha's prediction for ``action_i`` against each opponent profile, a
    column of ``profiles`` (one row of action indices per opponent), by the
    plain formula w . tanh(W mu + W_in x) + v . x + b."""
    reservoir = agent.res_alpha
    tables = [np.stack([_opponent_block(agent, m, a)
                        for a in range(len(agent.spaces[m]))])
              for m in agent.opponents]
    x = np.hstack([t[row] for t, row in zip(tables, np.asarray(profiles))])
    x /= math.sqrt(x.shape[1])
    mu = np.tanh(recurrent_matrix(reservoir) @ reservoir.state
                 + x @ reservoir.w_in.T)
    z = np.hstack([mu, x, np.ones((len(x), 1))])
    return z @ agent.ro_alpha.w_out[action_i]


def plain_expectation(agent, action_i, rng, budget):
    """``(mean, stderr)`` of alpha's prediction over ``budget`` profiles
    drawn from the opponent model: the plain Monte-Carlo estimator."""
    values = naive_predictions(
        agent, choice_stack(rng, opponent_laws(agent), budget), action_i)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(budget))


def control_variate_expectation(agent, action_i, rng, budget):
    """``(value, stderr)`` of the control-variate estimator, by an explicit
    linearization: alpha's prediction is expanded to first order in the
    input around its expectation x_bar,

        L(x) = w . t_bar + (w * (1 - t_bar**2)) . W_in (x - x_bar) + v . x + b,

    with t_bar = tanh(W mu + W_in x_bar). E[L] is exact; the residual
    prediction(x) - L(x) is averaged over ``budget`` profiles drawn from
    the opponent model."""
    laws = opponent_laws(agent)
    x_bar = alpha_input([
        sum(p[a] * _opponent_block(agent, m, a) for a in range(len(p)))
        for m, p in zip(agent.opponents, laws)])
    reservoir = agent.res_alpha
    row = agent.ro_alpha.w_out[action_i]
    n = reservoir.n_units
    w, v, b = row[:n], row[n:-1], row[-1]
    t_bar = np.tanh(recurrent_matrix(reservoir) @ reservoir.state
                    + reservoir.w_in @ x_bar)
    slope = w * (1.0 - t_bar ** 2)

    profiles = choice_stack(rng, laws, budget)
    residual = naive_predictions(agent, profiles, action_i)
    for k, column in enumerate(profiles.T):
        x = alpha_input([_opponent_block(agent, m, a)
                                for m, a in zip(agent.opponents, column)])
        residual[k] -= (w @ t_bar + slope @ (reservoir.w_in @ (x - x_bar))
                        + v @ x + b)
    value = w @ t_bar + v @ x_bar + b + residual.mean()
    return float(value), float(residual.std(ddof=1) / math.sqrt(budget))


# convergence oracle ----------------------------------------------------------


def converged_at_oracle(records, sizes, window, tol):
    """The round at which ``harness.run`` stops, or None, by the window rule
    read off the run's records: from the round at which every BS has played
    each of its ``sizes`` actions once (the window is cleared there), keep
    the last ``window`` rounds' ``(greedy_total, association)`` pairs. The
    run stops at the first round where the window is full, its totals lie
    within ``tol * max(1, |mean|)`` of each other and every association
    equals the first."""
    visits = [np.zeros(size, dtype=int) for size in sizes]
    armed = False
    pairs = []
    for record in records:
        for n, action_i in enumerate(record.joint_action):
            visits[n][action_i] += 1
        if not armed and all((v > 0).all() for v in visits):
            armed = True
            pairs = []
        pairs = (pairs + [(record.greedy_total, record.association)])[-window:]
        if armed and len(pairs) == window:
            totals = [total for total, _ in pairs]
            mean = sum(totals) / len(totals)
            stable_reward = (max(totals) - min(totals)
                             <= tol * max(1.0, abs(mean)))
            if stable_reward and all(a == pairs[0][1] for _, a in pairs):
                return record.t
    return None
