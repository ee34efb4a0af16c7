"""The resource-allocation game between base stations.

Each BS owns a quantized set of allocation actions over the users it
covers: licensed DL/UL fractions for everyone, plus unlicensed DL/UL
fractions for small cells. Utilities are proportional-fair style sums of
log2(1 + allocated rate). Two BSs may both try to serve a user; the
conflict is resolved per user and direction in favor of the better offer,
and every game-theoretic quantity here (expected utility, equilibrium
checks) is defined on the conflict-resolved outcome.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .rates import LinkCapacitySet

DEFAULT_ETA = 0.7  # unlicensed-DL utility discount


# ---------------------------------------------------------------------------
# actions and action spaces


@dataclass(frozen=True)
class AllocationAction:
    """One BS's allocation over its covered users.

    ``users`` lists the covered user ids; the fraction tuples run parallel
    to it. ``kappa``/``tau`` are None for the macro cell, which has no
    unlicensed radio. Dense length-n_users views are precomputed for fast
    joint evaluation.
    """

    owner: int
    users: tuple[int, ...]
    n_users: int
    d: tuple[float, ...]
    v: tuple[float, ...]
    kappa: tuple[float, ...] | None
    tau: tuple[float, ...] | None
    d_dense: np.ndarray = field(init=False, repr=False, compare=False)
    v_dense: np.ndarray = field(init=False, repr=False, compare=False)
    kappa_dense: np.ndarray = field(init=False, repr=False, compare=False)
    tau_dense: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = len(self.users)
        if len(self.d) != k or len(self.v) != k:
            raise ValueError("fraction vectors must match the covered-user count")
        for part in (self.kappa, self.tau):
            if part is not None and len(part) != k:
                raise ValueError("fraction vectors must match the covered-user count")
        if (self.kappa is None) != (self.tau is None):
            raise ValueError("kappa and tau must be both present or both absent")
        idx = np.asarray(self.users, dtype=int)
        for name, values in (("d_dense", self.d), ("v_dense", self.v),
                             ("kappa_dense", self.kappa), ("tau_dense", self.tau)):
            dense = np.zeros(self.n_users)
            if values is not None and k:
                dense[idx] = values
            dense.flags.writeable = False
            object.__setattr__(self, name, dense)

    @property
    def key(self):
        return (self.d, self.v, self.kappa, self.tau)

    def replace_fractions(self, d, v, kappa, tau) -> "AllocationAction":
        return AllocationAction(owner=self.owner, users=self.users,
                                n_users=self.n_users, d=d, v=v,
                                kappa=kappa, tau=tau)


def make_action(owner, users, n_users, d, v, kappa=None, tau=None):
    to_tuple = lambda vec: None if vec is None else tuple(float(x) for x in vec)
    return AllocationAction(owner=int(owner), users=tuple(int(u) for u in users),
                            n_users=int(n_users), d=to_tuple(d), v=to_tuple(v),
                            kappa=to_tuple(kappa), tau=to_tuple(tau))


@dataclass(frozen=True)
class Violation:
    """First failed feasibility constraint of an action."""

    constraint: str  # quantization | licensed_dl_budget | licensed_ul_budget
    #                | unlicensed_budget
    detail: str


def validate_action(action: AllocationAction, z_levels: int):
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


@dataclass(frozen=True)
class ActionSpace:
    """Ordered, duplicate-free action list of one BS, with stacked dense
    fraction matrices (|A|, n_users) for vectorized evaluation."""

    owner: int
    actions: tuple[AllocationAction, ...]
    generation_seed: int
    d_rows: np.ndarray = field(init=False, repr=False, compare=False)
    v_rows: np.ndarray = field(init=False, repr=False, compare=False)
    kappa_rows: np.ndarray = field(init=False, repr=False, compare=False)
    tau_rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.actions:
            raise ValueError("an action space cannot be empty")
        keys = [a.key for a in self.actions]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate actions in the space")
        if any(a.owner != self.owner for a in self.actions):
            raise ValueError("all actions must belong to the owning BS")
        for name, attr in (("d_rows", "d_dense"), ("v_rows", "v_dense"),
                           ("kappa_rows", "kappa_dense"), ("tau_rows", "tau_dense")):
            rows = np.vstack([getattr(a, attr) for a in self.actions])
            rows.flags.writeable = False
            object.__setattr__(self, name, rows)

    def __len__(self):
        return len(self.actions)

    @property
    def n_users(self) -> int:
        return self.actions[0].n_users

    @property
    def covered_users(self) -> tuple[int, ...]:
        return self.actions[0].users


def feasible_count(n_covered: int, z_levels: int, unlicensed: bool) -> int:
    """Size of the full feasible grid for one BS."""
    licensed = math.comb(n_covered + z_levels, n_covered) ** 2
    if not unlicensed:
        return licensed
    return licensed * math.comb(2 * n_covered + z_levels, 2 * n_covered)


def _grid_vectors(k: int, z: int):
    """All length-k integer vectors with entries in 0..z and sum <= z."""
    if k == 0:
        yield ()
        return
    for head in range(z + 1):
        for tail in _grid_vectors(k - 1, z - head):
            yield (head,) + tail


def _sample_grid_vector(rng, k: int, z: int):
    """Uniform draw from the sum<=z grid via a stars-and-bars bijection."""
    if k == 0:
        return ()
    bars = np.sort(rng.choice(z + k, size=k, replace=False))
    prev = -1
    parts = []
    for b in bars:
        parts.append(int(b) - prev - 1)
        prev = int(b)
    return tuple(parts)


def _even_units(k: int, z: int):
    """Spread z grid units over k cells as evenly as the grid allows."""
    base, rem = divmod(z, k)
    return [base + (1 if i < rem else 0) for i in range(k)]


def _even_spread_seed(owner, users, n_users, z, unlicensed):
    k = len(users)
    shared = [u / z for u in _even_units(k, z)]
    kappa = tau = None
    if unlicensed:
        both = _even_units(2 * k, z)
        kappa = [u / z for u in both[:k]]
        tau = [u / z for u in both[k:]]
    return make_action(owner, users, n_users, shared, shared, kappa, tau)


def _full_band_seed(owner, users, n_users, target_pos, z, unlicensed):
    k = len(users)
    one_hot = lambda value: tuple(value if i == target_pos else 0.0
                                  for i in range(k))
    kappa = tau = None
    if unlicensed:
        kappa = one_hot((z // 2) / z)
        tau = one_hot(math.ceil(z / 2) / z)
    return make_action(owner, users, n_users, one_hot(1.0), one_hot(1.0),
                       kappa, tau)


def enumerate_actions(bs: int, topology, config, seed: int) -> ActionSpace:
    """Build the action set of one BS.

    The full feasible grid is enumerated when it fits the configured cap;
    otherwise the space holds the all-zero action, an even split across
    the covered users, one "whole band to user j" action per covered
    user, and uniform draws from the grid up to the cap, deduplicated,
    in a seed-deterministic order.
    """
    users = topology.covered_users[bs]
    n_users = topology.n_users
    z = config.z_levels
    unlicensed = bs != 0
    k = len(users)
    cap = config.action_set_size

    if feasible_count(k, z, unlicensed) <= cap:
        actions = []
        for d_vec in _grid_vectors(k, z):
            for v_vec in _grid_vectors(k, z):
                if not unlicensed:
                    actions.append(make_action(
                        bs, users, n_users,
                        [x / z for x in d_vec], [x / z for x in v_vec]))
                    continue
                for uv in _grid_vectors(2 * k, z):
                    actions.append(make_action(
                        bs, users, n_users,
                        [x / z for x in d_vec], [x / z for x in v_vec],
                        [x / z for x in uv[:k]], [x / z for x in uv[k:]]))
        return ActionSpace(owner=bs, actions=tuple(actions), generation_seed=seed)

    rng = np.random.default_rng(seed)
    zeros = (0.0,) * k
    actions = [make_action(bs, users, n_users, zeros, zeros,
                           zeros if unlicensed else None,
                           zeros if unlicensed else None)]
    seen = {actions[0].key}
    spread = _even_spread_seed(bs, users, n_users, z, unlicensed)
    if spread.key not in seen and len(actions) < cap:
        seen.add(spread.key)
        actions.append(spread)
    for pos in range(k):
        if len(actions) >= cap:
            break
        seed_action = _full_band_seed(bs, users, n_users, pos, z, unlicensed)
        if seed_action.key not in seen:
            seen.add(seed_action.key)
            actions.append(seed_action)
    attempts = 0
    while len(actions) < cap:
        attempts += 1
        if attempts > 1000 * cap:
            raise RuntimeError("action sampling failed to find enough "
                               "distinct feasible actions")
        d_vec = _sample_grid_vector(rng, k, z)
        v_vec = _sample_grid_vector(rng, k, z)
        kappa = tau = None
        if unlicensed:
            uv = _sample_grid_vector(rng, 2 * k, z)
            kappa, tau = uv[:k], uv[k:]
        candidate = make_action(
            bs, users, n_users,
            [x / z for x in d_vec], [x / z for x in v_vec],
            None if kappa is None else [x / z for x in kappa],
            None if tau is None else [x / z for x in tau])
        if candidate.key in seen:
            continue
        seen.add(candidate.key)
        actions.append(candidate)
    return ActionSpace(owner=bs, actions=tuple(actions), generation_seed=seed)


def _dedupe(space: ActionSpace, actions) -> ActionSpace:
    kept, seen = [], set()
    for action in actions:
        if action.key not in seen:
            seen.add(action.key)
            kept.append(action)
    return ActionSpace(owner=space.owner, actions=tuple(kept),
                       generation_seed=space.generation_seed)


def restrict_licensed_only(space: ActionSpace) -> ActionSpace:
    """Project every action to the licensed bands (kappa = tau = 0)."""
    projected = []
    for action in space.actions:
        if action.kappa is None:
            projected.append(action)
            continue
        zeros = (0.0,) * len(action.users)
        projected.append(action.replace_fractions(action.d, action.v,
                                                  zeros, zeros))
    return _dedupe(space, projected)


def restrict_coupled(space: ActionSpace) -> ActionSpace:
    """Force single-BS association: a user granted only one direction loses
    that grant, so every surviving grant pairs DL and UL at the same BS."""
    projected = []
    for action in space.actions:
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
        projected.append(action.replace_fractions(
            tuple(d), tuple(v),
            None if action.kappa is None else tuple(kp),
            None if action.tau is None else tuple(tp)))
    return _dedupe(space, projected)


# ---------------------------------------------------------------------------
# utilities and conflict resolution


def _stack_dense(joint):
    d = np.vstack([a.d_dense for a in joint])
    v = np.vstack([a.v_dense for a in joint])
    kp = np.vstack([a.kappa_dense for a in joint])
    tp = np.vstack([a.tau_dense for a in joint])
    return d, v, kp, tp


def _resolve_dense(d, v, kp, tp, caps: LinkCapacitySet):
    """Zero out losing grants, per user and direction, in dense form.

    The winner is the BS whose grant buys the user the most rate; exact
    ties go to the lower BS index (argmax picks the first maximum).
    """
    n_users = d.shape[1]
    cols = np.arange(n_users)

    def settle(frac_a, frac_b, cap_a, cap_b):
        active = (frac_a > 0) | (frac_b > 0)
        offer = frac_a * cap_a.T + frac_b * cap_b.T
        winner = np.where(active, offer, -1.0).argmax(axis=0)
        keep = np.zeros_like(active)
        keep[winner, cols] = active.any(axis=0)
        return np.where(keep, frac_a, 0.0), np.where(keep, frac_b, 0.0)

    d2, kp2 = settle(d, kp, caps.c_l_dl, caps.c_u_dl)
    v2, tp2 = settle(v, tp, caps.c_l_ul, caps.c_u_ul)
    return d2, v2, kp2, tp2


def _couple_dense(d, v, kp, tp, caps: LinkCapacitySet):
    """Classic single-BS association in dense form: each user keeps grants
    from exactly one BS, both directions.

    The serving BS is the one with the best downlink offer (same
    fraction-weighted capacities as the per-direction rule, ties to the
    lower index); a user with no downlink offer anywhere falls back to the
    best uplink offer. Grants at every other BS are zeroed, so the output
    never splits a user across cells.
    """
    n_users = d.shape[1]
    cols = np.arange(n_users)
    dl_active = (d > 0) | (kp > 0)
    ul_active = (v > 0) | (tp > 0)
    dl_offer = d * caps.c_l_dl.T + kp * caps.c_u_dl.T
    ul_offer = v * caps.c_l_ul.T + tp * caps.c_u_ul.T
    dl_pick = np.where(dl_active, dl_offer, -1.0).argmax(axis=0)
    ul_pick = np.where(ul_active, ul_offer, -1.0).argmax(axis=0)
    serving = np.where(dl_active.any(axis=0), dl_pick, ul_pick)
    keep = np.zeros_like(dl_active)
    keep[serving, cols] = dl_active.any(axis=0) | ul_active.any(axis=0)
    return tuple(np.where(keep, x, 0.0) for x in (d, v, kp, tp))


def _dense_utilities(d, v, kp, tp, caps: LinkCapacitySet, eta: float):
    dl = np.log2(1.0 + d * caps.c_l_dl.T + eta * kp * caps.c_u_dl.T)
    ul = np.log2(1.0 + v * caps.c_l_ul.T + tp * caps.c_u_ul.T)
    return dl.sum(axis=1) + ul.sum(axis=1)


def sbs_utility(n: int, joint, caps: LinkCapacitySet,
                eta: float = DEFAULT_ETA) -> float:
    """Log-sum utility of small cell n under an already-settled joint action."""
    if n == 0:
        raise ValueError("BS 0 is the macro cell; use mbs_utility")
    action = joint[n]
    total = 0.0
    kappa = action.kappa if action.kappa is not None else (0.0,) * len(action.users)
    tau = action.tau if action.tau is not None else (0.0,) * len(action.users)
    for pos, user in enumerate(action.users):
        total += math.log2(1.0 + action.d[pos] * caps.c_l_dl[user, n]
                           + eta * kappa[pos] * caps.c_u_dl[user, n])
        total += math.log2(1.0 + action.v[pos] * caps.c_l_ul[user, n]
                           + tau[pos] * caps.c_u_ul[user, n])
    return total


def mbs_utility(joint, caps: LinkCapacitySet) -> float:
    """Licensed-only log-sum utility of the macro cell."""
    action = joint[0]
    total = 0.0
    for pos, user in enumerate(action.users):
        total += math.log2(1.0 + action.d[pos] * caps.c_l_dl[user, 0])
        total += math.log2(1.0 + action.v[pos] * caps.c_l_ul[user, 0])
    return total


def joint_utilities(joint, caps: LinkCapacitySet,
                    eta: float = DEFAULT_ETA) -> np.ndarray:
    """Per-BS utility vector of a joint action taken at face value."""
    return _dense_utilities(*_stack_dense(joint), caps, eta)


def resolve_conflicts(joint, caps: LinkCapacitySet, coupled: bool = False):
    """Settle overlapping grants; returns a new per-BS action list.

    ``coupled=True`` switches from the per-direction rule to classic
    association: each user is collapsed onto a single serving BS and its
    uplink follows its downlink.
    """
    dense = _stack_dense(joint)
    if coupled:
        d, v, kp, tp = _couple_dense(*dense, caps)
    else:
        d, v, kp, tp = _resolve_dense(*dense, caps)
    resolved = []
    for n, action in enumerate(joint):
        idx = np.asarray(action.users, dtype=int)
        pick = lambda dense: tuple(dense[n, idx].tolist())
        resolved.append(action.replace_fractions(
            pick(d), pick(v),
            None if action.kappa is None else pick(kp),
            None if action.tau is None else pick(tp)))
    return resolved


def resolved_utilities(joint, caps: LinkCapacitySet,
                       eta: float = DEFAULT_ETA,
                       coupled: bool = False) -> np.ndarray:
    """Per-BS utilities after conflict resolution (the payoffs the game is
    actually played over)."""
    raw = _stack_dense(joint)
    dense = _couple_dense(*raw, caps) if coupled else _resolve_dense(*raw, caps)
    return _dense_utilities(*dense, caps, eta)


class JointEvaluator:
    """Vectorized resolved-utility evaluation over index-coded joints.

    Stacks every space's fraction matrices once into one zero-padded
    (4, n_bs, max |A|, n_users) table; evaluating a batch of S joints is
    then one fancy-index gather plus array arithmetic, so per-round
    learning loops never touch Python-level action objects.
    """

    def __init__(self, spaces, caps: LinkCapacitySet, eta: float = DEFAULT_ETA,
                 coupled: bool = False):
        self.spaces = tuple(spaces)
        self.caps = caps
        self.eta = eta
        self.coupled = coupled
        self.n_bs = len(self.spaces)
        self.sizes = np.array([len(s) for s in self.spaces], dtype=int)
        self._tables = np.zeros((4, self.n_bs, int(self.sizes.max()),
                                 self.spaces[0].n_users))
        for n, space in enumerate(self.spaces):
            for k, rows in enumerate((space.d_rows, space.v_rows,
                                      space.kappa_rows, space.tau_rows)):
                self._tables[k, n, :len(space)] = rows
        self._bs = np.arange(self.n_bs)

    def batch_utilities(self, index_matrix) -> np.ndarray:
        """(S, n_bs) joint index rows -> (S, n_bs) resolved utilities."""
        idx = np.atleast_2d(np.asarray(index_matrix, dtype=int))
        if idx.ndim != 2 or idx.shape[1] != self.n_bs:
            raise ValueError(f"joint rows must have {self.n_bs} indices")
        # an index past a smaller space would read its zero padding
        if ((idx < 0) | (idx >= self.sizes)).any():
            raise IndexError("action index outside its BS's action space")
        d, v, kp, tp = self._tables[:, self._bs, idx]
        caps = self.caps
        cols = np.arange(d.shape[2])
        rows = np.arange(idx.shape[0])[:, None]

        def settle(frac_a, frac_b, cap_a, cap_b):
            active = (frac_a > 0) | (frac_b > 0)
            offer = frac_a * cap_a.T[None] + frac_b * cap_b.T[None]
            winner = np.where(active, offer, -1.0).argmax(axis=1)
            keep = np.zeros_like(active)
            keep[rows, winner, cols[None, :]] = active.any(axis=1)
            return np.where(keep, frac_a, 0.0), np.where(keep, frac_b, 0.0)

        if self.coupled:
            dl_active = (d > 0) | (kp > 0)
            ul_active = (v > 0) | (tp > 0)
            dl_offer = d * caps.c_l_dl.T[None] + kp * caps.c_u_dl.T[None]
            ul_offer = v * caps.c_l_ul.T[None] + tp * caps.c_u_ul.T[None]
            dl_pick = np.where(dl_active, dl_offer, -1.0).argmax(axis=1)
            ul_pick = np.where(ul_active, ul_offer, -1.0).argmax(axis=1)
            serving = np.where(dl_active.any(axis=1), dl_pick, ul_pick)
            keep = np.zeros_like(dl_active)
            keep[rows, serving, cols[None, :]] = (dl_active.any(axis=1)
                                                 | ul_active.any(axis=1))
            d2, v2, kp2, tp2 = (np.where(keep, x, 0.0)
                                for x in (d, v, kp, tp))
        else:
            d2, kp2 = settle(d, kp, caps.c_l_dl, caps.c_u_dl)
            v2, tp2 = settle(v, tp, caps.c_l_ul, caps.c_u_ul)
        dl = np.log2(1.0 + d2 * caps.c_l_dl.T[None] + self.eta * kp2 * caps.c_u_dl.T[None])
        ul = np.log2(1.0 + v2 * caps.c_l_ul.T[None] + tp2 * caps.c_u_ul.T[None])
        return dl.sum(axis=2) + ul.sum(axis=2)

    def utilities(self, indices) -> np.ndarray:
        return self.batch_utilities(np.asarray(indices)[None, :])[0]

    def utility_of(self, n: int, indices) -> float:
        return float(self.utilities(indices)[n])


# ---------------------------------------------------------------------------
# mixed strategies, expected utility, equilibrium check


@dataclass(frozen=True)
class MixedStrategy:
    """Probability vector over one BS's action space."""

    space: ActionSpace
    probs: tuple[float, ...]

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if len(probs) != len(self.space):
            raise ValueError("strategy length must match the action space")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        object.__setattr__(self, "probs", tuple(float(p) for p in probs))

    @classmethod
    def point_mass(cls, space: ActionSpace, index: int) -> "MixedStrategy":
        probs = [0.0] * len(space)
        probs[index] = 1.0
        return cls(space=space, probs=tuple(probs))

    @classmethod
    def epsilon_greedy(cls, space: ActionSpace, best_index: int,
                       epsilon: float) -> "MixedStrategy":
        share = epsilon / len(space)
        probs = [share] * len(space)
        probs[best_index] += 1.0 - epsilon
        return cls(space=space, probs=tuple(probs))

    def sample(self, rng) -> int:
        return int(rng.choice(len(self.probs), p=np.asarray(self.probs)))


@dataclass(frozen=True)
class ExpectedUtility:
    value: float
    stderr: float  # 0 under exact enumeration
    exact: bool


def expected_utility(n: int, action_i: int, strategies, caps: LinkCapacitySet,
                     sample_budget: int | None = None, eta: float = DEFAULT_ETA,
                     seed: int = 0) -> ExpectedUtility:
    """Expected resolved utility of BS n playing its action ``action_i``
    against the opponents' mixed strategies.

    Enumerates the opponents' joint space exactly while it is no larger
    than ``sample_budget`` (always, when the budget is None); otherwise
    Monte-Carlo with ``sample_budget`` seeded draws and a standard error.
    """
    spaces = [s.space for s in strategies]
    evaluator = JointEvaluator(spaces, caps, eta)
    opponents = [m for m in range(len(strategies)) if m != n]
    joint_size = math.prod(len(spaces[m]) for m in opponents)

    if sample_budget is None or joint_size <= sample_budget:
        total = 0.0
        for combo in itertools.product(*(range(len(spaces[m]))
                                         for m in opponents)):
            weight = math.prod(strategies[m].probs[i]
                               for m, i in zip(opponents, combo))
            if weight == 0.0:
                continue
            indices = np.empty(len(strategies), dtype=int)
            indices[n] = action_i
            for m, i in zip(opponents, combo):
                indices[m] = i
            total += weight * evaluator.utility_of(n, indices)
        return ExpectedUtility(value=total, stderr=0.0, exact=True)

    rng = np.random.default_rng(seed)
    draws = np.empty((sample_budget, len(strategies)), dtype=int)
    draws[:, n] = action_i
    for m in opponents:
        probs = np.asarray(strategies[m].probs)
        draws[:, m] = rng.choice(len(probs), size=sample_budget, p=probs)
    values = evaluator.batch_utilities(draws)[:, n]
    stderr = float(values.std(ddof=1) / math.sqrt(sample_budget))
    return ExpectedUtility(value=float(values.mean()), stderr=stderr, exact=False)


@dataclass(frozen=True)
class NeReport:
    """Outcome of the mixed-equilibrium check.

    ``expected_by_action[n][i]`` is BS n's expected utility when it swaps
    its whole strategy for pure action i, opponents unchanged; linearity
    in the own strategy makes checking pure swaps sufficient.
    """

    ok: bool
    tolerance: float
    expected_current: tuple[float, ...]
    expected_by_action: tuple[tuple[float, ...], ...]
    best_bs: int | None
    best_action: int | None
    best_gain: float


def verify_mixed_ne(profile, caps: LinkCapacitySet, tolerance: float,
                    eta: float = DEFAULT_ETA,
                    enumeration_cap: int = 500_000) -> NeReport:
    """Check a mixed profile for approximate-equilibrium by full enumeration."""
    spaces = [s.space for s in profile]
    n_bs = len(spaces)
    sizes = [len(s) for s in spaces]
    joint_size = math.prod(sizes)
    if joint_size * n_bs > enumeration_cap:
        raise ValueError(
            f"instance too large for exact verification: {joint_size} joints "
            f"x {n_bs} players exceeds the cap of {enumeration_cap}")

    evaluator = JointEvaluator(spaces, caps, eta)
    combos = np.array(list(itertools.product(*(range(k) for k in sizes))),
                      dtype=int)
    payoffs = evaluator.batch_utilities(combos)  # (J, n_bs)
    prob_vectors = [np.asarray(s.probs) for s in profile]
    tables = []
    for n in range(n_bs):
        # weight each joint by the opponents' probabilities only, so that
        # pure actions outside the own support still get a correct entry
        opp_weight = np.ones(len(combos))
        for m in range(n_bs):
            if m != n:
                opp_weight = opp_weight * prob_vectors[m][combos[:, m]]
        table = np.zeros(sizes[n])
        np.add.at(table, combos[:, n], opp_weight * payoffs[:, n])
        tables.append(table)

    current = [float(np.dot(prob_vectors[n], tables[n])) for n in range(n_bs)]
    best_bs = best_action = None
    best_gain = 0.0
    for n in range(n_bs):
        i = int(np.argmax(tables[n]))
        gain = float(tables[n][i] - current[n])
        if gain > best_gain:
            best_bs, best_action, best_gain = n, i, gain
    ok = best_gain <= tolerance
    return NeReport(ok=ok, tolerance=tolerance,
                    expected_current=tuple(current),
                    expected_by_action=tuple(tuple(map(float, t)) for t in tables),
                    best_bs=None if ok else best_bs,
                    best_action=None if ok else best_action,
                    best_gain=best_gain)


# ---------------------------------------------------------------------------
# small-game text export


def export_small_game(spaces, caps: LinkCapacitySet, path,
                      eta: float = DEFAULT_ETA,
                      enumeration_cap: int = 500_000) -> None:
    """Write the resolved-payoff tensor in a plain text form readable by
    external solvers: a header, then one line per joint action holding the
    action indices and every BS's payoff."""
    sizes = [len(s) for s in spaces]
    if math.prod(sizes) > enumeration_cap:
        raise ValueError("game too large to export exhaustively")
    evaluator = JointEvaluator(spaces, caps, eta)
    combos = np.array(list(itertools.product(*(range(k) for k in sizes))),
                      dtype=int)
    payoffs = evaluator.batch_utilities(combos)
    lines = [f"players {len(sizes)}",
             "actions " + " ".join(str(k) for k in sizes)]
    for combo, row in zip(combos, payoffs):
        lines.append(" ".join(str(i) for i in combo) + " "
                     + " ".join(format(u, ".17g") for u in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_small_game(path):
    """Inverse of export_small_game: (sizes, payoff array of shape
    (*sizes, players))."""
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    n_players = int(lines[0].split()[1])
    sizes = [int(tok) for tok in lines[1].split()[1:]]
    if len(sizes) != n_players:
        raise ValueError("header is inconsistent")
    payoffs = np.zeros((*sizes, n_players))
    for line in lines[2:]:
        tokens = line.split()
        combo = tuple(int(tok) for tok in tokens[:n_players])
        payoffs[combo] = [float(tok) for tok in tokens[n_players:]]
    return sizes, payoffs
