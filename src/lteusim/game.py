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
from dataclasses import InitVar, dataclass, field

import numpy as np

from .rates import LinkCapacitySet, _stack_dense

DEFAULT_ETA = 0.7  # unlicensed-DL utility discount


# ---------------------------------------------------------------------------
# actions and action spaces


@dataclass(frozen=True)
class AllocationAction:
    """One BS's allocation over its covered users.

    ``users`` lists the covered user ids; the fraction tuples run parallel
    to it. ``kappa``/``tau`` are None for the macro cell, which has no
    unlicensed radio. Dense length-n_users views are precomputed for fast
    joint evaluation: the rows of one read-only (4, n_users) block
    ``[d, v, kappa, tau]``. A caller that already holds that block, such
    as ``resolve_conflicts``, hands it in as ``dense`` and the tuples are
    not scattered again; it must hold the same floats as the tuples.
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
    dense: InitVar[np.ndarray | None] = None

    def __post_init__(self, dense):
        k = len(self.users)
        if len(self.d) != k or len(self.v) != k:
            raise ValueError("fraction vectors must match the covered-user count")
        for part in (self.kappa, self.tau):
            if part is not None and len(part) != k:
                raise ValueError("fraction vectors must match the covered-user count")
        if (self.kappa is None) != (self.tau is None):
            raise ValueError("kappa and tau must be both present or both absent")
        if dense is None:
            dense = np.zeros((4, self.n_users))
            idx = np.asarray(self.users, dtype=int)
            for row, values in zip(dense, self.key):
                if values is not None and k:
                    row[idx] = values
        elif dense.shape != (4, self.n_users):
            raise ValueError("the dense block must have shape (4, n_users)")
        dense = dense.view()
        dense.flags.writeable = False
        for name, row in zip(("d_dense", "v_dense", "kappa_dense", "tau_dense"),
                             dense):
            object.__setattr__(self, name, row)

    @property
    def key(self):
        return (self.d, self.v, self.kappa, self.tau)

    def replace_fractions(self, d, v, kappa, tau, dense=None) -> "AllocationAction":
        return AllocationAction(owner=self.owner, users=self.users,
                                n_users=self.n_users, d=d, v=v,
                                kappa=kappa, tau=tau, dense=dense)


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


_DIRECTIONS = np.arange(2)[:, None]  # [DL, UL] rows of a (2, n_users) pick


def _offers(frac, caps: LinkCapacitySet):
    """Per-direction offers of a ``[[d, v], [kappa, tau]]`` fraction block
    of shape (2, 2, n_bs, n_users).

    Returns the (2, n_bs, n_users) active grants ``[DL, UL]`` and the
    (2, n_users) best offering BS per direction and user: the largest
    fraction-weighted capacity, licensed plus raw unlicensed, over the
    active grants; exact ties go to the lower BS index (argmax picks the
    first maximum).
    """
    active = (frac[0] > 0) | (frac[1] > 0)
    product = frac * caps.block
    offer = np.where(active, product[0] + product[1], -1.0)
    return active, offer.argmax(axis=1)


def _resolve_block(frac, caps: LinkCapacitySet) -> np.ndarray:
    """Zero out losing grants, per user and direction, of a (2, 2, n_bs,
    n_users) fraction block; the best offer keeps its grant."""
    active, pick = _offers(frac, caps)
    keep = np.zeros(active.shape, dtype=bool)
    keep[_DIRECTIONS, pick, np.arange(frac.shape[-1])] = active.any(axis=1)
    return np.where(keep, frac, 0.0)


def _couple_block(frac, caps: LinkCapacitySet) -> np.ndarray:
    """Classic single-BS association of a (2, 2, n_bs, n_users) fraction
    block: each user keeps grants from exactly one BS, both directions.

    The serving BS is the one with the best downlink offer (same
    fraction-weighted capacities as the per-direction rule, ties to the
    lower index); a user with no downlink offer anywhere falls back to the
    best uplink offer. Grants at every other BS are zeroed, so the output
    never splits a user across cells.
    """
    active, pick = _offers(frac, caps)
    served = active.any(axis=1)
    serving = np.where(served[0], pick[0], pick[1])
    keep = np.zeros(active.shape[1:], dtype=bool)
    keep[serving, np.arange(frac.shape[-1])] = served[0] | served[1]
    return np.where(keep, frac, 0.0)


def _settle(joint, caps: LinkCapacitySet, coupled: bool) -> np.ndarray:
    """The joint's settled (2, 2, n_bs, n_users) ``[[d, v], [kappa, tau]]``
    fraction block."""
    block = _stack_dense(joint)
    frac = block.reshape(2, 2, *block.shape[1:])
    return (_couple_block if coupled else _resolve_block)(frac, caps)


def resolve_conflicts(joint, caps: LinkCapacitySet, coupled: bool = False):
    """Settle overlapping grants; returns a new per-BS action list.

    ``coupled=True`` switches from the per-direction rule to classic
    association: each user is collapsed onto a single serving BS and its
    uplink follows its downlink. The resolved actions' dense views are
    rows of the settled block.
    """
    settled = _settle(joint, caps, coupled)
    settled = settled.reshape(4, *settled.shape[2:])
    settled.flags.writeable = False
    resolved = []
    for n, action in enumerate(joint):
        d, v, kp, tp = map(tuple, settled[:, n, action.users].tolist())
        unlicensed = action.kappa is not None
        resolved.append(action.replace_fractions(
            d, v, kp if unlicensed else None, tp if unlicensed else None,
            dense=settled[:, n]))
    return resolved


def resolved_utilities(joint, caps: LinkCapacitySet,
                       eta: float = DEFAULT_ETA,
                       coupled: bool = False) -> np.ndarray:
    """Per-BS utilities after conflict resolution (the payoffs the game is
    actually played over)."""
    settled = _settle(joint, caps, coupled)
    discount = np.array([eta, 1.0])[:, None, None]
    # per direction: log2(1 + licensed rate + discounted unlicensed rate)
    gain = np.log2(1.0 + settled[0] * caps.block[0]
                   + discount * settled[1] * caps.block[1])
    per_direction = gain.sum(axis=2)
    return per_direction[0] + per_direction[1]


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
        # (2, 2, 1, n_bs, n_users): broadcast over the batch axis
        self._caps = caps.block[:, :, None]
        # per direction [DL, UL]: only unlicensed DL is discounted
        self._discount = np.array([eta, 1.0])[:, None, None, None]

    def batch_utilities(self, index_matrix) -> np.ndarray:
        """(S, n_bs) joint index rows -> (S, n_bs) resolved utilities."""
        idx = np.atleast_2d(np.asarray(index_matrix, dtype=int))
        if idx.ndim != 2 or idx.shape[1] != self.n_bs:
            raise ValueError(f"joint rows must have {self.n_bs} indices")
        # an index past a smaller space would read its zero padding
        if ((idx < 0) | (idx >= self.sizes)).any():
            raise IndexError("action index outside its BS's action space")
        # (2 band, 2 direction, S, n_bs, n_users): [[d, v], [kappa, tau]]
        frac = self._tables[:, self._bs, idx].reshape(
            2, 2, *idx.shape, self._tables.shape[-1])
        caps = self._caps
        active = (frac[0] > 0) | (frac[1] > 0)
        product = frac * caps
        pick = np.where(active, product[0] + product[1], -1.0).argmax(axis=2)
        rows = np.arange(idx.shape[0])[:, None]
        cols = np.arange(frac.shape[-1])[None, :]
        if self.coupled:
            served = active.any(axis=2)
            serving = np.where(served[0], pick[0], pick[1])
            keep = np.zeros(active.shape[1:], dtype=bool)
            keep[rows, serving, cols] = served[0] | served[1]
        else:
            keep = np.zeros(active.shape, dtype=bool)
            keep[_DIRECTIONS[:, None], rows, pick, cols] = active.any(axis=2)
        settled = np.where(keep, frac, 0.0)
        gain = np.log2(1.0 + settled[0] * caps[0]
                       + self._discount * settled[1] * caps[1])
        per_direction = gain.sum(axis=3)
        return per_direction[0] + per_direction[1]

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

