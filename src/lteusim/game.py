"""The resource-allocation game between base stations.

Each BS owns a quantized set of allocation actions over the users it
covers: licensed DL/UL fractions for everyone, plus unlicensed DL/UL
fractions for small cells. A space holds its actions as one array, and
everything else names an action by its index: a joint action is an index
row with one entry per BS. Utilities are proportional-fair style sums of
log2(1 + allocated rate). Two BSs may both try to serve a user; the
conflict is resolved per user and direction in favor of the better offer,
and every game-theoretic quantity here (expected utility, equilibrium
checks) is defined on the conflict-resolved outcome.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .rates import LinkCapacitySet

DEFAULT_ETA = 0.7  # unlicensed-DL utility discount

# most joints (times players, in verify_mixed_ne) an exhaustive pass takes
_ENUMERATION_CAP = 500_000


# ---------------------------------------------------------------------------
# actions and action spaces


@dataclass(frozen=True)
class Violation:
    """First failed feasibility constraint of an action."""

    constraint: str  # quantization | licensed_dl_budget | licensed_ul_budget
    #                | unlicensed_budget
    detail: str


def _first_occurrences(fractions) -> list[int]:
    """Index of each distinct action's first occurrence, in order; actions
    are keyed on their bytes."""
    first = {}
    for i, action in enumerate(fractions):
        first.setdefault(action.tobytes(), i)
    return list(first.values())


@dataclass(frozen=True, eq=False)
class ActionSpace:
    """Ordered, duplicate-free action set of one BS.

    ``fractions`` is a read-only (|A|, 4, n_users) array: action i is
    ``fractions[i]``, whose rows ``[d, v, kappa, tau]`` hold the licensed
    DL/UL and unlicensed DL/UL fraction of every user. An action is zero
    off ``covered_users``, and in the unlicensed rows of the macro cell
    (BS 0), which has no unlicensed radio.
    """

    owner: int
    covered_users: tuple[int, ...]
    fractions: np.ndarray

    def __post_init__(self):
        fractions = np.array(self.fractions, dtype=float)
        if fractions.ndim != 3 or fractions.shape[1] != 4:
            raise ValueError("fractions must have shape (|A|, 4, n_users)")
        if not len(fractions):
            raise ValueError("an action space cannot be empty")
        if len(_first_occurrences(fractions)) != len(fractions):
            raise ValueError("duplicate actions in the space")
        covered = tuple(int(u) for u in self.covered_users)
        if np.delete(fractions, covered, axis=2).any():
            raise ValueError("an action grants a user its BS does not cover")
        if self.owner == 0 and fractions[:, 2:].any():
            raise ValueError("the macro cell has no unlicensed band")
        fractions.flags.writeable = False
        object.__setattr__(self, "covered_users", covered)
        object.__setattr__(self, "fractions", fractions)

    def __len__(self):
        return len(self.fractions)

    @property
    def n_users(self) -> int:
        return self.fractions.shape[2]


def validate_space(space: ActionSpace, z_levels: int):
    """None when every action is feasible, otherwise ``(i, violation)``:
    the first infeasible action and its first violated constraint.

    Constraints are checked in order: every fraction an i/z_levels level in
    [0, 1] (the first offender named, reading d, v, kappa, tau by covered
    user), then the licensed DL, licensed UL and shared unlicensed budgets.
    """
    f = space.fractions[:, :, list(space.covered_users)]  # (|A|, 4, k)
    scaled = f * z_levels
    with np.errstate(invalid="ignore"):  # inf - inf: out of range anyway
        off_grid = (~((f >= 0.0) & (f <= 1.0))
                    | (np.abs(scaled - np.round(scaled)) > 1e-9))
    # per row, the covered users added left to right, as sum() adds them
    sums = np.zeros(f.shape[:2])
    for j in range(f.shape[2]):
        sums += f[:, :, j]
    unlicensed = sums[:, 2] + sums[:, 3]
    failed = np.stack([off_grid.any(axis=(1, 2)), sums[:, 0] > 1.0 + 1e-9,
                       sums[:, 1] > 1.0 + 1e-9, unlicensed > 1.0 + 1e-9],
                      axis=1)
    bad = np.flatnonzero(failed.any(axis=1))
    if not bad.size:
        return None
    i = int(bad[0])
    first = int(failed[i].argmax())
    if first == 0:
        value = float(f[i][off_grid[i]][0])
        return i, Violation("quantization",
                            f"{value!r} is not an i/{z_levels} level")
    name, label, total = (
        ("licensed_dl_budget", "sum(d)", sums[i, 0]),
        ("licensed_ul_budget", "sum(v)", sums[i, 1]),
        ("unlicensed_budget", "sum(kappa)+sum(tau)", unlicensed[i]))[first - 1]
    return i, Violation(name, f"{label} = {float(total)!r}")


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
    return tuple(int(gap) - 1 for gap in np.diff(bars, prepend=-1))


def _even_units(k: int, z: int):
    """Spread z grid units over k cells as evenly as the grid allows."""
    base, rem = divmod(z, k)
    return [base + (1 if i < rem else 0) for i in range(k)]


def _sampled_units(k: int, z: int, unlicensed: bool, cap: int, seed: int):
    """Up to ``cap`` distinct actions in grid units: the all-zero action, an
    even split, one "whole band to user j" action per covered user, then
    seeded uniform grid draws."""
    rng = np.random.default_rng(seed)
    idle = (0,) * (2 * k)
    even = tuple(_even_units(k, z))
    both = tuple(_even_units(2 * k, z)) if unlicensed else idle
    seeds = [(0,) * (4 * k), even + even + both]
    one_hot = lambda pos, units: tuple(units if i == pos else 0
                                       for i in range(k))
    for pos in range(k):
        band = (one_hot(pos, z // 2) + one_hot(pos, z - z // 2) if unlicensed
                else idle)
        seeds.append(one_hot(pos, z) + one_hot(pos, z) + band)
    kept = {}  # insertion-ordered set
    for units in seeds:
        if len(kept) < cap:
            kept.setdefault(units)
    attempts = 0
    while len(kept) < cap:
        attempts += 1
        if attempts > 1000 * cap:
            raise RuntimeError("action sampling failed to find enough "
                               "distinct feasible actions")
        d = _sample_grid_vector(rng, k, z)
        v = _sample_grid_vector(rng, k, z)
        kept.setdefault(d + v + (_sample_grid_vector(rng, 2 * k, z)
                                 if unlicensed else idle))
    return list(kept)


def enumerate_actions(bs: int, topology, config, seed: int) -> ActionSpace:
    """Build the action set of one BS.

    The full feasible grid is enumerated when it fits the configured cap;
    otherwise the space holds the all-zero action, an even split across
    the covered users, one "whole band to user j" action per covered
    user, and uniform draws from the grid up to the cap, deduplicated,
    in a seed-deterministic order.
    """
    users = topology.covered_users[bs]
    z = config.z_levels
    unlicensed = bs != 0
    k = len(users)

    # each action as a flat d + v + kappa + tau tuple of grid units
    if feasible_count(k, z, unlicensed) <= config.action_set_size:
        licensed = list(_grid_vectors(k, z))
        shared = (list(_grid_vectors(2 * k, z)) if unlicensed
                  else [(0,) * (2 * k)])
        units = [d + v + s for d in licensed for v in licensed for s in shared]
    else:
        units = _sampled_units(k, z, unlicensed, config.action_set_size, seed)
    fractions = np.zeros((len(units), 4, topology.n_users))
    fractions[:, :, list(users)] = np.reshape(units, (len(units), 4, k)) / z
    return ActionSpace(owner=bs, covered_users=users, fractions=fractions)


def _distinct(space: ActionSpace, fractions) -> ActionSpace:
    return ActionSpace(owner=space.owner, covered_users=space.covered_users,
                       fractions=fractions[_first_occurrences(fractions)])


def restrict_licensed_only(space: ActionSpace) -> ActionSpace:
    """Project every action to the licensed bands (kappa = tau = 0)."""
    fractions = space.fractions.copy()
    fractions[:, 2:] = 0.0
    return _distinct(space, fractions)


def restrict_coupled(space: ActionSpace) -> ActionSpace:
    """Force single-BS association: a user granted only one direction loses
    that grant, so every surviving grant pairs DL and UL at the same BS."""
    f = space.fractions
    has_dl = (f[:, 0] > 0) | (f[:, 2] > 0)
    has_ul = (f[:, 1] > 0) | (f[:, 3] > 0)
    return _distinct(space, np.where((has_dl != has_ul)[:, None], 0.0, f))


# ---------------------------------------------------------------------------
# utilities and conflict resolution


def _offers(frac, caps: LinkCapacitySet):
    """Per-direction offers of a ``[[d, v], [kappa, tau]]`` fraction block
    of shape (2, 2, n_bs, n_users).

    Returns the (2, n_bs, n_users) active grants ``[DL, UL]`` and the
    (2, 1, n_users) best offering BS per direction and user: the largest
    fraction-weighted capacity, licensed plus raw unlicensed, over the
    active grants; exact ties go to the lower BS index (argmax picks the
    first maximum). An active offer is never negative, so where any grant
    is active the pick is an active one.
    """
    active = (frac[0] > 0) | (frac[1] > 0)
    product = frac * caps.block
    offer = np.where(active, product[0] + product[1], -1.0)
    return active, offer.argmax(axis=1, keepdims=True)


def _resolve_block(frac, caps: LinkCapacitySet) -> np.ndarray:
    """Zero out losing grants, per user and direction, of a (2, 2, n_bs,
    n_users) fraction block; the best offer keeps its grant."""
    active, pick = _offers(frac, caps)
    bs = np.arange(frac.shape[2])[:, None]
    return np.where(active & (bs == pick), frac, 0.0)


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
    served = active.any(axis=1, keepdims=True)
    serving = np.where(served[0], pick[0], pick[1])
    bs = np.arange(frac.shape[2])[:, None]
    keep = (served[0] | served[1]) & (bs == serving)
    return np.where(keep, frac, 0.0)


def resolve_conflicts(spaces, joint, caps: LinkCapacitySet,
                      coupled: bool = False) -> np.ndarray:
    """Settle the overlapping grants of a joint index row: BS n plays
    action ``joint[n]`` of ``spaces[n]``.

    Returns the settled (4, n_bs, n_users) fraction block ``[d, v, kappa,
    tau]``, read-only: row ``[:, n]`` is what BS n keeps of its action, and
    a losing grant is zero. ``coupled=True`` switches from the
    per-direction rule to classic association: each user is collapsed onto
    a single serving BS and its uplink follows its downlink.
    """
    n_bs, n_users = len(spaces), caps.n_users
    # the joint's actions side by side, in one copy
    frac = np.concatenate([space.fractions[i]
                           for space, i in zip(spaces, joint)],
                          axis=1).reshape(2, 2, n_bs, n_users)
    settled = (_couple_block if coupled else _resolve_block)(frac, caps)
    settled = settled.reshape(4, n_bs, n_users)
    settled.flags.writeable = False
    return settled


def resolved_utilities(settled, caps: LinkCapacitySet,
                       eta: float = DEFAULT_ETA) -> np.ndarray:
    """Per-BS utilities of a settled (4, n_bs, n_users) block, as
    ``resolve_conflicts`` returns it: the payoffs the game is actually
    played over."""
    if settled.shape != (4, caps.n_bs, caps.n_users):
        raise ValueError("settled block shape does not match the capacity set")
    frac = settled.reshape(2, 2, caps.n_bs, caps.n_users)
    discount = np.array([eta, 1.0])[:, None, None]
    # per direction: log2(1 + licensed rate + discounted unlicensed rate)
    gain = np.log2(1.0 + frac[0] * caps.block[0]
                   + discount * frac[1] * caps.block[1])
    per_direction = gain.sum(axis=2)
    return per_direction[0] + per_direction[1]


class JointEvaluator:
    """Vectorized resolved-utility evaluation over index-coded joints.

    Stacks every space's fractions once into one zero-padded
    (4, n_bs * max |A|, n_users) table, BS n's action i at row
    n * max |A| + i; evaluating a batch of S joints is then one gather plus
    array arithmetic. The gather and settle here are separate from
    ``resolve_conflicts``, so the reward audit compares two computations.
    """

    def __init__(self, spaces, caps: LinkCapacitySet, eta: float = DEFAULT_ETA,
                 coupled: bool = False):
        self.spaces = tuple(spaces)
        self.caps = caps
        self.eta = eta
        self.coupled = coupled
        self.n_bs = len(self.spaces)
        self.sizes = np.array([len(s) for s in self.spaces], dtype=int)
        width = int(self.sizes.max())
        n_users = self.spaces[0].n_users
        tables = np.zeros((4, self.n_bs, width, n_users))
        for n, space in enumerate(self.spaces):
            tables[:, n, :len(space)] = space.fractions.transpose(1, 0, 2)
        self._table = tables.reshape(4, self.n_bs * width, n_users)
        self._offsets = np.arange(self.n_bs) * width
        self._bs_column = np.arange(self.n_bs)[:, None]
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
        frac = self._table.take(idx + self._offsets, axis=1).reshape(
            2, 2, *idx.shape, self._table.shape[-1])
        caps = self._caps
        active = (frac[0] > 0) | (frac[1] > 0)
        product = frac * caps
        # (2, S, 1, n_users): best offering BS per direction, ties to the
        # lower index; an active offer is never negative, so it is picked
        # over every inactive one
        pick = np.where(active, product[0] + product[1], -1.0).argmax(
            axis=2, keepdims=True)
        if self.coupled:
            served = active.any(axis=2, keepdims=True)
            serving = np.where(served[0], pick[0], pick[1])
            keep = (served[0] | served[1]) & (self._bs_column == serving)
        else:
            keep = active & (self._bs_column == pick)
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


def _epsilon_greedy(size: int, best: int, epsilon: float) -> np.ndarray:
    """epsilon/size on each of ``size`` actions, plus 1 - epsilon on best."""
    probs = np.full(size, epsilon / size)
    probs[best] += 1.0 - epsilon
    return probs


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
    def epsilon_greedy(cls, space: ActionSpace, best_index: int,
                       epsilon: float) -> "MixedStrategy":
        return cls(space, _epsilon_greedy(len(space), best_index, epsilon))


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
                    eta: float = DEFAULT_ETA) -> NeReport:
    """Check a mixed profile for approximate-equilibrium by full enumeration."""
    spaces = [s.space for s in profile]
    n_bs = len(spaces)
    sizes = [len(s) for s in spaces]
    joint_size = math.prod(sizes)
    if joint_size * n_bs > _ENUMERATION_CAP:
        raise ValueError(
            f"instance too large for exact verification: {joint_size} joints "
            f"x {n_bs} players exceeds the cap of {_ENUMERATION_CAP}")

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
                      eta: float = DEFAULT_ETA) -> None:
    """Write the resolved-payoff tensor in a plain text form readable by
    external solvers: a header, then one line per joint action holding the
    action indices and every BS's payoff."""
    sizes = [len(s) for s in spaces]
    if math.prod(sizes) > _ENUMERATION_CAP:
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

