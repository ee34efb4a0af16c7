"""The resource-allocation game between base stations.

Each BS owns a quantized set of allocation actions over the users it
covers: licensed DL/UL fractions for everyone, plus unlicensed DL/UL
fractions for small cells. A space holds its actions as one array, and
everything else names an action by its index: a joint action is an index
row with one entry per BS. Utilities are proportional-fair style sums of
log2(1 + allocated rate). Two BSs may both try to serve a user; the
conflict is resolved per user and direction in favor of the better offer,
and every game-theoretic quantity here (expected utility, equilibrium
checks) is defined on the conflict-resolved outcome. A mixed strategy is a
probability vector over one BS's action indices (``epsilon_greedy`` makes
the ones the learners play).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .rates import LinkCapacitySet

# most joints times players that joint_payoffs enumerates
_ENUMERATION_CAP = 500_000

# fractions are multiples of 1/Z_LEVELS, a utility discounts the unlicensed
# DL rate by ETA, and the learners explore with the EPSILON-greedy law
Z_LEVELS = 10
ETA = 0.7
EPSILON = 0.7


# ---------------------------------------------------------------------------
# actions and action spaces


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
    (BS 0), which has no unlicensed radio. The budgets are checked where
    actions are made, in ``enumerate_actions``, and nowhere else.
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


def _choice_bounds(w: int, z: int) -> list[int]:
    """Exclusive upper bounds of the bounded draws that
    ``Generator.choice(z + w, size=w, replace=False)`` makes, in order:
    Floyd's sampler (Bentley & Floyd, "A sample of brilliance", CACM
    30(9), 1987) draws on 0..j for j = z, ..., z + w - 1, then a
    Fisher-Yates shuffle draws on 0..i for i = w - 1, ..., 1.

    numpy takes Floyd's path unless the population passes 10,000 and the
    sample a fiftieth of it, which needs Z_LEVELS near 10,000 and some
    hundred covered users; past that bound these draws still make
    uniform vectors, but not ``choice``'s."""
    return [*range(z + 1, z + w + 1), *range(w, 1, -1)]


def _floyd_vector(draws, z: int):
    """Uniform vector of the sum<=z grid from Floyd's ``w = len(draws)``
    draws (``draws[i]`` on 0..z + i): each adds itself to the bars, or
    z + i when it is already one. The vector is the stars-and-bars
    bijection of the w bars among z + w slots: each entry is the gap
    before its bar."""
    bars = set()
    for j, val in enumerate(draws, z):
        bars.add(j if val in bars else val)
    bars = sorted(bars)
    return tuple(hi - lo - 1 for lo, hi in zip([-1] + bars, bars))


def _even_units(k: int, z: int):
    """Spread z grid units over k cells as evenly as the grid allows."""
    base, rem = divmod(z, k)
    return [base + (1 if i < rem else 0) for i in range(k)]


def _sampled_units(k: int, z: int, unlicensed: bool, cap: int, seed: int):
    """Up to ``cap`` distinct actions in grid units: the all-zero action, an
    even split, one "whole band to user j" action per covered user, then
    seeded uniform grid draws.

    A drawn action is a licensed DL and a licensed UL vector of width k
    and, in a small cell, one shared unlicensed vector of width 2k, each
    from the draws of ``Generator.choice(z + w, size=w, replace=False)``
    (``_choice_bounds``). One ``Generator.integers`` call draws a batch of
    actions, and its bounded draws equal ``choice``'s (Floyd's, then the
    shuffle's) bit for bit. Every action set is a function of these
    draws, so a change to the bounds or their order moves every action
    set and every golden value. A batch holds the actions still missing,
    which a one-action-at-a-time loop would draw too; after 1000 * cap
    drawn actions the sampling gives up."""
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
    # one action's bounds: each vector's Floyd and shuffle draws
    bounds, spans = [], []
    for w in (k, k, 2 * k) if unlicensed else (k, k):
        spans.append((len(bounds), len(bounds) + w))
        bounds += _choice_bounds(w, z)
    attempts = 0
    while len(kept) < cap:
        # each drawn action adds at most one to kept, so a one-at-a-time
        # loop would draw at least these m: the same bits in the same order
        m = min(cap - len(kept), 1000 * cap - attempts)
        if not m:
            raise RuntimeError("action sampling failed to find enough "
                               "distinct feasible actions")
        attempts += m
        draws = rng.integers(0, np.tile(bounds, m)).tolist()
        for row in range(0, len(draws), len(bounds)):
            units = sum((_floyd_vector(draws[row + lo:row + hi], z)
                         for lo, hi in spans), ())
            kept.setdefault(units if unlicensed else units + idle)
    return list(kept)


def enumerate_actions(bs: int, topology, config, seed: int) -> ActionSpace:
    """Build the action set of one BS.

    The full feasible grid is enumerated when it fits the configured cap;
    otherwise the space holds the all-zero action, an even split across
    the covered users, one "whole band to user j" action per covered
    user, and uniform draws from the grid up to the cap, deduplicated,
    in a seed-deterministic order. Feasibility is checked here, once and
    exactly, on the integer grid counts before they become i/z fractions;
    an infeasible action raises ``RuntimeError``.
    """
    users = topology.covered_users[bs]
    z = Z_LEVELS
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
    counts = np.array(units, dtype=int).reshape(len(units), 4, k)
    d, v, kappa, tau = counts.sum(axis=2).T
    # exact in grid units: no negative count, and each budget at most z
    bad = np.argwhere(np.column_stack([(counts < 0).any(axis=(1, 2)), d > z,
                                       v > z, kappa + tau > z]))
    if bad.size:
        i, j = bad[0]
        rule = ("every count >= 0", "sum(d) <= z", "sum(v) <= z",
                "sum(kappa)+sum(tau) <= z")[j]
        raise RuntimeError(f"infeasible action {i} in BS {bs} space: "
                           f"{rule} fails at z = {z}")
    fractions = np.zeros((len(units), 4, topology.n_users))
    fractions[:, :, list(users)] = counts / z
    return ActionSpace(owner=bs, covered_users=users, fractions=fractions)


def _distinct(space: ActionSpace, fractions) -> ActionSpace:
    return ActionSpace(owner=space.owner, covered_users=space.covered_users,
                       fractions=fractions[_first_occurrences(fractions)])


def restrict_licensed_only(space: ActionSpace) -> ActionSpace:
    """Project every action to the licensed bands (kappa = tau = 0); zeroing
    fractions keeps a feasible action feasible."""
    fractions = space.fractions.copy()
    fractions[:, 2:] = 0.0
    return _distinct(space, fractions)


def restrict_coupled(space: ActionSpace) -> ActionSpace:
    """Force single-BS association: a user granted only one direction loses
    that grant, so every surviving grant pairs DL and UL at the same BS.
    Zeroing fractions keeps a feasible action feasible."""
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


def resolved_utilities(settled, caps: LinkCapacitySet) -> np.ndarray:
    """Per-BS utilities of a settled (4, n_bs, n_users) block, as
    ``resolve_conflicts`` returns it: the payoffs the game is actually
    played over, the unlicensed DL rate discounted by ``ETA``."""
    if settled.shape != (4, caps.n_bs, caps.n_users):
        raise ValueError("settled block shape does not match the capacity set")
    frac = settled.reshape(2, 2, caps.n_bs, caps.n_users)
    discount = np.array([ETA, 1.0])[:, None, None]
    # per direction: log2(1 + licensed rate + discounted unlicensed rate)
    gain = np.log2(1.0 + frac[0] * caps.block[0]
                   + discount * frac[1] * caps.block[1])
    per_direction = gain.sum(axis=2)
    return per_direction[0] + per_direction[1]


class JointEvaluator:
    """Vectorized resolved-utility evaluation over index-coded joints.

    What a joint's settlement reads of an action is a constant of the run,
    so it is tabulated once per action at construction, BS n's action i at
    row n * max |A| + i (rows past a smaller space are inactive padding).
    Per direction ``[DL, UL]`` and user, an action has an active-grant
    mask, an offer (licensed plus raw unlicensed fraction-weighted
    capacity, -1.0 where the grant is inactive), and the gain it earns if
    it keeps the grant, ``log2(1 + d * c_l + (ETA * kappa) * c_u)`` (the
    uplink undiscounted). Evaluating a batch of S joints is then a gather,
    one argmax over the offers, and the sum of the kept gains.

    A lost grant earns exactly 0.0, as ``log2(1 + 0 * c_l + 0 * c_u)``
    does when the capacities are finite (``0 * inf`` is NaN), and an
    active offer is never negative when they are nonnegative; other
    capacities are refused. The gather and settle here are separate from
    ``resolve_conflicts``, so the reward audit compares two computations.
    """

    def __init__(self, spaces, caps: LinkCapacitySet, coupled: bool = False):
        for name in ("c_l_dl", "c_l_ul", "c_u_dl", "c_u_ul"):
            matrix = getattr(caps, name)
            if not (np.isfinite(matrix).all() and (matrix >= 0.0).all()):
                raise ValueError(f"capacity matrix {name} must be finite "
                                 "and nonnegative")
        spaces = tuple(spaces)
        self.coupled = coupled
        self.n_bs = len(spaces)
        self.sizes = np.array([len(s) for s in spaces], dtype=int)
        width = int(self.sizes.max())
        n_users = spaces[0].n_users
        # (2 band, 2 direction, n_bs, width, n_users): [[d, v], [kappa, tau]]
        frac = np.zeros((2, 2, self.n_bs, width, n_users))
        for n, space in enumerate(spaces):
            frac[:, :, n, :len(space)] = space.fractions.transpose(
                1, 0, 2).reshape(2, 2, len(space), n_users)
        caps_block = caps.block[:, :, :, None]
        active = (frac[0] > 0) | (frac[1] > 0)
        product = frac * caps_block
        offer = np.where(active, product[0] + product[1], -1.0)
        # per direction [DL, UL]: only unlicensed DL is discounted
        discount = np.array([ETA, 1.0])[:, None, None, None]
        gain = np.log2(1.0 + frac[0] * caps_block[0]
                       + discount * frac[1] * caps_block[1])
        rows = (2, self.n_bs * width, n_users)
        self._active = active.reshape(rows)
        # (2, 2 direction, rows, n_users): the offers, then the gains
        self._table = np.stack([offer, gain]).reshape(2, *rows)
        self._offsets = np.arange(self.n_bs) * width
        self._bs_column = np.arange(self.n_bs)[:, None]

    def batch_utilities(self, index_matrix) -> np.ndarray:
        """(S, n_bs) joint index rows -> (S, n_bs) resolved utilities."""
        idx = np.atleast_2d(np.asarray(index_matrix, dtype=int))
        if idx.ndim != 2 or idx.shape[1] != self.n_bs:
            raise ValueError(f"joint rows must have {self.n_bs} indices")
        # an index past a smaller space would read its zero padding
        if ((idx < 0) | (idx >= self.sizes)).any():
            raise IndexError("action index outside its BS's action space")
        rows = idx + self._offsets
        # (2 direction, S, n_bs, n_users) each
        active = self._active.take(rows, axis=1)
        offer, gain = self._table.take(rows, axis=2)
        # (2, S, 1, n_users): best offering BS per direction, ties to the
        # lower index; an active offer is never negative, so it is picked
        # over every inactive one
        pick = offer.argmax(axis=2, keepdims=True)
        if self.coupled:
            served = active.any(axis=2, keepdims=True)
            serving = np.where(served[0], pick[0], pick[1])
            keep = (served[0] | served[1]) & (self._bs_column == serving)
        else:
            keep = active & (self._bs_column == pick)
        per_direction = np.where(keep, gain, 0.0).sum(axis=3)
        return per_direction[0] + per_direction[1]

    def utilities(self, indices) -> np.ndarray:
        return self.batch_utilities(np.asarray(indices)[None, :])[0]

    def utility_of(self, n: int, indices) -> float:
        return float(self.utilities(indices)[n])


# ---------------------------------------------------------------------------
# mixed strategies, payoff tables, equilibrium check


def epsilon_greedy(size: int, best: int, epsilon: float) -> np.ndarray:
    """The epsilon-greedy law over ``size`` actions: epsilon/size on each,
    plus 1 - epsilon on ``best``. A mixed strategy is such a vector."""
    probs = np.full(size, epsilon / size)
    probs[best] += 1.0 - epsilon
    return probs


@dataclass(frozen=True)
class ExpectedUtility:
    value: float
    # standard error of the linearization residual's sampled mean in
    # agents.beta_expectation; 0 under exact enumeration
    stderr: float
    exact: bool


@dataclass(frozen=True)
class NeReport:
    """Expected utilities of a mixed profile: ``expected_current[n]`` is BS
    n's under the profile, ``expected_by_action[n][i]`` its own after
    swapping its whole strategy for pure action i, opponents unchanged.
    Linearity in the own strategy makes pure swaps sufficient; the caller
    judges the best swap's gain (``cli.cmd_ne_check``).
    """

    expected_current: tuple[float, ...]
    expected_by_action: tuple[tuple[float, ...], ...]


def joint_payoffs(spaces, caps: LinkCapacitySet):
    """Every joint index row of ``spaces``, in lexicographic order (the
    last BS's index varies fastest), and the (J, n_bs) resolved utilities
    of each: the payoff table that ``verify_mixed_ne`` reads and
    ``export_small_game`` writes. Refuses a game whose joints times players
    exceed the enumeration cap."""
    sizes = [len(s) for s in spaces]
    joint_size = math.prod(sizes)
    if joint_size * len(sizes) > _ENUMERATION_CAP:
        raise ValueError(
            f"instance too large for exact verification: {joint_size} joints "
            f"x {len(sizes)} players exceeds the cap of {_ENUMERATION_CAP}")
    joints = np.array(list(itertools.product(*(range(k) for k in sizes))),
                      dtype=int)
    return joints, JointEvaluator(spaces, caps).batch_utilities(joints)


def verify_mixed_ne(profile, payoffs) -> NeReport:
    """Every BS's expected utility under a mixed profile, one probability
    vector per BS, and after each pure swap, from the ``joint_payoffs``
    table of the spaces the vectors range over."""
    joints, utilities = payoffs
    n_bs = len(profile)
    prob_vectors = [np.asarray(p, dtype=float) for p in profile]
    sizes = [len(p) for p in prob_vectors]
    if (joints[-1] + 1).tolist() != sizes:
        raise ValueError("payoff table does not match the profile's spaces")
    if any((p < 0).any() or abs(p.sum() - 1.0) > 1e-12 for p in prob_vectors):
        raise ValueError("probabilities must be nonnegative and sum to 1")
    tables = []
    for n in range(n_bs):
        # weight each joint by the opponents' probabilities only, so that
        # pure actions outside the own support still get a correct entry
        opp_weight = np.ones(len(joints))
        for m in range(n_bs):
            if m != n:
                opp_weight = opp_weight * prob_vectors[m][joints[:, m]]
        tables.append(np.bincount(joints[:, n], opp_weight * utilities[:, n],
                                  minlength=sizes[n]))

    current = [float(np.dot(prob_vectors[n], tables[n])) for n in range(n_bs)]
    return NeReport(expected_current=tuple(current),
                    expected_by_action=tuple(tuple(map(float, t)) for t in tables))


# ---------------------------------------------------------------------------
# small-game text export


def export_small_game(payoffs, path) -> None:
    """Write a ``joint_payoffs`` table in a plain text form readable by
    external solvers: a header, then one line per joint action holding the
    action indices and every BS's payoff."""
    joints, utilities = payoffs
    # the lexicographic order ends on every BS's last action
    sizes = joints[-1] + 1
    lines = [f"players {len(sizes)}",
             "actions " + " ".join(str(k) for k in sizes)]
    for joint, row in zip(joints, utilities):
        lines.append(" ".join(str(i) for i in joint) + " "
                     + " ".join(format(u, ".17g") for u in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
