"""Action feasibility, utilities, conflict resolution, and the NE oracle."""

import functools
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lteusim import game
from lteusim.game import (
    ActionSpace,
    JointEvaluator,
    enumerate_actions,
    epsilon_greedy,
    export_small_game,
    feasible_count,
    joint_payoffs,
    resolve_conflicts,
    resolved_utilities,
    restrict_coupled,
    restrict_licensed_only,
    verify_mixed_ne,
)
from lteusim.harness import prepare_run
from lteusim.rates import LinkCapacitySet, compute_user_rates
from lteusim.scenario import ALGORITHMS, ScenarioConfig, Topology, desk_config
from oracles import (ETA, action_at, actions_of, batch_utilities_oracle,
                     best_swap, expected_utility_oracle, make_action,
                     point_mass, restrict_coupled_oracle,
                     restrict_licensed_only_oracle, sample_grid_vector_oracle,
                     sampled_units_oracle, settle, space_of, validate_action,
                     validate_space_oracle)


# ---------------------------------------------------------------------------
# utility and settling oracles: plain per-BS, per-user Python, independent
# of the vectorized block code in lteusim.game


# rows of a joint's settled (4, n_bs, n_users) fraction block
D, V, KAPPA, TAU = range(4)


def sbs_utility(n: int, joint, caps: LinkCapacitySet,
                eta: float = ETA) -> float:
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


def joint_utilities(joint, caps: LinkCapacitySet) -> np.ndarray:
    """Per-BS utility vector of a joint action taken at face value, from
    the actions' dense rows."""
    d, v, kp, tp = np.stack([a.dense() for a in joint], axis=1)
    dl = np.log2(1.0 + d * caps.c_l_dl.T + ETA * kp * caps.c_u_dl.T)
    ul = np.log2(1.0 + v * caps.c_l_ul.T + tp * caps.c_u_ul.T)
    return dl.sum(axis=1) + ul.sum(axis=1)


def scalar_utilities(joint, caps: LinkCapacitySet) -> list:
    return [mbs_utility(joint, caps)] + [sbs_utility(n, joint, caps)
                                         for n in range(1, len(joint))]


def settle_oracle(joint, caps: LinkCapacitySet, coupled: bool = False):
    """Per-BS ``(d, v, kappa, tau)`` tuples after conflict resolution.

    Per user and direction, the BS with the largest fraction-weighted
    offer (licensed plus raw unlicensed capacity) keeps its grant, and
    ties go to the lower BS. Under the coupled rule the best DL offer
    picks the serving BS, or the best UL offer for a user without any DL
    grant, and that BS keeps both directions.
    """
    def fraction(action, name, user):
        values = getattr(action, name)
        if values is None or user not in action.users:
            return 0.0
        return values[action.users.index(user)]

    def best(user, licensed, unlicensed, cap_l, cap_u):
        winner, top = None, None
        for n, action in enumerate(joint):
            f_l = fraction(action, licensed, user)
            f_u = fraction(action, unlicensed, user)
            if f_l > 0 or f_u > 0:
                offer = f_l * cap_l[user, n] + f_u * cap_u[user, n]
                if top is None or offer > top:
                    winner, top = n, offer
        return winner

    winners = {}
    for user in range(joint[0].n_users):
        dl = best(user, "d", "kappa", caps.c_l_dl, caps.c_u_dl)
        ul = best(user, "v", "tau", caps.c_l_ul, caps.c_u_ul)
        if coupled:
            dl = ul = dl if dl is not None else ul
        winners[user] = (dl, ul)

    settled = []
    for n, action in enumerate(joint):
        def kept(name, direction):
            values = getattr(action, name)
            if values is None:
                return None
            return tuple(x if winners[u][direction] == n else 0.0
                         for u, x in zip(action.users, values))
        settled.append((kept("d", 0), kept("v", 1), kept("kappa", 0),
                        kept("tau", 1)))
    return settled


def settled_actions(joint, settled):
    """The settled block as per-BS actions, for the oracles above that read
    action objects: BS n keeps its users, with the fractions of row n."""
    out = []
    for n, action in enumerate(joint):
        d, v, kp, tp = map(tuple, settled[:, n, list(action.users)].tolist())
        unlicensed = action.kappa is not None
        out.append(action._replace(d=d, v=v, kappa=kp if unlicensed else None,
                                   tau=tp if unlicensed else None))
    return out


def settled_utilities(joint, caps: LinkCapacitySet,
                      coupled: bool = False) -> np.ndarray:
    """Resolved utilities of a joint given as one ``Action`` per BS."""
    return resolved_utilities(settle(joint, caps, coupled=coupled), caps)


@functools.lru_cache(maxsize=None)
def desk_world(algorithm: str, seed: int):
    inputs = prepare_run(desk_config(), algorithm, seed)
    return inputs.spaces, inputs.capacities


@st.composite
def desk_joints(draw):
    """(spaces, caps, index row, coupled) over desk_config() scenarios.

    Flat capacities make every equal fraction offer a tie, so the tie
    rule decides often."""
    algorithm = draw(st.sampled_from(["esn", "q_lteu_coupled"]))
    spaces, caps = desk_world(algorithm, draw(st.integers(0, 3)))
    if draw(st.booleans()):
        caps = flat_caps(caps.n_users, caps.n_bs)
    indices = [draw(st.integers(0, len(s) - 1)) for s in spaces]
    return spaces, caps, indices, draw(st.booleans())


def toy_topology(covered):
    """Topology stub from per-BS covered-user tuples (BS 0 first)."""
    n_users = max((u for us in covered for u in us), default=-1) + 1
    return Topology(
        mbs_position=np.zeros(2),
        sbs_positions=np.zeros((len(covered) - 1, 2)),
        wap_positions=np.zeros((0, 2)),
        user_positions=np.zeros((n_users, 2)),
        covered_users=tuple(tuple(us) for us in covered),
    )


def flat_caps(n_users, n_bs, c_l_dl=2.0, c_l_ul=2.0, c_u_dl=2.0, c_u_ul=2.0):
    """Constant capacity matrices (macro unlicensed column zeroed)."""
    full = lambda value: np.full((n_users, n_bs), float(value))
    unl = lambda value: np.where(np.arange(n_bs) == 0, 0.0, full(value))
    return LinkCapacitySet(c_l_dl=full(c_l_dl), c_l_ul=full(c_l_ul),
                           c_u_dl=unl(c_u_dl), c_u_ul=unl(c_u_ul))


class TestActionConstruction:
    def test_dense_views_scatter(self):
        a = make_action(1, users=(2, 0), n_users=4, d=(0.5, 0.2), v=(0.0, 1.0),
                        kappa=(0.1, 0.0), tau=(0.0, 0.3))
        space = space_of([a])
        assert space.fractions.tolist() == [[[0.2, 0.0, 0.5, 0.0],
                                             [1.0, 0.0, 0.0, 0.0],
                                             [0.0, 0.0, 0.1, 0.0],
                                             [0.3, 0.0, 0.0, 0.0]]]
        assert not space.fractions.flags.writeable
        assert action_at(space, 0) == a

    def test_space_copies_its_fractions(self):
        fractions = np.zeros((1, 4, 2))
        space = ActionSpace(owner=1, covered_users=(0,), fractions=fractions)
        fractions[0, 0, 0] = 1.0
        assert not space.fractions.any()
        assert fractions.flags.writeable

    def test_macro_action_has_no_unlicensed_part(self, monkeypatch):
        monkeypatch.setattr(game, "Z_LEVELS", 2)
        topo = toy_topology([(0, 1), (0,)])
        space = enumerate_actions(0, topo, ScenarioConfig(), seed=0)
        assert not space.fractions[:, 2:].any()
        assert all(a.kappa is None and a.tau is None for a in actions_of(space))

    def test_half_unlicensed_rejected(self):
        # an unlicensed grant, even in one direction, has no radio at BS 0
        fractions = np.zeros((1, 4, 1))
        fractions[0, 3, 0] = 0.5
        with pytest.raises(ValueError, match="unlicensed"):
            ActionSpace(owner=0, covered_users=(0,), fractions=fractions)
        ActionSpace(owner=1, covered_users=(0,), fractions=fractions)

    def test_length_mismatch_rejected(self):
        for shape in [(2, 3, 2), (4, 2), (1, 4, 2, 1)]:
            with pytest.raises(ValueError, match="shape"):
                ActionSpace(owner=1, covered_users=(0, 1),
                            fractions=np.zeros(shape))

    def test_grant_outside_covered_users_rejected(self):
        fractions = np.zeros((2, 4, 3))
        fractions[1, 1, 2] = 0.5
        with pytest.raises(ValueError, match="does not cover"):
            ActionSpace(owner=1, covered_users=(0, 1), fractions=fractions)
        ActionSpace(owner=1, covered_users=(0, 2), fractions=fractions)

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ActionSpace(owner=1, covered_users=(), fractions=np.zeros((0, 4, 2)))


def validate_one(action, z_levels):
    """The oracle's verdict on a space of ``action`` alone."""
    found = validate_space_oracle(space_of([action]), z_levels)
    return None if found is None else found[1]


class TestValidateAction:
    """The per-action oracle that the enumerated spaces are checked against
    (TestFeasibleByConstruction) rejects what it must."""

    def test_feasible_boundary(self):
        a = make_action(1, (0,), 1, d=(1.0,), v=(1.0,), kappa=(0.5,), tau=(0.5,))
        assert validate_one(a, z_levels=10) is None

    def test_dl_budget_violation(self):
        a = make_action(1, (0, 1), 2, d=(0.6, 0.5), v=(0.0, 0.0),
                        kappa=(0.0, 0.0), tau=(0.0, 0.0))
        report = validate_one(a, z_levels=10)
        assert report.constraint == "licensed_dl_budget"

    def test_ul_budget_violation(self):
        a = make_action(0, (0, 1), 2, d=(0.0, 0.0), v=(0.7, 0.4))
        assert validate_one(a, 10).constraint == "licensed_ul_budget"

    def test_unlicensed_budget_violation(self):
        a = make_action(1, (0,), 1, d=(0.0,), v=(0.0,), kappa=(0.7,), tau=(0.4,))
        assert validate_one(a, 10).constraint == "unlicensed_budget"

    def test_off_grid_value(self):
        a = make_action(0, (0,), 1, d=(0.15,), v=(0.0,))
        assert validate_one(a, 10).constraint == "quantization"

    def test_quantization_reported_before_budgets(self):
        a = make_action(0, (0, 1), 2, d=(0.15, 0.99), v=(0.0, 0.0))
        assert validate_one(a, 10).constraint == "quantization"

    def test_out_of_range_is_quantization(self):
        a = make_action(0, (0,), 1, d=(-0.1,), v=(0.0,))
        assert validate_one(a, 10).constraint == "quantization"

    def test_first_infeasible_action_is_named(self):
        ok = make_action(1, (0,), 1, d=(0.5,), v=(0.0,), kappa=(0.0,), tau=(0.0,))
        over = make_action(1, (0,), 1, d=(0.0,), v=(0.0,), kappa=(0.7,),
                           tau=(0.4,))
        off = make_action(1, (0,), 1, d=(0.15,), v=(0.0,), kappa=(0.0,),
                          tau=(0.0,))
        i, violation = validate_space_oracle(space_of([ok, over, off]), 10)
        assert i == 1 and violation.constraint == "unlicensed_budget"
        assert violation == validate_action(over, 10)


def _sampler_cases():
    """(k, z, unlicensed, cap) with cap in {2, 16, 32} and the grid's
    size less one, each below the grid's size and at most 400; the coarse
    grids make the batched sampler draw again after duplicates."""
    cases = []
    for k, z, unlicensed in itertools.product((1, 2, 3, 4, 12), (2, 5, 10),
                                              (False, True)):
        grid = feasible_count(k, z, unlicensed)
        caps = {2, 16, 32, grid - 1}
        cases += [(k, z, unlicensed, cap) for cap in sorted(caps)
                  if cap < grid and cap <= 400]
    return cases


class _LoggedGenerator:
    """A ``Generator`` that appends ``(method, size)`` to a log for each
    ``choice`` and ``integers`` call, ``size`` being the bounds' count."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def choice(self, *args, **kwargs):
        self._calls.append(("choice", 1))
        return self._rng.choice(*args, **kwargs)

    def integers(self, low, high=None, *args, **kwargs):
        self._calls.append(("integers", np.size(high)))
        return self._rng.integers(low, high, *args, **kwargs)


def _spy_generators(monkeypatch, calls):
    """Make ``np.random.default_rng`` log into ``calls``; returns the
    list of the generators it makes, in order."""
    made, make = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: (
        made.append(_LoggedGenerator(make(seed), calls)) or made[-1]))
    return made


class TestEnumerateActions:
    @pytest.mark.parametrize("k,z,unlicensed,count", [
        (1, 2, False, 9), (1, 2, True, 54),
        (2, 2, False, 36), (2, 2, True, 540),
        (1, 10, False, 121), (1, 10, True, 7986),
        (2, 4, False, 225), (2, 4, True, 15750),
    ])
    def test_feasible_grid_sizes(self, k, z, unlicensed, count):
        assert feasible_count(k, z, unlicensed) == count

    def test_exhaustive_macro_space(self, monkeypatch):
        monkeypatch.setattr(game, "Z_LEVELS", 2)
        topo = toy_topology([(0,), (0,)])
        cfg = ScenarioConfig(action_set_size=100)
        space = enumerate_actions(0, topo, cfg, seed=3)
        assert len(space) == 9
        pairs = {(a.d[0], a.v[0]) for a in actions_of(space)}
        levels = (0.0, 0.5, 1.0)
        assert pairs == set(itertools.product(levels, levels))
        assert all(a.kappa is None for a in actions_of(space))

    def test_exhaustive_sbs_space(self, monkeypatch):
        monkeypatch.setattr(game, "Z_LEVELS", 2)
        topo = toy_topology([(0,), (0,)])
        cfg = ScenarioConfig(action_set_size=100)
        space = enumerate_actions(1, topo, cfg, seed=3)
        assert len(space) == 54
        assert validate_space_oracle(space, 2) is None
        # d slowest, then v, then the unlicensed pair
        assert [a.key for a in actions_of(space)[:4]] == [
            ((0.0,), (0.0,), (0.0,), (0.0,)), ((0.0,), (0.0,), (0.0,), (0.5,)),
            ((0.0,), (0.0,), (0.0,), (1.0,)), ((0.0,), (0.0,), (0.5,), (0.0,))]
        assert action_at(space, 6).key == ((0.0,), (0.5,), (0.0,), (0.0,))
        assert action_at(space, 18).key == ((0.5,), (0.0,), (0.0,), (0.0,))
        assert action_at(space, 53).key == ((1.0,), (1.0,), (1.0,), (0.0,))

    def test_sampled_space_layout(self):
        topo = toy_topology([(0, 1), (0, 1)])
        cfg = ScenarioConfig(action_set_size=16)
        space = enumerate_actions(1, topo, cfg, seed=9)
        assert len(space) == 16
        zero = action_at(space, 0)
        assert not any(zero.d) and not any(zero.v)
        assert not any(zero.kappa) and not any(zero.tau)
        spread = action_at(space, 1)
        assert spread.d == (0.5, 0.5) and spread.v == (0.5, 0.5)
        # 10 units over 4 unlicensed cells: 3, 3, 2, 2
        assert spread.kappa == (0.3, 0.3) and spread.tau == (0.2, 0.2)
        first_seed = action_at(space, 2)
        assert first_seed.d == (1.0, 0.0) and first_seed.v == (1.0, 0.0)
        assert first_seed.kappa == (0.5, 0.0) and first_seed.tau == (0.5, 0.0)
        assert validate_space_oracle(space, 10) is None
        assert len({a.key for a in actions_of(space)}) == 16

    def test_sampling_deterministic_in_seed(self):
        topo = toy_topology([(0, 1), (0, 1)])
        cfg = ScenarioConfig(action_set_size=16)
        keys = lambda seed: [a.key for a in
                             actions_of(enumerate_actions(1, topo, cfg, seed))]
        assert keys(4) == keys(4)
        assert keys(4) != keys(5)

    def test_uncovered_bs_gets_the_empty_action(self):
        topo = toy_topology([(0,), ()])
        cfg = ScenarioConfig(action_set_size=16)
        space = enumerate_actions(1, topo, cfg, seed=0)
        assert len(space) == 1
        assert space.covered_users == ()
        assert space.fractions.shape == (1, 4, 1) and not space.fractions.any()

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 12, 24])
    @pytest.mark.parametrize("z", [2, 5, 10, 40])
    def test_grid_draw_matches_the_numpy_form(self, k, z):
        # twin generators: the bounded draws are choice's, the same vector
        # and the same bits consumed, so every later draw stays where it was
        ours = np.random.default_rng(k * 100 + z)
        theirs = np.random.default_rng(k * 100 + z)
        for _ in range(200):
            draws = ours.integers(0, game._choice_bounds(k, z)).tolist()
            vector = game._floyd_vector(draws[:k], z)
            assert vector == sample_grid_vector_oracle(theirs, k, z)
            assert ours.bit_generator.state == theirs.bit_generator.state
            assert len(vector) == k and min(vector) >= 0 and sum(vector) <= z

    @pytest.mark.parametrize("k,z,unlicensed,cap", _sampler_cases())
    def test_sampled_units_match_the_numpy_draw(self, monkeypatch, k, z,
                                                unlicensed, cap):
        made = _spy_generators(monkeypatch, [])
        for seed in range(5):
            units = game._sampled_units(k, z, unlicensed, cap, seed)
            assert (units, made[-1].bit_generator.state) == \
                sampled_units_oracle(k, z, unlicensed, cap, seed)

    def test_sampling_gives_up_after_1000_draws_per_action(self,
                                                           monkeypatch):
        # a 9-action grid cannot hold 10 distinct actions
        made = _spy_generators(monkeypatch, [])
        for sampler in (game._sampled_units, sampled_units_oracle):
            with pytest.raises(RuntimeError, match="^action sampling failed "
                               "to find enough distinct feasible actions$"):
                sampler(1, 2, False, 10, 0)
        ours, theirs = made
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_desk_set_up_draws_one_batch_per_sampled_space(self,
                                                           monkeypatch):
        calls, spaces = [], []
        _spy_generators(monkeypatch, calls)
        sampler = game._sampled_units

        def logged(k, z, unlicensed, cap, seed):
            start = len(calls)
            units = sampler(k, z, unlicensed, cap, seed)
            spaces.append(((k, z, unlicensed, cap, seed), calls[start:]))
            return units

        monkeypatch.setattr(game, "_sampled_units", logged)
        for seed in range(5):
            prepare_run(desk_config(), "esn", seed)
        assert spaces and not [c for c in calls if c[0] == "choice"]
        single = 0
        for (k, z, unlicensed, cap, seed), own in spaces:
            width = sum(len(game._choice_bounds(w, z)) for w in
                        ((k, k, 2 * k) if unlicensed else (k, k)))
            batches = [size // width for _, size in own]
            assert own
            # the one-at-a-time loop's attempts, from its choice calls
            start = len(calls)
            sampled_units_oracle(k, z, unlicensed, cap, seed)
            attempts = len(calls[start:]) // (3 if unlicensed else 2)
            assert sum(batches) == attempts
            # a second batch only when the first drew a duplicate
            assert (len(batches) == 1) == (batches[0] == attempts)
            single += len(batches) == 1
        assert single > len(spaces) // 2

    def test_duplicates_rejected_by_space(self):
        a = make_action(0, (0,), 1, d=(0.0,), v=(0.0,))
        b = make_action(0, (0,), 1, d=(0.0,), v=(0.0,))
        with pytest.raises(ValueError, match="duplicate"):
            space_of([a, b])


def _feasibility_cases():
    """(z, k, bs, cap, seed) over z in {2, 4, 10}, 0-3 covered users and
    the macro cell and a small cell: the full grid wherever it has at most
    3000 actions, and a sampled space of up to 24 actions, below the
    grid's size, at three seeds."""
    cases = []
    for z, k, bs in itertools.product((2, 4, 10), range(4), (0, 1)):
        count = feasible_count(k, z, unlicensed=bs != 0)
        if count <= 3000:
            cases.append((z, k, bs, count, 0))
        if count > 1:
            cases += [(z, k, bs, min(count - 1, 24), seed)
                      for seed in range(3)]
    return cases


def _space_with_units(monkeypatch, bad_actions):
    """Small cell 1's sampled space at z = 10 over users 0 and 1, with the unit
    generator returning the idle action and then ``bad_actions``."""
    monkeypatch.setattr(game, "_sampled_units",
                        lambda *args: [(0,) * 8, *bad_actions])
    topo = toy_topology([(0, 1), (0, 1)])
    return enumerate_actions(1, topo, ScenarioConfig(action_set_size=4), 0)


class TestFeasibleByConstruction:
    """Feasibility is checked once, in grid units, in enumerate_actions;
    every space it builds passes the per-action float oracle, and so do
    its projections, which only zero fractions."""

    @pytest.mark.parametrize("z,k,bs,cap,seed", _feasibility_cases())
    def test_enumerated_spaces_pass_the_oracle(self, monkeypatch, z, k, bs,
                                               cap, seed):
        monkeypatch.setattr(game, "Z_LEVELS", z)
        # BS bs covers users 0..k-1; the other BS also covers user k
        covered = [tuple(range(k)), tuple(range(k + 1))]
        topo = toy_topology(covered if bs == 0 else covered[::-1])
        space = enumerate_actions(bs, topo, ScenarioConfig(
            action_set_size=cap), seed)
        # both branches fill the cap; the full grid's cap is its size
        assert len(space) == cap
        assert space.covered_users == tuple(range(k))
        assert validate_space_oracle(space, z) is None
        for project in (restrict_coupled, restrict_licensed_only):
            assert validate_space_oracle(project(space), z) is None

    @pytest.mark.parametrize("action,rule", [
        ((0, 0, 0, 0, 0, 0, -1, 0), r"every count >= 0"),
        ((6, 5, 0, 0, 0, 0, 0, 0), r"sum\(d\) <= z"),
        ((0, 0, 10, 1, 0, 0, 0, 0), r"sum\(v\) <= z"),
        ((0, 0, 0, 0, 3, 3, 3, 2), r"sum\(kappa\)\+sum\(tau\) <= z"),
        # the first failed rule is named
        ((-1, 12, 0, 0, 0, 0, 0, 0), r"every count >= 0"),
    ])
    def test_infeasible_sampled_action_is_named(self, monkeypatch, action,
                                                rule):
        with pytest.raises(RuntimeError, match=(
                rf"^infeasible action 1 in BS 1 space: {rule} fails at "
                r"z = 10$")):
            _space_with_units(monkeypatch, [action])

    def test_first_infeasible_action_is_named(self, monkeypatch):
        fine = (5, 5, 5, 5, 2, 3, 2, 3)
        over = (0, 0, 0, 0, 3, 3, 3, 2)
        with pytest.raises(RuntimeError, match=r"action 2 in BS 1 space: "
                                               r"sum\(kappa\)"):
            _space_with_units(monkeypatch, [fine, over, (11, 0) + (0,) * 6])
        assert len(_space_with_units(monkeypatch, [fine])) == 2

    def test_infeasible_grid_action_is_named(self, monkeypatch):
        # the full-grid branch: a licensed vector over budget at the macro
        monkeypatch.setattr(game, "_grid_vectors",
                            lambda k, z: [(0,) * k, (z + 1,) * k])
        monkeypatch.setattr(game, "Z_LEVELS", 2)
        topo = toy_topology([(0,), (0,)])
        with pytest.raises(RuntimeError, match=r"^infeasible action 1 in BS 0 "
                                               r"space: sum\(v\) <= z fails "
                                               r"at z = 2$"):
            enumerate_actions(0, topo, ScenarioConfig(action_set_size=100), 0)


class TestRestrictions:
    @pytest.fixture
    def sampled_space(self):
        topo = toy_topology([(0, 1), (0, 1)])
        cfg = ScenarioConfig(action_set_size=24)
        return enumerate_actions(1, topo, cfg, seed=21)

    def test_licensed_only_strips_unlicensed(self, sampled_space):
        stripped = restrict_licensed_only(sampled_space)
        assert all(not any(a.kappa) and not any(a.tau)
                   for a in actions_of(stripped))
        assert len(stripped) <= len(sampled_space)
        assert len({a.key for a in actions_of(stripped)}) == len(stripped)

    def test_coupled_pairs_directions(self, sampled_space):
        coupled = restrict_coupled(sampled_space)
        for action in actions_of(coupled):
            for i in range(len(action.users)):
                has_dl = action.d[i] > 0 or action.kappa[i] > 0
                has_ul = action.v[i] > 0 or action.tau[i] > 0
                assert has_dl == has_ul

    def test_coupled_keeps_whole_band_seed(self, sampled_space):
        coupled = restrict_coupled(sampled_space)
        seed_keys = {a.key for a in actions_of(sampled_space)[1:3]}
        assert seed_keys <= {a.key for a in actions_of(coupled)}


def grid_levels(z):
    return st.integers(0, z).map(lambda i: i / z)


@st.composite
def spaces_of(draw, values):
    """Spaces of up to 8 distinct actions over 0-4 users, covered or not,
    of the macro cell or a small cell."""
    owner = draw(st.sampled_from([0, 1, 2]))
    n_users = draw(st.integers(0, 4))
    mask = draw(st.lists(st.booleans(), min_size=n_users, max_size=n_users))
    users = tuple(u for u, covered in enumerate(mask) if covered)
    k = len(users)
    rows = draw(st.lists(st.lists(values, min_size=4 * k, max_size=4 * k),
                         min_size=1, max_size=8))
    actions = {}
    for row in rows:
        d, v, kappa, tau = (row[j * k:(j + 1) * k] for j in range(4))
        if owner == 0:
            kappa = tau = None
        action = make_action(owner, users, n_users, d, v, kappa, tau)
        actions.setdefault(action.dense().tobytes(), action)
    return space_of(list(actions.values()))


class TestSpaceOracles:
    """The array space functions against the per-action loops they
    replaced (tests/oracles.py)."""

    @settings(max_examples=300, deadline=None)
    @given(spaces_of(grid_levels(2)))
    def test_projections_match_the_per_action_loops(self, space):
        # at z = 2 most projections collide, so deduplication decides often
        assert (actions_of(restrict_coupled(space))
                == restrict_coupled_oracle(space))
        assert (actions_of(restrict_licensed_only(space))
                == restrict_licensed_only_oracle(space))

    def test_projections_drop_the_duplicates_they_create(self):
        dl_only = make_action(1, (0,), 1, (0.5,), (0.0,), (0.0,), (0.0,))
        idle = make_action(1, (0,), 1, (0.0,), (0.0,), (0.0,), (0.0,))
        both = make_action(1, (0,), 1, (0.5,), (0.5,), (0.5,), (0.0,))
        mixed = make_action(1, (0,), 1, (0.5,), (0.0,), (0.5,), (0.0,))
        space = space_of([dl_only, idle, both, mixed])
        licensed = actions_of(restrict_licensed_only(space))
        assert licensed == [dl_only, idle, both._replace(kappa=(0.0,))]
        assert actions_of(restrict_coupled(space)) == [idle, both]
        for project in (restrict_coupled, restrict_licensed_only):
            assert not project(space).fractions.flags.writeable


# SHA-256 over each desk space's fractions in BS order, read from the
# per-action dense rows before spaces held their actions as one array
DESK_SPACE_PINS = {
    (0, "esn"): "9580b70a60e09bacf1c2698501f675d7fd7fe18c4f986e979a03755e475a3371",
    (0, "q_lteu_decoupled"):
        "9580b70a60e09bacf1c2698501f675d7fd7fe18c4f986e979a03755e475a3371",
    (0, "q_lte_decoupled"):
        "82365c381c051a0b27dfe0a7a8ae792652b61fb6b17204bddfd3c916c668784e",
    (0, "q_lteu_coupled"):
        "b02e78b6f66d4ac3dbc0e6a47efa2dd1ae254f240d994669d7265df895ba5b82",
    (1, "esn"): "0f6fde0019ca13f1eb121fc5fd91cdde06fba9fe15503452729984fee082c49f",
    (1, "q_lteu_decoupled"):
        "0f6fde0019ca13f1eb121fc5fd91cdde06fba9fe15503452729984fee082c49f",
    (1, "q_lte_decoupled"):
        "061c0f61f767ab9532c20dd7d2012320d9df094f0bbec23b2aa814d761f724ed",
    (1, "q_lteu_coupled"):
        "dbeb3d997c1946b7b4385645a25fef2788d8fa77b67fc289926ca5e39baea332",
    (2, "esn"): "9fc9bfd644b0bce1f7e60ede19f9c6b799aac36607c2cc1fc0a31bcbe7bb87b7",
    (2, "q_lteu_decoupled"):
        "9fc9bfd644b0bce1f7e60ede19f9c6b799aac36607c2cc1fc0a31bcbe7bb87b7",
    (2, "q_lte_decoupled"):
        "6e01e268bc4087dc6598464172a806207e123262c17ed8ed4041bd1524bba0d9",
    (2, "q_lteu_coupled"):
        "81a51be8fd9ae08c4e903e658139c6c7d5c07fc9f19ffe604e30d734b3c0cf5b",
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_desk_spaces_match_their_pins(seed, algorithm):
    digest = hashlib.sha256()
    for space in desk_world(algorithm, seed)[0]:
        assert space.fractions.dtype == np.float64
        digest.update(space.fractions.tobytes())
    assert digest.hexdigest() == DESK_SPACE_PINS[seed, algorithm]


class TestUtilities:
    def test_all_zero_joint_scores_zero(self):
        caps = flat_caps(1, 2)
        joint = [make_action(0, (0,), 1, (0.0,), (0.0,)),
                 make_action(1, (0,), 1, (0.0,), (0.0,), (0.0,), (0.0,))]
        assert mbs_utility(joint, caps) == 0.0
        assert sbs_utility(1, joint, caps) == 0.0
        assert np.allclose(joint_utilities(joint, caps), 0.0)

    def test_unit_rate_scores_one_bit(self):
        # d * c = 0.5 * 2 = 1 -> log2(2) = 1
        caps = flat_caps(1, 2)
        joint = [make_action(0, (0,), 1, (0.0,), (0.0,)),
                 make_action(1, (0,), 1, (0.5,), (0.0,), (0.0,), (0.0,))]
        assert sbs_utility(1, joint, caps) == pytest.approx(1.0, rel=1e-12)

    def test_eta_scales_unlicensed_dl_only(self):
        caps = flat_caps(1, 2, c_u_dl=8.0, c_u_ul=8.0)
        joint = [make_action(0, (0,), 1, (0.0,), (0.0,)),
                 make_action(1, (0,), 1, (0.0,), (0.0,), (0.5,), (0.5,))]
        with_eta = sbs_utility(1, joint, caps, eta=0.7)
        without = sbs_utility(1, joint, caps, eta=0.0)
        # DL term vanishes at eta=0, the tau term stays
        assert without == pytest.approx(math.log2(1 + 0.5 * 8.0), rel=1e-12)
        assert with_eta == pytest.approx(
            math.log2(1 + 0.7 * 0.5 * 8.0) + math.log2(1 + 0.5 * 8.0), rel=1e-12)

    def test_macro_matches_dense_route(self):
        caps = flat_caps(2, 2, c_l_dl=3.0, c_l_ul=5.0)
        joint = [make_action(0, (0, 1), 2, (0.5, 0.5), (1.0, 0.0)),
                 make_action(1, (0,), 2, (0.0,), (0.0,), (0.0,), (0.0,))]
        assert mbs_utility(joint, caps) == pytest.approx(
            joint_utilities(joint, caps)[0], rel=1e-12)

    def test_more_uplink_is_better(self):
        caps = flat_caps(1, 1, c_l_ul=4.0)
        low = [make_action(0, (0,), 1, (0.0,), (0.5,))]
        high = [make_action(0, (0,), 1, (0.0,), (1.0,))]
        assert mbs_utility(high, caps) > mbs_utility(low, caps)

    def test_even_split_beats_skewed(self):
        # strict concavity of log2: equal shares of a common capacity win
        caps = flat_caps(2, 2, c_l_dl=14.0)
        score = lambda d: sbs_utility(1, [
            make_action(0, (), 2, (), ()),
            make_action(1, (0, 1), 2, d, (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)),
        ], caps)
        assert score((0.5, 0.5)) > score((0.8, 0.2)) > score((1.0, 0.0))

    def test_nonnegative_for_sampled_actions(self):
        topo = toy_topology([(0, 1), (0,), (1,)])
        cfg = ScenarioConfig(action_set_size=12)
        rng = np.random.default_rng(0)
        caps = flat_caps(2, 3, *(rng.uniform(0.1, 20.0, size=4)))
        spaces = [enumerate_actions(b, topo, cfg, seed=b) for b in range(3)]
        for _ in range(25):
            joint = [action_at(s, rng.integers(len(s))) for s in spaces]
            assert np.all(settled_utilities(joint, caps) >= 0.0)

    def test_macro_index_guard(self):
        caps = flat_caps(1, 1)
        with pytest.raises(ValueError):
            sbs_utility(0, [make_action(0, (0,), 1, (0.0,), (0.0,))], caps)


class TestConflictResolution:
    def overlapping_joint(self, d1, d2, caps_small=2.0, caps_big=4.0):
        caps = flat_caps(1, 3)
        caps.c_l_dl[0, 1] = caps_small
        caps.c_l_dl[0, 2] = caps_big
        joint = [make_action(0, (), 1, (), ()),
                 make_action(1, (0,), 1, (d1,), (0.0,), (0.0,), (0.0,)),
                 make_action(2, (0,), 1, (d2,), (0.0,), (0.0,), (0.0,))]
        return joint, caps

    def test_better_offer_wins(self):
        joint, caps = self.overlapping_joint(1.0, 1.0)
        settled = settle(joint, caps)
        assert settled[D, 1, 0] == 0.0  # offer 2 loses to offer 4
        assert settled[D, 2, 0] == 1.0

    def test_fraction_weighting_decides(self):
        # BS1 offers 1.0 * 2 = 2, BS2 offers 0.4 * 4 = 1.6: BS1 wins
        joint, caps = self.overlapping_joint(1.0, 0.4)
        settled = settle(joint, caps)
        assert settled[D, 1, 0] == 1.0
        assert settled[D, 2, 0] == 0.0

    def test_tie_goes_to_lower_index(self):
        joint, caps = self.overlapping_joint(1.0, 0.5, caps_small=2.0,
                                             caps_big=4.0)
        # offers 2.0 vs 2.0
        settled = settle(joint, caps)
        assert settled[D, 1, 0] == 1.0
        assert settled[D, 2, 0] == 0.0

    def test_directions_resolved_independently(self):
        caps = flat_caps(1, 3)
        joint = [make_action(0, (), 1, (), ()),
                 make_action(1, (0,), 1, (1.0,), (0.0,), (0.0,), (0.0,)),
                 make_action(2, (0,), 1, (0.0,), (1.0,), (0.0,), (0.0,))]
        settled = settle(joint, caps)
        assert settled[D, 1, 0] == 1.0 and settled[V, 2, 0] == 1.0
        rates = compute_user_rates(settled, caps)
        assert rates.serving_dl[0] == 1 and rates.serving_ul[0] == 2

    def test_resolved_joint_is_rate_safe(self):
        joint, caps = self.overlapping_joint(1.0, 1.0)
        unsettled = np.stack([a.dense() for a in joint], axis=1)
        with pytest.raises(ValueError, match="more than one BS"):
            compute_user_rates(unsettled, caps)
        compute_user_rates(settle(joint, caps), caps)  # no raise

    def test_resolved_utilities_match_two_step_route(self):
        joint, caps = self.overlapping_joint(0.8, 0.9)
        settled = settle(joint, caps)
        direct = resolved_utilities(settled, caps)
        two_step = joint_utilities(settled_actions(joint, settled), caps)
        assert np.allclose(direct, two_step, rtol=1e-12)

    def test_unlicensed_offer_counts_raw_capacity(self):
        # kappa offer uses the full unlicensed capacity, not the
        # eta-discounted one: 0.5*5=2.5 beats d offer 1.0*2=2.0
        caps = flat_caps(1, 3, c_u_dl=5.0)
        joint = [make_action(0, (), 1, (), ()),
                 make_action(1, (0,), 1, (1.0,), (0.0,), (0.0,), (0.0,)),
                 make_action(2, (0,), 1, (0.0,), (0.0,), (0.5,), (0.0,))]
        settled = settle(joint, caps)
        assert settled[D, 1, 0] == 0.0
        assert settled[KAPPA, 2, 0] == 0.5


class TestCoupledResolution:
    def split_offers(self):
        # BS1 has the better DL offer, BS2 the better UL offer
        caps = flat_caps(1, 3)
        caps.c_l_dl[0, 1] = 4.0
        caps.c_l_dl[0, 2] = 2.0
        caps.c_l_ul[0, 1] = 2.0
        caps.c_l_ul[0, 2] = 6.0
        joint = [make_action(0, (), 1, (), ()),
                 make_action(1, (0,), 1, (1.0,), (1.0,), (0.0,), (0.0,)),
                 make_action(2, (0,), 1, (1.0,), (1.0,), (0.0,), (0.0,))]
        return joint, caps

    def test_uplink_follows_downlink(self):
        joint, caps = self.split_offers()
        settled = settle(joint, caps, coupled=True)
        assert settled[D, 1, 0] == 1.0 and settled[V, 1, 0] == 1.0
        assert settled[D, 2, 0] == 0.0 and settled[V, 2, 0] == 0.0

    def test_default_rule_splits_the_same_joint(self):
        joint, caps = self.split_offers()
        rates = compute_user_rates(settle(joint, caps), caps)
        assert rates.serving_dl[0] == 1 and rates.serving_ul[0] == 2
        assert rates.decoupled_users() == 1

    def test_uplink_only_user_gets_best_uplink_cell(self):
        caps = flat_caps(1, 3)
        caps.c_l_ul[0, 1] = 2.0
        caps.c_l_ul[0, 2] = 6.0
        joint = [make_action(0, (), 1, (), ()),
                 make_action(1, (0,), 1, (0.0,), (1.0,), (0.0,), (0.0,)),
                 make_action(2, (0,), 1, (0.0,), (1.0,), (0.0,), (0.0,))]
        settled = settle(joint, caps, coupled=True)
        assert settled[V, 1, 0] == 0.0
        assert settled[V, 2, 0] == 1.0

    def test_never_leaves_decoupled_users(self):
        topo = toy_topology([(0, 1), (0, 1, 2), (2,)])
        cfg = ScenarioConfig(action_set_size=12)
        rng = np.random.default_rng(3)
        caps = flat_caps(3, 3, *(rng.uniform(0.5, 9.0, size=4)))
        spaces = [enumerate_actions(b, topo, cfg, seed=b + 5) for b in range(3)]
        for _ in range(25):
            indices = [rng.integers(len(s)) for s in spaces]
            settled = resolve_conflicts(spaces, indices, caps, coupled=True)
            rates = compute_user_rates(settled, caps)
            assert rates.decoupled_users() == 0

    def test_coupled_utilities_match_two_step_route(self):
        joint, caps = self.split_offers()
        settled = settle(joint, caps, coupled=True)
        direct = resolved_utilities(settled, caps)
        two_step = joint_utilities(settled_actions(joint, settled), caps)
        assert np.allclose(direct, two_step, rtol=1e-12)
        # and it differs from the per-direction settlement
        assert not np.allclose(direct, settled_utilities(joint, caps))


class TestJointEvaluator:
    def test_matches_object_route(self, monkeypatch):
        monkeypatch.setattr(game, "Z_LEVELS", 2)
        topo = toy_topology([(0, 1), (0, 1), (1,)])
        cfg = ScenarioConfig(action_set_size=40)
        spaces = [enumerate_actions(b, topo, cfg, seed=b + 1) for b in range(3)]
        rng = np.random.default_rng(17)
        caps = flat_caps(2, 3, 1.3, 2.9, 4.1, 0.7)
        caps.c_l_dl[:] = rng.uniform(0.5, 9.0, caps.c_l_dl.shape)
        caps.c_l_ul[:] = rng.uniform(0.5, 9.0, caps.c_l_ul.shape)
        caps.c_u_dl[:, 1:] = rng.uniform(0.5, 9.0, (2, 2))
        caps.c_u_ul[:, 1:] = rng.uniform(0.5, 9.0, (2, 2))
        ev = JointEvaluator(spaces, caps)
        batch = rng.integers(0, [len(s) for s in spaces], size=(20, 3))
        fast = ev.batch_utilities(batch)
        for row, indices in zip(fast, batch):
            slow = resolved_utilities(resolve_conflicts(spaces, indices, caps),
                                      caps)
            assert np.allclose(row, slow, rtol=1e-12, atol=1e-12)

    def test_coupled_matches_object_route(self, monkeypatch):
        monkeypatch.setattr(game, "Z_LEVELS", 4)
        topo = toy_topology([(0, 1), (0, 1, 2), (1, 2)])
        cfg = ScenarioConfig(action_set_size=30)
        spaces = [enumerate_actions(b, topo, cfg, seed=b + 9) for b in range(3)]
        rng = np.random.default_rng(23)
        caps = flat_caps(3, 3)
        caps.c_l_dl[:] = rng.uniform(0.5, 9.0, caps.c_l_dl.shape)
        caps.c_l_ul[:] = rng.uniform(0.5, 9.0, caps.c_l_ul.shape)
        caps.c_u_dl[:, 1:] = rng.uniform(0.5, 9.0, (3, 2))
        caps.c_u_ul[:, 1:] = rng.uniform(0.5, 9.0, (3, 2))
        ev = JointEvaluator(spaces, caps, coupled=True)
        batch = rng.integers(0, [len(s) for s in spaces], size=(20, 3))
        fast = ev.batch_utilities(batch)
        for row, indices in zip(fast, batch):
            slow = resolved_utilities(
                resolve_conflicts(spaces, indices, caps, coupled=True), caps)
            assert np.allclose(row, slow, rtol=1e-12, atol=1e-12)

    def uneven_world(self):
        # BS 0 has 2 actions, BS 1 has 5: BS 0's rows 2..4 are zero padding
        topo = toy_topology([(0,), (0,)])
        cfg = ScenarioConfig(action_set_size=5)
        macro = space_of([make_action(0, (0,), 1, (d,), (d,))
                          for d in (0.0, 1.0)])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(game, "Z_LEVELS", 2)
            spaces = [macro, enumerate_actions(1, topo, cfg, seed=3)]
        assert [len(s) for s in spaces] == [2, 5]
        return spaces, flat_caps(1, 2)

    def uneven_evaluator(self):
        return JointEvaluator(*self.uneven_world())

    def test_gather_matches_each_space(self):
        spaces, caps = self.uneven_world()
        caps.c_l_ul[:] = 3.0  # every term of an action reads its own matrix
        caps.c_u_dl[:, 1:] = 5.0
        caps.c_u_ul[:, 1:] = 7.0
        ev = JointEvaluator(spaces, caps)
        # (2 direction, n_bs, max |A|, n_users) per table
        active = ev._active.reshape(2, ev.n_bs, -1, caps.n_users)
        offer, gain = ev._table.reshape(2, 2, ev.n_bs, -1, caps.n_users)
        discount = np.array([[ETA], [1.0]])
        for n, space in enumerate(spaces):
            lic, unl = caps.block[0, :, n], caps.block[1, :, n]
            for i, action in enumerate(actions_of(space)):
                f = action.dense()
                grant = (f[:2] > 0) | (f[2:] > 0)
                assert np.array_equal(active[:, n, i], grant)
                assert np.array_equal(
                    offer[:, n, i],
                    np.where(grant, f[:2] * lic + f[2:] * unl, -1.0))
                assert np.array_equal(
                    gain[:, n, i],
                    np.log2(1.0 + f[:2] * lic + discount * f[2:] * unl))
            # the padding past a smaller space is never an active offer
            assert not active[:, n, len(space):].any()
            assert (offer[:, n, len(space):] == -1.0).all()
            assert not gain[:, n, len(space):].any()
        batch = np.array([[1, 4], [0, 0], [1, 2]])
        want = [settled_utilities(
            [action_at(s, i) for s, i in zip(spaces, row)], caps)
            for row in batch]
        np.testing.assert_allclose(ev.batch_utilities(batch), want,
                                   rtol=1e-12, atol=1e-12)

    def test_index_past_a_smaller_space_raises(self):
        # row 2 of BS 0 exists only as zero padding
        ev = self.uneven_evaluator()
        with pytest.raises(IndexError):
            ev.batch_utilities([[2, 0]])
        with pytest.raises(IndexError):
            ev.batch_utilities([[0, 0], [1, 1], [2, 4]])

    @pytest.mark.parametrize("row", [[-1, 0], [0, -1], [-2, -5]])
    def test_negative_index_raises(self, row):
        with pytest.raises(IndexError):
            self.uneven_evaluator().batch_utilities([row])

    @pytest.mark.parametrize("row", [[0, 5], [5, 0], [1, 99]])
    def test_index_past_the_widest_space_raises(self, row):
        with pytest.raises(IndexError):
            self.uneven_evaluator().batch_utilities([row])

    @pytest.mark.parametrize("coupled", [False, True])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_matches_the_per_batch_oracle_bitwise(self, algorithm, coupled):
        # every gate's spaces at two seeds, their capacities and flat ones
        # (every equal offer a tie), against the per-batch arithmetic
        rng = np.random.default_rng(11)
        for seed in (0, 1):
            spaces, desk_caps = desk_world(algorithm, seed)
            flat = flat_caps(desk_caps.n_users, desk_caps.n_bs)
            for caps in (desk_caps, flat):
                ev = JointEvaluator(spaces, caps, coupled=coupled)
                batch = rng.integers(0, [len(s) for s in spaces],
                                     size=(64, len(spaces)))
                want = batch_utilities_oracle(spaces, caps, batch,
                                              coupled=coupled)
                assert np.array_equal(ev.batch_utilities(batch), want)

    @pytest.mark.parametrize("coupled", [False, True])
    def test_uneven_spaces_match_the_per_batch_oracle_bitwise(self, coupled):
        spaces, caps = self.uneven_world()
        batch = np.array(list(itertools.product(range(2), range(5))))
        ev = JointEvaluator(spaces, caps, coupled=coupled)
        assert np.array_equal(
            ev.batch_utilities(batch),
            batch_utilities_oracle(spaces, caps, batch, coupled=coupled))

    @pytest.mark.parametrize("name", ["c_l_dl", "c_l_ul", "c_u_dl", "c_u_ul"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -1e-300])
    def test_refuses_capacities_that_are_not_finite_and_nonnegative(
            self, name, value):
        spaces, caps = self.uneven_world()
        getattr(caps, name)[0, 1] = value
        with pytest.raises(ValueError, match=f"capacity matrix {name} must "
                                             "be finite and nonnegative"):
            JointEvaluator(spaces, caps)

    def test_row_width_must_match_the_players(self):
        ev = self.uneven_evaluator()
        with pytest.raises(ValueError, match="2 indices"):
            ev.batch_utilities([[0]])
        with pytest.raises(ValueError, match="2 indices"):
            ev.batch_utilities([[0, 0, 0]])


class TestSettleOracle:
    @settings(max_examples=300, deadline=None)
    @given(desk_joints())
    def test_settling_matches_the_per_user_reference(self, case):
        spaces, caps, indices, coupled = case
        joint = [action_at(s, i) for s, i in zip(spaces, indices)]
        want = settle_oracle(joint, caps, coupled)
        settled = resolve_conflicts(spaces, indices, caps, coupled=coupled)
        resolved = settled_actions(joint, settled)
        assert [a.key for a in resolved] == want
        oracle = scalar_utilities(resolved, caps)
        np.testing.assert_allclose(resolved_utilities(settled, caps),
                                   oracle, rtol=1e-12, atol=0.0)
        ev = JointEvaluator(spaces, caps, coupled=coupled)
        np.testing.assert_allclose(ev.batch_utilities([indices])[0], oracle,
                                   rtol=1e-12, atol=0.0)

    @settings(max_examples=100, deadline=None)
    @given(desk_joints())
    def test_resolved_actions_equal_their_rebuilt_tuples(self, case):
        # the block holds each BS's kept fractions and nothing else: zero
        # off its covered users and in the macro cell's unlicensed rows
        spaces, caps, indices, coupled = case
        joint = [action_at(s, i) for s, i in zip(spaces, indices)]
        settled = resolve_conflicts(spaces, indices, caps, coupled=coupled)
        assert settled.shape == (4, len(joint), caps.n_users)
        assert settled.dtype == np.float64
        rebuilt = np.stack([a.dense() for a in settled_actions(joint, settled)],
                           axis=1)
        assert rebuilt.tobytes() == settled.tobytes()
        assert not settled.flags.writeable
        with pytest.raises(ValueError):
            settled[0, 0, 0] = 1.0

    @settings(max_examples=100, deadline=None)
    @given(desk_joints())
    def test_rates_of_a_settled_joint_match_per_user_sums(self, case):
        spaces, caps, indices, coupled = case
        joint = [action_at(s, i) for s, i in zip(spaces, indices)]
        settled = resolve_conflicts(spaces, indices, caps, coupled=coupled)
        rates = compute_user_rates(settled, caps)
        resolved = settled_actions(joint, settled)
        for user in range(caps.n_users):
            for direction, (lic, unl, cap_l, cap_u, got, serving) in enumerate((
                    ("d", "kappa", caps.c_l_dl, caps.c_u_dl, rates.dl_bps,
                     rates.serving_dl),
                    ("v", "tau", caps.c_l_ul, caps.c_u_ul, rates.ul_bps,
                     rates.serving_ul))):
                want, server = 0.0, -1
                for n, action in enumerate(resolved):
                    if user not in action.users:
                        continue
                    pos = action.users.index(user)
                    f_l = getattr(action, lic)[pos]
                    f_u = 0.0 if action.kappa is None else getattr(action, unl)[pos]
                    if f_l > 0 or f_u > 0:
                        assert server == -1, "settled joint grants twice"
                        want = f_l * cap_l[user, n] + f_u * cap_u[user, n]
                        server = n
                assert got[user] == want
                assert serving[user] == server

    def test_oracle_breaks_ties_to_the_lower_bs(self):
        # equal offers 2.0 at BS 1 and BS 2; BS 2's UL offer is alone
        caps = flat_caps(1, 3)
        joint = [make_action(0, (), 1, (), ()),
                 make_action(1, (0,), 1, (1.0,), (0.0,), (0.0,), (0.0,)),
                 make_action(2, (0,), 1, (0.5,), (0.0,), (0.5,), (0.5,))]
        assert settle_oracle(joint, caps) == [
            ((), (), None, None),
            ((1.0,), (0.0,), (0.0,), (0.0,)),
            ((0.0,), (0.0,), (0.0,), (0.5,))]
        # coupled: BS 1's DL offer picks it, so BS 2 loses its UL too
        assert settle_oracle(joint, caps, coupled=True)[2] == (
            (0.0,), (0.0,), (0.0,), (0.0,))


class TestEpsilonGreedy:
    def test_split(self):
        probs = epsilon_greedy(9, 2, 0.7)
        share = 0.7 / 9
        assert probs[2] == pytest.approx(0.3 + share, rel=1e-12)
        assert probs[0] == pytest.approx(share, rel=1e-12)

    def test_two_actions(self):
        assert epsilon_greedy(2, 0, 0.7).tolist() == [0.65, 0.35]


def two_bs_game(c1=2.0, c2=4.0):
    """Macro with a single empty action plus one SBS with two actions, both
    BSs over one shared user."""
    caps = flat_caps(1, 2)
    caps.c_l_dl[0, 1] = c1
    caps.c_l_ul[0, 1] = c2
    idle = make_action(1, (0,), 1, (0.0,), (0.0,), (0.0,), (0.0,))
    busy = make_action(1, (0,), 1, (1.0,), (1.0,), (0.0,), (0.0,))
    mbs_space = space_of([make_action(0, (0,), 1, (0.0,), (0.0,))])
    sbs_space = space_of([idle, busy])
    return caps, mbs_space, sbs_space


def wide_space(owner, size):
    """``size`` distinct one-user actions: licensed DL fractions i/size."""
    fractions = np.zeros((size, 4, 1))
    fractions[:, 0, 0] = np.arange(size) / size
    return ActionSpace(owner=owner, covered_users=(0,), fractions=fractions)


def ne_report(spaces, profile, caps):
    """``verify_mixed_ne`` of a profile, one probability vector per space,
    against the spaces' payoff table."""
    return verify_mixed_ne(profile, joint_payoffs(spaces, caps))


class TestExpectedUtility:
    """Hand-computed entries of ``verify_mixed_ne``'s per-action tables."""

    def test_point_mass_reduces_to_plain_utility(self):
        caps, mbs_space, sbs_space = two_bs_game()
        profile = [point_mass(mbs_space, 0),
                   point_mass(sbs_space, 1)]
        value = ne_report([mbs_space, sbs_space], profile,
                          caps).expected_by_action[1][1]
        joint = [action_at(mbs_space, 0), action_at(sbs_space, 1)]
        assert value == pytest.approx(
            float(settled_utilities(joint, caps)[1]), rel=1e-12)

    def test_uniform_opponent_hand_average(self):
        # macro chooses between idle and serving the shared user; the SBS's
        # payoff for "busy" is averaged over both resolved outcomes
        caps = flat_caps(1, 2)
        caps.c_l_dl[0, 0] = 8.0   # macro offer 8 beats SBS offer 2
        caps.c_l_dl[0, 1] = 2.0
        m_idle = make_action(0, (0,), 1, (0.0,), (0.0,))
        m_busy = make_action(0, (0,), 1, (1.0,), (0.0,))
        mbs_space = space_of([m_idle, m_busy])
        s_busy = make_action(1, (0,), 1, (1.0,), (0.0,), (0.0,), (0.0,))
        sbs_space = space_of([s_busy])
        profile = [np.array([0.5, 0.5]), point_mass(sbs_space, 0)]
        value = ne_report([mbs_space, sbs_space], profile,
                          caps).expected_by_action[1][0]
        # macro idle: SBS keeps the user, log2(1+2); macro busy: SBS loses it
        assert value == pytest.approx(0.5 * math.log2(3.0), rel=1e-12)

    def test_exact_matches_brute_force(self, monkeypatch):
        monkeypatch.setattr(game, "Z_LEVELS", 2)
        topo = toy_topology([(0, 1), (0,), (1,)])
        cfg = ScenarioConfig(action_set_size=10)
        spaces = [enumerate_actions(b, topo, cfg, seed=b) for b in range(3)]
        caps = flat_caps(2, 3, 1.7, 2.3, 3.1, 4.3)
        rng = np.random.default_rng(3)
        profile = []
        for space in spaces:
            raw = rng.uniform(0.1, 1.0, len(space))
            profile.append(raw / raw.sum())
        value = ne_report(spaces, profile, caps).expected_by_action[1][2]
        brute = 0.0
        for i0 in range(len(spaces[0])):
            for i2 in range(len(spaces[2])):
                joint = [action_at(spaces[0], i0), action_at(spaces[1], 2),
                         action_at(spaces[2], i2)]
                weight = profile[0][i0] * profile[2][i2]
                brute += weight * float(settled_utilities(joint, caps)[1])
        assert value == pytest.approx(brute, rel=1e-12)


class TestVerifyMixedNe:
    def test_single_bs_argmax_passes(self):
        caps = flat_caps(1, 1, c_l_dl=2.0, c_l_ul=4.0)
        idle = make_action(0, (0,), 1, (0.0,), (0.0,))
        busy = make_action(0, (0,), 1, (1.0,), (1.0,))
        space = space_of([idle, busy])
        report = ne_report([space], [point_mass(space, 1)], caps)
        assert best_swap(report) == (None, None, 0.0)

    def test_dominated_support_fails(self):
        caps, mbs_space, sbs_space = two_bs_game()
        profile = [point_mass(mbs_space, 0),
                   point_mass(sbs_space, 0)]  # idle, dominated
        bs, action, gain = best_swap(ne_report([mbs_space, sbs_space],
                                               profile, caps))
        assert (bs, action) == (1, 1)
        expected_gain = math.log2(3.0) + math.log2(5.0)
        assert gain == pytest.approx(expected_gain, rel=1e-12)

    def test_dominant_profile_passes(self):
        caps, mbs_space, sbs_space = two_bs_game()
        profile = [point_mass(mbs_space, 0),
                   point_mass(sbs_space, 1)]
        report = ne_report([mbs_space, sbs_space], profile, caps)
        assert best_swap(report) == (None, None, 0.0)
        assert report.expected_current[1] == pytest.approx(
            math.log2(3.0) + math.log2(5.0), rel=1e-12)

    def test_tables_match_expected_utility(self):
        caps, mbs_space, sbs_space = two_bs_game()
        spaces = [mbs_space, sbs_space]
        profile = [point_mass(mbs_space, 0), np.array([0.3, 0.7])]
        report = ne_report(spaces, profile, caps)
        for i in range(2):
            assert report.expected_by_action[1][i] == pytest.approx(
                expected_utility_oracle(1, i, spaces, profile, caps),
                rel=1e-12)

    def test_tables_match_the_oracle_on_three_bs(self):
        topo = toy_topology([(0, 1, 2), (0, 1), (1, 2)])
        cfg = ScenarioConfig(action_set_size=9)
        spaces = [enumerate_actions(b, topo, cfg, seed=b + 5) for b in range(3)]
        caps = flat_caps(3, 3, 2.0, 3.0, 5.0, 7.0)
        profile = [epsilon_greedy(len(s), 1, 0.7) for s in spaces]
        report = ne_report(spaces, profile, caps)
        for n, space in enumerate(spaces):
            for i in range(len(space)):
                assert report.expected_by_action[n][i] == pytest.approx(
                    expected_utility_oracle(n, i, spaces, profile, caps),
                    rel=1e-12)

    def test_oversized_instance_rejected(self):
        # 80^3 joints x 3 players is past the 500,000 enumeration cap
        spaces = [wide_space(n, 80) for n in range(3)]
        with pytest.raises(ValueError, match="too large"):
            joint_payoffs(spaces, flat_caps(1, 3))

    def test_table_of_other_spaces_rejected(self):
        caps, mbs_space, sbs_space = two_bs_game()
        payoffs = joint_payoffs([mbs_space, sbs_space], caps)
        wider = [point_mass(mbs_space, 0), point_mass(wide_space(1, 3), 0)]
        with pytest.raises(ValueError, match="does not match"):
            verify_mixed_ne(wider, payoffs)
        with pytest.raises(ValueError, match="does not match"):
            verify_mixed_ne([point_mass(mbs_space, 0)], payoffs)

    @pytest.mark.parametrize("sbs_probs, message", [
        pytest.param([1.0], "does not match", id="short"),
        pytest.param([0.5, 0.5, 0.0], "does not match", id="long"),
        pytest.param([-0.1, 1.1], "nonnegative", id="negative"),
        pytest.param([0.5, 0.6], "sum to 1", id="sum_1.1"),
        pytest.param([0.3, 0.7 + 1e-11], "sum to 1", id="sum_1+1e-11"),
    ])
    def test_refuses_a_vector_that_is_no_strategy(self, sbs_probs, message):
        caps, mbs_space, sbs_space = two_bs_game()
        payoffs = joint_payoffs([mbs_space, sbs_space], caps)
        with pytest.raises(ValueError, match=message):
            verify_mixed_ne([np.array([1.0]), np.array(sbs_probs)], payoffs)

    def test_sum_within_the_tolerance_is_a_strategy(self):
        caps, mbs_space, sbs_space = two_bs_game()
        payoffs = joint_payoffs([mbs_space, sbs_space], caps)
        profile = [np.array([1.0]), np.array([0.3, 0.7 + 1e-13])]
        report = verify_mixed_ne(profile, payoffs)
        assert report.expected_current[1] == pytest.approx(
            0.3 * report.expected_by_action[1][0]
            + (0.7 + 1e-13) * report.expected_by_action[1][1], rel=1e-12)


class TestJointPayoffs:
    def test_rows_are_lexicographic_and_match_the_oracle(self):
        topo = toy_topology([(0, 1, 2), (0, 1), (1, 2)])
        cfg = ScenarioConfig(action_set_size=7)
        spaces = [enumerate_actions(b, topo, cfg, seed=b) for b in range(3)]
        caps = flat_caps(3, 3, 2.0, 3.0, 5.0, 7.0)
        joints, utilities = joint_payoffs(spaces, caps)
        assert joints.tolist() == [list(j) for j in itertools.product(
            *(range(len(s)) for s in spaces))]
        assert np.array_equal(
            utilities, batch_utilities_oracle(spaces, caps, joints))

    def test_cap_counts_joints_times_players(self):
        # 500 x 500 joints x 2 players is exactly the 500,000 cap
        caps = flat_caps(1, 2)
        joints, utilities = joint_payoffs(
            [wide_space(0, 500), wide_space(1, 500)], caps)
        assert joints.shape == (250_000, 2) and utilities.shape == (250_000, 2)
        with pytest.raises(ValueError, match="250500 joints x 2 players"):
            joint_payoffs([wide_space(0, 500), wide_space(1, 501)], caps)


def read_small_game(path):
    """(sizes, payoff array of shape (*sizes, players)) from the text that
    export_small_game writes."""
    lines = [line.split() for line in path.read_text().splitlines() if line]
    assert lines[0][0] == "players" and lines[1][0] == "actions"
    n_players = int(lines[0][1])
    sizes = [int(tok) for tok in lines[1][1:]]
    assert len(sizes) == n_players
    payoffs = np.zeros((*sizes, n_players))
    for tokens in lines[2:]:
        combo = tuple(int(tok) for tok in tokens[:n_players])
        payoffs[combo] = [float(tok) for tok in tokens[n_players:]]
    return sizes, payoffs


class TestSmallGameExport:
    def test_round_trip(self, tmp_path):
        caps, mbs_space, sbs_space = two_bs_game()
        path = tmp_path / "game.txt"
        export_small_game(
            joint_payoffs([mbs_space, sbs_space], caps), path)
        sizes, payoffs = read_small_game(path)
        assert sizes == [1, 2]
        for j in range(2):
            joint = [action_at(mbs_space, 0), action_at(sbs_space, j)]
            expected = settled_utilities(joint, caps)
            assert np.allclose(payoffs[0, j], expected, rtol=1e-12)

    def test_oversized_export_rejected(self, tmp_path):
        # 80^3 joints x 3 players is past the 500,000 enumeration cap, so
        # no table reaches the export
        spaces = [wide_space(n, 80) for n in range(3)]
        with pytest.raises(ValueError, match="too large"):
            export_small_game(
                joint_payoffs(spaces, flat_caps(1, 3)),
                tmp_path / "g.txt")
        assert not (tmp_path / "g.txt").exists()
