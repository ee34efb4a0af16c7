"""Per-action reference code for the array-based action spaces of
``lteusim.game``.

``Action`` is a plain view of one action as per-covered-user tuples, with
builders to and from ``ActionSpace``. The per-action loops that
``validate_space``, ``restrict_coupled`` and ``restrict_licensed_only``
replaced are kept here as oracles for them.
"""

from typing import NamedTuple

import numpy as np

from lteusim.game import (ActionSpace, MixedStrategy, Violation,
                          resolve_conflicts)


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


def point_mass(space: ActionSpace, index: int) -> MixedStrategy:
    probs = [0.0] * len(space)
    probs[index] = 1.0
    return MixedStrategy(space=space, probs=tuple(probs))


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
