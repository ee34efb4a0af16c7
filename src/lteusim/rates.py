"""Licensed and unlicensed link capacities and per-user achieved rates.

SINR terms depend only on the fixed transmit powers and the channel draw,
never on the allocation fractions, so capacities are computed once per
channel realization and cached in a LinkCapacitySet. A joint allocation
then turns capacities into rates by plain fraction weighting. The rates
table a run leaves is written by ``cli``; nothing here writes a file.

The transmit powers, noise power and bandwidths are the constants below:
the radio of the reference operating point, which no config sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .scenario import LICENSED, UNLICENSED, ChannelRealization

LOG2 = np.log(2.0)


def dbm_to_watt(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


# transmit powers of the macro cell, a small cell and a user, and the
# receiver noise power
P_MBS_W = dbm_to_watt(43.0)
P_SBS_W = dbm_to_watt(30.0)
P_USER_W = dbm_to_watt(20.0)
NOISE_W = dbm_to_watt(-95.0)
# licensed DL and UL carriers, and the unlicensed channel
F_L_DL_HZ = 10e6
F_L_UL_HZ = 10e6
F_U_HZ = 20e6


@dataclass(frozen=True)
class LinkCapacitySet:
    """Cached capacities in bps, shape (n_users, n_bs) each.

    The macro cell has no unlicensed radio: column 0 of the unlicensed
    matrices is identically zero. The unlicensed entries already carry the
    LTE duty-cycle share (``build_capacities``' ``lte_fraction``).
    """

    c_l_dl: np.ndarray
    c_l_ul: np.ndarray
    c_u_dl: np.ndarray
    c_u_ul: np.ndarray

    @property
    def n_users(self) -> int:
        return self.c_l_dl.shape[0]

    @property
    def n_bs(self) -> int:
        return self.c_l_dl.shape[1]

    @cached_property
    def block(self) -> np.ndarray:
        """(2, 2, n_bs, n_users) ``[[c_l_dl, c_l_ul], [c_u_dl, c_u_ul]]``,
        each matrix transposed: band by direction, laid out like a joint's
        ``[[d, v], [kappa, tau]]`` fraction block. Built on first use, so
        the matrices must not change after that."""
        return np.array([[self.c_l_dl.T, self.c_l_ul.T],
                         [self.c_u_dl.T, self.c_u_ul.T]])


def _shannon(bandwidth_hz: float, signal_w, interference_w, noise_w: float):
    return bandwidth_hz * np.log1p(signal_w / (interference_w + noise_w)) / LOG2


def build_capacities(channel: ChannelRealization,
                     lte_fraction: float) -> LinkCapacitySet:
    """Vectorized capacity matrices for every (user, BS) pair."""
    n_bs = channel.gain.shape[1]
    powers = np.full(n_bs, P_SBS_W)
    powers[0] = P_MBS_W

    # licensed DL: all BSs interfere
    rx = channel.gain[:, :, LICENSED] * powers[None, :]
    interf_dl = rx.sum(axis=1, keepdims=True) - rx
    c_l_dl = _shannon(F_L_DL_HZ, rx, interf_dl, NOISE_W)

    # licensed UL: all other users interfere at the serving BS
    rx_ul = channel.gain[:, :, LICENSED] * P_USER_W
    interf_ul = rx_ul.sum(axis=0, keepdims=True) - rx_ul
    c_l_ul = _shannon(F_L_UL_HZ, rx_ul, interf_ul, NOISE_W)

    # unlicensed DL: small cells only, other SBSs interfere
    rx_u = channel.gain[:, :, UNLICENSED] * powers[None, :]
    rx_u[:, 0] = 0.0
    interf_u = rx_u[:, 1:].sum(axis=1, keepdims=True) - rx_u
    c_u_dl = lte_fraction * _shannon(F_U_HZ, rx_u, np.maximum(interf_u, 0.0), NOISE_W)
    c_u_dl[:, 0] = 0.0

    # unlicensed UL: other users interfere at the serving SBS
    rx_uu = channel.gain[:, :, UNLICENSED] * P_USER_W
    interf_uu = rx_uu.sum(axis=0, keepdims=True) - rx_uu
    c_u_ul = lte_fraction * _shannon(F_U_HZ, rx_uu, interf_uu, NOISE_W)
    c_u_ul[:, 0] = 0.0

    return LinkCapacitySet(c_l_dl=c_l_dl, c_l_ul=c_l_ul, c_u_dl=c_u_dl,
                           c_u_ul=c_u_ul)


@dataclass(frozen=True)
class UserRates:
    """Achieved long-term rates per user, plus the serving BS per direction
    (-1 when a direction is not served)."""

    dl_bps: np.ndarray
    ul_bps: np.ndarray
    serving_dl: np.ndarray
    serving_ul: np.ndarray

    @property
    def total_bps(self) -> np.ndarray:
        return self.dl_bps + self.ul_bps

    def decoupled_users(self) -> int:
        """Count of users whose DL and UL are served by different BSs."""
        both = (self.serving_dl >= 0) & (self.serving_ul >= 0)
        return int(np.sum(both & (self.serving_dl != self.serving_ul)))


def check_grants(settled, capacities: LinkCapacitySet) -> np.ndarray:
    """The (2, n_bs, n_users) active grants ``[DL, UL]`` of a settled
    (4, n_bs, n_users) fraction block ``[d, v, kappa, tau]``, as
    ``game.resolve_conflicts`` returns it.

    Raises if two BSs grant the same user a nonzero fraction in the same
    direction; resolve conflicts first.
    """
    n_users, n_bs = capacities.c_l_dl.shape
    if settled.shape != (4, n_bs, n_users):
        raise ValueError("settled block shape does not match the capacity set")
    grants = (settled[:2] > 0) | (settled[2:] > 0)
    # (2, n_users) granting BSs per direction and user
    count = grants.sum(axis=1)
    if (count > 1).any():
        direction, user = np.argwhere(count > 1)[0]
        raise ValueError(f"user {user} is granted a {('DL', 'UL')[direction]} "
                         "allocation by more than one BS")
    return grants


def compute_user_rates(settled, capacities: LinkCapacitySet) -> UserRates:
    """Fraction-weighted rates for a conflict-free joint allocation.

    ``settled`` is the joint's (4, n_bs, n_users) fraction block ``[d, v,
    kappa, tau]``, as ``game.resolve_conflicts`` returns it; it must pass
    ``check_grants``.
    """
    grants = check_grants(settled, capacities)
    # (2 band, 2 direction, n_bs, n_users): [[d, v], [kappa, tau]]
    frac = settled.reshape(2, 2, *settled.shape[1:])
    # at most one BS grants each user and direction, so every sum over the
    # BSs below has a single nonzero term and is exact in any order
    per_band = (frac * capacities.block).sum(axis=2)
    rate = per_band[0] + per_band[1]
    serving = np.where(grants.any(axis=1), grants.argmax(axis=1), -1)
    return UserRates(dl_bps=rate[0], ul_bps=rate[1],
                     serving_dl=serving[0], serving_ul=serving[1])
