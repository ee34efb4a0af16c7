"""Licensed and unlicensed link capacities and per-user achieved rates.

SINR terms depend only on the fixed transmit powers and the channel draw,
never on the allocation fractions, so capacities are computed once per
channel realization and cached in a LinkCapacitySet. A joint allocation
then turns capacities into rates by plain fraction weighting.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .scenario import LICENSED, UNLICENSED, ChannelRealization, ScenarioConfig

LOG2 = np.log(2.0)


@dataclass(frozen=True)
class LinkCapacitySet:
    """Cached capacities in bps, shape (n_users, n_bs) each.

    The macro cell has no unlicensed radio: column 0 of the unlicensed
    matrices is identically zero. ``lte_fraction`` is the duty-cycle share
    already folded into the unlicensed entries.
    """

    c_l_dl: np.ndarray
    c_l_ul: np.ndarray
    c_u_dl: np.ndarray
    c_u_ul: np.ndarray
    lte_fraction: float

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

    def without_unlicensed(self) -> "LinkCapacitySet":
        zero = np.zeros_like(self.c_u_dl)
        return LinkCapacitySet(self.c_l_dl, self.c_l_ul, zero, zero.copy(),
                               self.lte_fraction)


def _shannon(bandwidth_hz: float, signal_w, interference_w, noise_w: float):
    return bandwidth_hz * np.log1p(signal_w / (interference_w + noise_w)) / LOG2


def build_capacities(channel: ChannelRealization, config: ScenarioConfig,
                     lte_fraction: float) -> LinkCapacitySet:
    """Vectorized capacity matrices for every (user, BS) pair."""
    n_users, n_bs = channel.gain.shape[:2]
    noise = config.noise_power_w
    powers = np.array([config.bs_power_w(j) for j in range(n_bs)])

    # licensed DL: all BSs interfere
    rx = channel.gain[:, :, LICENSED] * powers[None, :]
    interf_dl = rx.sum(axis=1, keepdims=True) - rx
    c_l_dl = _shannon(config.f_l_dl_hz, rx, interf_dl, noise)

    # licensed UL: all other users interfere at the serving BS
    rx_ul = channel.gain[:, :, LICENSED] * config.user_power_w
    interf_ul = rx_ul.sum(axis=0, keepdims=True) - rx_ul
    c_l_ul = _shannon(config.f_l_ul_hz, rx_ul, interf_ul, noise)

    # unlicensed DL: small cells only, other SBSs interfere
    rx_u = channel.gain[:, :, UNLICENSED] * powers[None, :]
    rx_u[:, 0] = 0.0
    interf_u = rx_u[:, 1:].sum(axis=1, keepdims=True) - rx_u
    c_u_dl = lte_fraction * _shannon(config.f_u_hz, rx_u, np.maximum(interf_u, 0.0), noise)
    c_u_dl[:, 0] = 0.0

    # unlicensed UL: other users interfere at the serving SBS
    rx_uu = channel.gain[:, :, UNLICENSED] * config.user_power_w
    interf_uu = rx_uu.sum(axis=0, keepdims=True) - rx_uu
    c_u_ul = lte_fraction * _shannon(config.f_u_hz, rx_uu, interf_uu, noise)
    c_u_ul[:, 0] = 0.0

    return LinkCapacitySet(c_l_dl=c_l_dl, c_l_ul=c_l_ul, c_u_dl=c_u_dl,
                           c_u_ul=c_u_ul, lte_fraction=lte_fraction)


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

    def write_csv(self, path) -> None:
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["user", "dl_bps", "ul_bps", "serving_dl", "serving_ul"])
            for i in range(len(self.dl_bps)):
                writer.writerow([
                    i,
                    format(self.dl_bps[i], ".9g"),
                    format(self.ul_bps[i], ".9g"),
                    int(self.serving_dl[i]),
                    int(self.serving_ul[i]),
                ])


def compute_user_rates(settled, capacities: LinkCapacitySet) -> UserRates:
    """Fraction-weighted rates for a conflict-free joint allocation.

    ``settled`` is the joint's (4, n_bs, n_users) fraction block ``[d, v,
    kappa, tau]``, as ``game.resolve_conflicts`` returns it. Raises if two
    BSs grant the same user a nonzero fraction in the same direction;
    resolve conflicts first.
    """
    n_users, n_bs = capacities.c_l_dl.shape
    if settled.shape != (4, n_bs, n_users):
        raise ValueError("settled block shape does not match the capacity set")
    # (2 band, 2 direction, n_bs, n_users): [[d, v], [kappa, tau]]
    frac = settled.reshape(2, 2, n_bs, n_users)

    grants = (frac[0] > 0) | (frac[1] > 0)
    # (2, n_users) granting BSs per direction and user
    count = grants.sum(axis=1)
    if (count > 1).any():
        direction, user = np.argwhere(count > 1)[0]
        raise ValueError(f"user {user} is granted a {('DL', 'UL')[direction]} "
                         "allocation by more than one BS")

    # at most one BS grants each user and direction, so every sum over the
    # BSs below has a single nonzero term and is exact in any order
    per_band = (frac * capacities.block).sum(axis=2)
    rate = per_band[0] + per_band[1]
    serving = np.where(count > 0, grants.argmax(axis=1), -1)
    return UserRates(dl_bps=rate[0], ul_bps=rate[1],
                     serving_dl=serving[0], serving_ul=serving[1])
