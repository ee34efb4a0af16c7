"""Analytical WiFi contention model and the airtime split with LTE-U.

A WAP's saturation throughput follows the RTS/CTS analysis of G. Bianchi,
"Performance analysis of the IEEE 802.11 distributed coordination
function" (IEEE JSAC, 2000): each station transmits in a slot with
probability tau, the fixed point between the backoff law and the collision
probability. LTE-U gets the largest airtime share that leaves each WiFi
user its required rate; ``lte_fraction`` checks that guarantee where it
computes the share, allowing WiFi a shortfall of one unit in the last
place of its airtime. Timing and frame sizes are the fixed 802.11n-style
constants below, which no caller varies, so every quantity here is a
function of the station count ``n_wifi``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

CW_MIN = 16
BACKOFF_STAGES = 6
_MAX_FIXED_POINT_ITERS = 100_000

SLOT_TIME_S = 9e-6
SIFS_S = 16e-6
DIFS_S = 34e-6
RTS_BITS = 352
CTS_BITS = 304
ACK_BITS = 304
HEADER_BITS = 416
PAYLOAD_BITS = 12000
CHANNEL_BPS = 130e6

# channel-busy time of a successful RTS/CTS exchange and of an RTS collision
T_SUCCESS_S = ((RTS_BITS + CTS_BITS + HEADER_BITS + PAYLOAD_BITS + ACK_BITS)
               / CHANNEL_BPS + 3.0 * SIFS_S + DIFS_S)
T_COLLISION_S = RTS_BITS / CHANNEL_BPS + DIFS_S


def tx_probability(n_wifi: int) -> float:
    """Per-slot transmission probability from the backoff fixed point.

    Solves tau = 2 / (1 + W + p W sum_{i<m} (2p)^i) jointly with
    p = 1 - (1 - tau)^(N_w - 1) by damped iteration, with W = ``CW_MIN``
    and m = ``BACKOFF_STAGES``. The series form of the denominator stays
    finite at p = 1/2 where the closed form has a removable singularity.
    """
    if n_wifi < 1:
        raise ValueError("n_wifi must be at least 1")
    tau = 2.0 / (CW_MIN + 1.0)
    for _ in range(_MAX_FIXED_POINT_ITERS):
        p = 1.0 - (1.0 - tau) ** (n_wifi - 1)
        series = sum((2.0 * p) ** i for i in range(BACKOFF_STAGES))
        nxt = 2.0 / (1.0 + CW_MIN + p * CW_MIN * series)
        if abs(nxt - tau) < 1e-12:
            return nxt
        tau = 0.5 * tau + 0.5 * nxt
    raise ValueError(f"tau fixed point did not converge for n_wifi={n_wifi}")


def event_probabilities(tau: float, n_wifi: int) -> tuple[float, float]:
    """(P_tr, P_s): some station transmits in a slot, and a transmission
    slot holds exactly one transmitter. Clamped against one-ulp overshoot."""
    p_tr = 1.0 - (1.0 - tau) ** n_wifi
    p_s = min(1.0, n_wifi * tau * (1.0 - tau) ** (n_wifi - 1) / p_tr)
    return p_tr, p_s


def throughput_at(tau: float, n_wifi: int) -> float:
    """Aggregate throughput, in bps, of ``n_wifi`` stations that each
    transmit in a slot with probability ``tau``."""
    p_tr, p_s = event_probabilities(tau, n_wifi)
    denom = ((1.0 - p_tr) * SLOT_TIME_S
             + p_tr * p_s * T_SUCCESS_S
             + p_tr * (1.0 - p_s) * T_COLLISION_S)
    return p_tr * p_s * PAYLOAD_BITS / denom


def saturation_throughput(n_wifi: int) -> float:
    """Aggregate WiFi throughput R(N_w) of the contention domain, in bps."""
    return throughput_at(tx_probability(n_wifi), n_wifi)


@dataclass(frozen=True)
class DutyCycle:
    """Airtime split of an unlicensed channel.

    ``lte_share`` is the fraction of slots granted to LTE-U;
    ``wifi_overloaded`` flags that WiFi demand alone exceeds the channel,
    in which case LTE-U gets nothing.
    """

    lte_share: float
    wifi_overloaded: bool = False


def lte_fraction(n_wifi: int, r_w: float, capacity: float) -> DutyCycle:
    """Largest LTE-U airtime share leaving each of ``n_wifi`` WiFi users at
    least ``r_w`` bps. ``capacity`` is the domain's aggregate throughput
    ``saturation_throughput(n_wifi)``, which the caller solves once per
    station count. The demand ``r_w`` must be finite and nonnegative and
    ``n_wifi`` at least 1; any other value is refused.

    With aggregate WiFi throughput R, the WiFi side keeps (1 - L) of the
    airtime and splits it over N_w users, so L = 1 - N_w r_w / R clamped
    to [0, 1]. Unless WiFi is overloaded, the share is checked to leave
    (1 - L) R >= N_w r_w, short by at most R * 2**-52: rounding L to a
    float may cost WiFi up to one unit in its last place, which a demand
    far below R cannot absorb (``RuntimeError`` past that).
    """
    if not (math.isfinite(r_w) and r_w >= 0.0):
        raise ValueError("the WiFi rate requirement must be nonnegative and "
                         f"finite, got {r_w!r}")
    if n_wifi < 1:
        raise ValueError("n_wifi must be at least 1")
    demand = n_wifi * r_w
    if demand > capacity:
        return DutyCycle(lte_share=0.0, wifi_overloaded=True)
    share = min(1.0, 1.0 - demand / capacity)
    if capacity * (1.0 - share) < demand - capacity * 2.0**-52:
        raise RuntimeError("WiFi guarantee failed: LTE-U share "
                           f"{share!r} leaves less than {demand!r} bps")
    return DutyCycle(lte_share=share)


def duty_cycle_for_config(config) -> DutyCycle:
    """Duty cycle for a scenario: ``wifi_users_per_wap`` stations share one
    contention domain, each demanding ``wifi_rate_req_bps``. Zero stations
    means no WiFi, and LTE-U gets all of the airtime."""
    n_wifi = config.wifi_users_per_wap
    if n_wifi == 0:
        return DutyCycle(lte_share=1.0)
    return lte_fraction(n_wifi, config.wifi_rate_req_bps,
                        saturation_throughput(n_wifi))
