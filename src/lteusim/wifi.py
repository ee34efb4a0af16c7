"""Analytical WiFi contention model and the airtime split with LTE-U.

A WAP's saturation throughput follows the classic RTS/CTS slotted-contention
analysis: every station transmits in a slot with probability ``tau_prob``,
found as the fixed point between the backoff law and the collision
probability. The duty-cycle share handed to LTE-U is then the largest
fraction that leaves each WiFi user its required rate.
"""

from __future__ import annotations

from dataclasses import dataclass

CW_MIN = 16
BACKOFF_STAGES = 6
_MAX_FIXED_POINT_ITERS = 100_000


@dataclass(frozen=True)
class WifiParams:
    """One contention domain: N_w saturated stations plus timing constants.

    Bit counts and times are 802.11n-style defaults; ``payload_info_bits``
    is the useful payload counted in the throughput numerator (equal to the
    average packet size unless a distinct value is known).
    """

    n_wifi: int
    tau_prob: float
    slot_time_s: float = 9e-6
    sifs_s: float = 16e-6
    difs_s: float = 34e-6
    prop_delay_s: float = 0.0
    rts_bits: int = 352
    cts_bits: int = 304
    ack_bits: int = 304
    header_bits: int = 416
    payload_bits: int = 12000
    channel_bps: float = 130e6
    payload_info_bits: int = 12000

    def __post_init__(self):
        if self.n_wifi < 1:
            raise ValueError("n_wifi must be at least 1")
        if not 0.0 < self.tau_prob < 1.0:
            raise ValueError("tau_prob must lie strictly inside (0, 1)")
        for name in ("slot_time_s", "sifs_s", "difs_s", "prop_delay_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("rts_bits", "cts_bits", "ack_bits", "header_bits",
                     "payload_bits", "payload_info_bits"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.channel_bps <= 0:
            raise ValueError("channel_bps must be positive")


def tx_probability(cw_min: int, backoff_stages: int, n_wifi: int) -> float:
    """Per-slot transmission probability from the backoff fixed point.

    Solves tau = 2 / (1 + W + p W sum_{i<m} (2p)^i) jointly with
    p = 1 - (1 - tau)^(N_w - 1) by damped iteration. The series form of the
    denominator stays finite at p = 1/2 where the closed form has a
    removable singularity.
    """
    if cw_min < 2:
        raise ValueError("cw_min must be at least 2")
    if backoff_stages < 0:
        raise ValueError("backoff_stages must be nonnegative")
    if n_wifi < 1:
        raise ValueError("n_wifi must be at least 1")

    def backoff_tau(p: float) -> float:
        series = sum((2.0 * p) ** i for i in range(backoff_stages))
        return 2.0 / (1.0 + cw_min + p * cw_min * series)

    tau = 2.0 / (cw_min + 1.0)
    for _ in range(_MAX_FIXED_POINT_ITERS):
        p = 1.0 - (1.0 - tau) ** (n_wifi - 1)
        nxt = backoff_tau(p)
        if abs(nxt - tau) < 1e-12:
            return nxt
        tau = 0.5 * tau + 0.5 * nxt
    raise ValueError("transmission-probability fixed point did not converge; "
                     "check cw_min/backoff_stages/n_wifi")


def default_params(n_wifi: int) -> WifiParams:
    """Standard contention domain with tau solved for ``n_wifi`` stations."""
    return WifiParams(n_wifi=n_wifi,
                      tau_prob=tx_probability(CW_MIN, BACKOFF_STAGES, n_wifi))


def t_success(params: WifiParams) -> float:
    """Channel-busy time of a successful RTS/CTS exchange, in seconds."""
    c = params.channel_bps
    on_air = (params.rts_bits + params.cts_bits + params.header_bits
              + params.payload_bits + params.ack_bits) / c
    return on_air + 3.0 * params.sifs_s + params.difs_s + 4.0 * params.prop_delay_s


def t_collision(params: WifiParams) -> float:
    """Channel-busy time of an RTS collision, in seconds."""
    return params.rts_bits / params.channel_bps + params.difs_s + params.prop_delay_s


def event_probabilities(params: WifiParams) -> tuple[float, float]:
    """(P_tr, P_s): some station transmits in a slot, and a transmission
    slot holds exactly one transmitter. Clamped against one-ulp overshoot."""
    tau, n = params.tau_prob, params.n_wifi
    p_tr = 1.0 - (1.0 - tau) ** n
    p_s = min(1.0, n * tau * (1.0 - tau) ** (n - 1) / p_tr)
    return p_tr, p_s


def saturation_throughput(params: WifiParams) -> float:
    """Aggregate WiFi throughput R(N_w) of the contention domain, in bps."""
    p_tr, p_s = event_probabilities(params)
    denom = ((1.0 - p_tr) * params.slot_time_s
             + p_tr * p_s * t_success(params)
             + p_tr * (1.0 - p_s) * t_collision(params))
    return p_tr * p_s * params.payload_info_bits / denom


@dataclass(frozen=True)
class DutyCycle:
    """Airtime split of an unlicensed channel.

    ``lte_share`` is the fraction of slots granted to LTE-U;
    ``wifi_overloaded`` flags that WiFi demand alone exceeds the channel,
    in which case LTE-U gets nothing.
    """

    lte_share: float
    wifi_overloaded: bool = False


def lte_fraction(params: WifiParams, r_w: float) -> DutyCycle:
    """Largest LTE-U airtime share leaving each WiFi user at least r_w bps.

    With aggregate WiFi throughput R, the WiFi side keeps (1 - L) of the
    airtime and splits it over N_w users, so L = 1 - N_w r_w / R clamped
    to [0, 1].
    """
    if r_w < 0:
        raise ValueError("the WiFi rate requirement must be nonnegative")
    capacity = saturation_throughput(params)
    demand = params.n_wifi * r_w
    if demand > capacity:
        return DutyCycle(lte_share=0.0, wifi_overloaded=True)
    return DutyCycle(lte_share=min(1.0, 1.0 - demand / capacity))


def duty_cycle_for_config(config) -> DutyCycle:
    """Duty cycle for a scenario: each WAP is its own contention domain and
    the LTE-U share is the one every domain can tolerate (the minimum).
    Every domain holds the same number of stations with the same rate
    requirement, so one split stands for all of them."""
    if config.n_waps == 0:
        return DutyCycle(lte_share=1.0)
    return lte_fraction(default_params(config.wifi_users_per_wap),
                        config.wifi_rate_req_bps)
