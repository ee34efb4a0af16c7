"""Contention fixed point, saturation throughput, and the LTE-U airtime share.

Reference numbers were produced ahead of time by standalone oracles (scalar
bisection for the fixed point, high-precision arithmetic for the throughput
formula) and are frozen here; the bisection and the high-precision route are
additionally re-run in-test as independent cross-checks.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lteusim.scenario import ScenarioConfig
from lteusim.wifi import (
    ACK_BITS,
    BACKOFF_STAGES,
    CHANNEL_BPS,
    CTS_BITS,
    CW_MIN,
    DIFS_S,
    HEADER_BITS,
    PAYLOAD_BITS,
    RTS_BITS,
    SIFS_S,
    SLOT_TIME_S,
    T_COLLISION_S,
    T_SUCCESS_S,
    duty_cycle_for_config,
    event_probabilities,
    lte_fraction,
    saturation_throughput,
    throughput_at,
    tx_probability,
)

# fixed point of {tau(p), p(tau)} at cw_min=16, stages=6, solved by bisection
TAU_REF = {
    1: 0.11764705882352941,  # exactly 2/17
    2: 0.10462063228196894,
    3: 0.093389945164376023,
    4: 0.083961413395365649,
    8: 0.059719034218869662,
    20: 0.033916997800185862,
}
# throughput at the module's timing constants, from the high-precision oracle
RATE_REF = {
    1: 47545030.629971654,
    2: 53203419.622477581,
    4: 55865256.058615432,
    8: 56633578.280694239,
}
T_SUCCESS_REF = 1.848923076923077e-4
T_COLLISION_REF = 3.6707692307692307e-05


def bisect_tau(n_wifi, cw_min=CW_MIN, stages=BACKOFF_STAGES):
    """Independent route: bisection on g(tau) = backoff(collision(tau)) - tau."""

    def residual(tau):
        p = 1.0 - (1.0 - tau) ** (n_wifi - 1)
        series = sum((2.0 * p) ** i for i in range(stages))
        return 2.0 / (1.0 + cw_min + p * cw_min * series) - tau

    lo, hi = 1e-9, 1.0 - 1e-9
    assert residual(lo) > 0 > residual(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestTxProbability:
    def test_single_station_closed_form(self):
        # no collisions: tau = 2 / (cw_min + 1)
        assert tx_probability(1) == pytest.approx(2.0 / (CW_MIN + 1),
                                                  abs=1e-14)

    @pytest.mark.parametrize("n_wifi", sorted(TAU_REF))
    def test_frozen_reference_values(self, n_wifi):
        assert tx_probability(n_wifi) == pytest.approx(
            TAU_REF[n_wifi], abs=1e-11)

    @pytest.mark.parametrize("n_wifi", [2, 4, 7, 13])
    def test_agrees_with_bisection(self, n_wifi):
        assert tx_probability(n_wifi) == pytest.approx(
            bisect_tau(n_wifi), abs=1e-10)

    def test_is_a_fixed_point(self):
        tau = tx_probability(4)
        p = 1.0 - (1.0 - tau) ** 3
        series = sum((2.0 * p) ** i for i in range(BACKOFF_STAGES))
        assert 2.0 / (1.0 + CW_MIN + p * CW_MIN * series) == pytest.approx(
            tau, abs=1e-11)

    def test_strictly_decreasing_in_stations(self):
        taus = [tx_probability(n) for n in range(1, 21)]
        assert all(a > b for a, b in zip(taus, taus[1:]))

    @pytest.mark.parametrize("quantity", [
        tx_probability, saturation_throughput,
        lambda n_wifi: lte_fraction(n_wifi, 1e6, saturation_throughput(1)),
    ], ids=["tx_probability", "saturation_throughput", "lte_fraction"])
    def test_rejects_no_stations(self, quantity):
        with pytest.raises(ValueError, match="n_wifi must be at least 1"):
            quantity(0)


class TestBusyTimes:
    def test_success_time(self):
        assert T_SUCCESS_S == pytest.approx(T_SUCCESS_REF, rel=1e-12)
        # exact rational route: (352+304+416+12000+304)/130e6 + 48e-6 + 34e-6
        exact = Fraction(352 + 304 + 416 + 12000 + 304, 130_000_000) \
            + Fraction(82, 1_000_000)
        assert T_SUCCESS_S == pytest.approx(float(exact), rel=1e-15)

    def test_collision_time(self):
        assert T_COLLISION_S == pytest.approx(T_COLLISION_REF, rel=1e-12)
        # exact rational route: 352/130e6 + 34e-6
        exact = Fraction(352, 130_000_000) + Fraction(34, 1_000_000)
        assert T_COLLISION_S == pytest.approx(float(exact), rel=1e-15)


def throughput_highprec(n: int) -> float:
    """Independent high-precision evaluation of the throughput formula,
    with the busy times rebuilt from the frame sizes and the channel rate."""
    with mpmath.workdps(50):
        tau = mpmath.mpf(tx_probability(n))
        c = mpmath.mpf(CHANNEL_BPS)
        ts = (RTS_BITS + CTS_BITS + HEADER_BITS + PAYLOAD_BITS
              + ACK_BITS) / c + 3 * mpmath.mpf(SIFS_S) + mpmath.mpf(DIFS_S)
        tc = RTS_BITS / c + mpmath.mpf(DIFS_S)
        p_tr = 1 - (1 - tau) ** n
        p_s = n * tau * (1 - tau) ** (n - 1) / p_tr
        denom = (1 - p_tr) * mpmath.mpf(SLOT_TIME_S) \
            + p_tr * p_s * ts + p_tr * (1 - p_s) * tc
        return float(p_tr * p_s * PAYLOAD_BITS / denom)


class TestSaturationThroughput:
    @pytest.mark.parametrize("n_wifi", sorted(RATE_REF))
    def test_frozen_reference_values(self, n_wifi):
        assert saturation_throughput(n_wifi) == pytest.approx(
            RATE_REF[n_wifi], rel=1e-12)

    @pytest.mark.parametrize("n_wifi", [1, 3, 4, 9])
    def test_matches_highprec_route(self, n_wifi):
        assert saturation_throughput(n_wifi) == pytest.approx(
            throughput_highprec(n_wifi), rel=1e-12)

    def test_always_transmit_limit(self):
        # one station, tau -> 1: every slot is a success, R -> E[S] / T_s
        assert throughput_at(1.0 - 1e-13, 1) == pytest.approx(
            PAYLOAD_BITS / T_SUCCESS_S, rel=1e-9)

    def test_silent_limit(self):
        assert throughput_at(1e-9, 4) < 10.0  # bps, essentially idle

    @given(tau=st.floats(0.01, 0.99), n_wifi=st.integers(1, 30))
    @settings(max_examples=200, deadline=None)
    def test_event_probabilities_stay_in_range(self, tau, n_wifi):
        p_tr, p_s = event_probabilities(tau, n_wifi)
        assert 0.0 <= p_tr <= 1.0
        assert 0.0 <= p_s <= 1.0
        assert throughput_at(tau, n_wifi) > 0.0


def share(n_wifi, r_w):
    """The LTE-U split of one domain, its capacity solved here."""
    return lte_fraction(n_wifi, r_w, saturation_throughput(n_wifi))


class TestLteFraction:
    def test_no_wifi_demand(self):
        assert share(4, 0.0).lte_share == 1.0

    def test_boundary_and_midpoint(self):
        capacity = saturation_throughput(4)
        at_cap = lte_fraction(4, capacity / 4, capacity)
        assert at_cap.lte_share == pytest.approx(0.0, abs=1e-12)
        assert not at_cap.wifi_overloaded
        half = lte_fraction(4, capacity / 8, capacity)
        assert half.lte_share == pytest.approx(0.5, rel=1e-12)

    def test_overload_flag(self):
        overloaded = share(4, saturation_throughput(4))
        assert overloaded.lte_share == 0.0
        assert overloaded.wifi_overloaded

    def test_negative_requirement_rejected(self):
        with pytest.raises(ValueError):
            share(4, -1.0)

    @pytest.mark.parametrize("r_w", [math.nan, math.inf])
    def test_non_finite_requirement_rejected(self, r_w):
        # NaN would read as no demand and inf as an overload
        with pytest.raises(ValueError, match="the WiFi rate requirement must "
                           f"be nonnegative and finite, got {r_w!r}"):
            share(4, r_w)

    @pytest.mark.parametrize("r_w", [1, 10, 1e3, 1e5, 1e6, 4e6, 1.2e7])
    def test_wifi_rate_guarantee(self, r_w):
        # in exact arithmetic: WiFi's airtime (1 - L) R covers the demand
        # N_w r_w, short by at most one unit in the last place of R; a
        # demand far below R loses its digits to the rounding of L
        for n_wifi in (1, 2, 4, 5, 7, 16, 59, 100, 200, 500):
            split = share(n_wifi, r_w)
            if split.wifi_overloaded:
                continue
            capacity = Fraction(saturation_throughput(n_wifi))
            airtime = capacity * (1 - Fraction(split.lte_share))
            assert airtime >= n_wifi * Fraction(r_w) - capacity / 2**52

    def test_nonincreasing_in_stations_and_demand(self):
        shares = [share(n, 4e6).lte_share for n in range(1, 13)]
        assert all(a >= b for a, b in zip(shares, shares[1:]))
        by_demand = [share(4, r).lte_share
                     for r in (0.0, 1e6, 4e6, 8e6, 1.4e7, 5e7)]
        assert all(a >= b for a, b in zip(by_demand, by_demand[1:]))


class TestScenarioDutyCycle:
    def test_matches_single_domain(self):
        cfg = ScenarioConfig()
        split = duty_cycle_for_config(cfg)
        direct = share(cfg.wifi_users_per_wap, cfg.wifi_rate_req_bps)
        assert split.lte_share == direct.lte_share

    def test_no_waps_means_full_airtime(self):
        cfg = ScenarioConfig(n_waps=0)
        split = duty_cycle_for_config(cfg)
        assert split.lte_share == 1.0 and not split.wifi_overloaded

    def test_overloaded_scenario(self):
        cfg = ScenarioConfig(wifi_rate_req_bps=5e7)
        split = duty_cycle_for_config(cfg)
        assert split.lte_share == 0.0 and split.wifi_overloaded

