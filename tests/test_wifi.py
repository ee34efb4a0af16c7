"""Contention fixed point, saturation throughput, and the LTE-U airtime share.

Reference numbers were produced ahead of time by standalone oracles (scalar
bisection for the fixed point, high-precision arithmetic for the throughput
formula) and are frozen here; the bisection and the high-precision route are
additionally re-run in-test as independent cross-checks.
"""

from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lteusim.scenario import ScenarioConfig
from lteusim.wifi import (
    BACKOFF_STAGES,
    CW_MIN,
    WifiParams,
    default_params,
    duty_cycle_for_config,
    event_probabilities,
    lte_fraction,
    saturation_throughput,
    t_collision,
    t_success,
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
# throughput at the reference timing constants, from the high-precision oracle
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
        assert tx_probability(16, 6, 1) == pytest.approx(2.0 / 17.0, abs=1e-14)
        assert tx_probability(32, 5, 1) == pytest.approx(2.0 / 33.0, abs=1e-14)

    @pytest.mark.parametrize("n_wifi", sorted(TAU_REF))
    def test_frozen_reference_values(self, n_wifi):
        assert tx_probability(CW_MIN, BACKOFF_STAGES, n_wifi) == pytest.approx(
            TAU_REF[n_wifi], abs=1e-11)

    @pytest.mark.parametrize("n_wifi", [2, 4, 7, 13])
    def test_agrees_with_bisection(self, n_wifi):
        assert tx_probability(CW_MIN, BACKOFF_STAGES, n_wifi) == pytest.approx(
            bisect_tau(n_wifi), abs=1e-10)

    def test_is_a_fixed_point(self):
        tau = tx_probability(CW_MIN, BACKOFF_STAGES, 4)
        p = 1.0 - (1.0 - tau) ** 3
        series = sum((2.0 * p) ** i for i in range(BACKOFF_STAGES))
        assert 2.0 / (1.0 + CW_MIN + p * CW_MIN * series) == pytest.approx(
            tau, abs=1e-11)

    def test_strictly_decreasing_in_stations(self):
        taus = [tx_probability(CW_MIN, BACKOFF_STAGES, n) for n in range(1, 21)]
        assert all(a > b for a, b in zip(taus, taus[1:]))

    @pytest.mark.parametrize("bad", [
        dict(cw_min=1, backoff_stages=6, n_wifi=4),
        dict(cw_min=16, backoff_stages=-1, n_wifi=4),
        dict(cw_min=16, backoff_stages=6, n_wifi=0),
    ])
    def test_rejects_bad_arguments(self, bad):
        with pytest.raises(ValueError):
            tx_probability(**bad)


class TestBusyTimes:
    def test_success_time(self):
        params = default_params(4)
        assert t_success(params) == pytest.approx(T_SUCCESS_REF, rel=1e-12)
        # exact rational route: (352+304+416+12000+304)/130e6 + 48e-6 + 34e-6
        exact = Fraction(352 + 304 + 416 + 12000 + 304, 130_000_000) \
            + Fraction(82, 1_000_000)
        assert t_success(params) == pytest.approx(float(exact), rel=1e-15)

    def test_collision_time(self):
        assert t_collision(default_params(4)) == pytest.approx(
            T_COLLISION_REF, rel=1e-12)

    def test_propagation_delay_terms(self):
        base = default_params(4)
        delayed = replace(default_params(4), prop_delay_s=1e-6)
        assert t_success(delayed) - t_success(base) == pytest.approx(4e-6, rel=1e-9)
        assert t_collision(delayed) - t_collision(base) == pytest.approx(
            1e-6, rel=1e-9)

    def test_faster_channel_shortens_both(self):
        base = default_params(4)
        fast = replace(default_params(4), channel_bps=2 * base.channel_bps)
        assert t_success(fast) < t_success(base)
        assert t_collision(fast) < t_collision(base)


def throughput_highprec(params: WifiParams) -> float:
    """Independent high-precision evaluation of the throughput formula."""
    with mpmath.workdps(50):
        tau = mpmath.mpf(params.tau_prob)
        n = params.n_wifi
        c = mpmath.mpf(params.channel_bps)
        ts = (params.rts_bits + params.cts_bits + params.header_bits
              + params.payload_bits + params.ack_bits) / c \
            + 3 * mpmath.mpf(params.sifs_s) + mpmath.mpf(params.difs_s) \
            + 4 * mpmath.mpf(params.prop_delay_s)
        tc = params.rts_bits / c + mpmath.mpf(params.difs_s) \
            + mpmath.mpf(params.prop_delay_s)
        p_tr = 1 - (1 - tau) ** n
        p_s = n * tau * (1 - tau) ** (n - 1) / p_tr
        denom = (1 - p_tr) * mpmath.mpf(params.slot_time_s) \
            + p_tr * p_s * ts + p_tr * (1 - p_s) * tc
        return float(p_tr * p_s * params.payload_info_bits / denom)


class TestSaturationThroughput:
    @pytest.mark.parametrize("n_wifi", sorted(RATE_REF))
    def test_frozen_reference_values(self, n_wifi):
        assert saturation_throughput(default_params(n_wifi)) == pytest.approx(
            RATE_REF[n_wifi], rel=1e-12)

    @pytest.mark.parametrize("n_wifi", [1, 3, 4, 9])
    def test_matches_highprec_route(self, n_wifi):
        params = default_params(n_wifi)
        assert saturation_throughput(params) == pytest.approx(
            throughput_highprec(params), rel=1e-12)

    def test_always_transmit_limit(self):
        # one station, tau -> 1: every slot is a success, R -> E[S] / T_s
        params = replace(default_params(1), tau_prob=1.0 - 1e-13)
        assert saturation_throughput(params) == pytest.approx(
            params.payload_info_bits / t_success(params), rel=1e-9)

    def test_silent_limit(self):
        params = replace(default_params(4), tau_prob=1e-9)
        assert saturation_throughput(params) < 10.0  # bps, essentially idle

    @given(tau=st.floats(0.01, 0.99), n_wifi=st.integers(1, 30))
    @settings(max_examples=200, deadline=None)
    def test_event_probabilities_stay_in_range(self, tau, n_wifi):
        params = replace(default_params(n_wifi), tau_prob=tau)
        p_tr, p_s = event_probabilities(params)
        assert 0.0 <= p_tr <= 1.0
        assert 0.0 <= p_s <= 1.0
        assert saturation_throughput(params) > 0.0


class TestLteFraction:
    def test_no_wifi_demand(self):
        assert lte_fraction(default_params(4), 0.0).lte_share == 1.0

    def test_boundary_and_midpoint(self):
        params = default_params(4)
        capacity = saturation_throughput(params)
        at_cap = lte_fraction(params, capacity / 4)
        assert at_cap.lte_share == pytest.approx(0.0, abs=1e-12)
        assert not at_cap.wifi_overloaded
        half = lte_fraction(params, capacity / 8)
        assert half.lte_share == pytest.approx(0.5, rel=1e-12)

    def test_overload_flag(self):
        params = default_params(4)
        overloaded = lte_fraction(params, saturation_throughput(params))
        assert overloaded.lte_share == 0.0
        assert overloaded.wifi_overloaded

    def test_negative_requirement_rejected(self):
        with pytest.raises(ValueError):
            lte_fraction(default_params(4), -1.0)

    @pytest.mark.parametrize("r_w", [1e5, 1e6, 4e6, 1.2e7])
    def test_wifi_rate_guarantee(self, r_w):
        params = default_params(4)
        split = lte_fraction(params, r_w)
        if not split.wifi_overloaded:
            per_user = saturation_throughput(params) * (1 - split.lte_share) \
                / params.n_wifi
            assert per_user >= r_w * (1 - 1e-9)

    def test_nonincreasing_in_stations_and_demand(self):
        shares = [lte_fraction(default_params(n), 4e6).lte_share
                  for n in range(1, 13)]
        assert all(a >= b for a, b in zip(shares, shares[1:]))
        params = default_params(4)
        by_demand = [lte_fraction(params, r).lte_share
                     for r in (0.0, 1e6, 4e6, 8e6, 1.4e7, 5e7)]
        assert all(a >= b for a, b in zip(by_demand, by_demand[1:]))


class TestScenarioDutyCycle:
    def test_matches_single_domain(self):
        cfg = ScenarioConfig()
        split = duty_cycle_for_config(cfg)
        direct = lte_fraction(default_params(cfg.wifi_users_per_wap),
                              cfg.wifi_rate_req_bps)
        assert split.lte_share == direct.lte_share

    def test_no_waps_means_full_airtime(self):
        cfg = ScenarioConfig(n_waps=0)
        split = duty_cycle_for_config(cfg)
        assert split.lte_share == 1.0 and not split.wifi_overloaded

    def test_overloaded_scenario(self):
        cfg = ScenarioConfig(wifi_rate_req_bps=5e7)
        split = duty_cycle_for_config(cfg)
        assert split.lte_share == 0.0 and split.wifi_overloaded


class TestParamsValidation:
    @pytest.mark.parametrize("bad", [
        dict(n_wifi=0), dict(tau_prob=0.0), dict(tau_prob=1.0),
        dict(sifs_s=-1e-6), dict(rts_bits=0), dict(channel_bps=0.0),
    ])
    def test_rejected(self, bad):
        kwargs = dict(n_wifi=4, tau_prob=0.08)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            WifiParams(**kwargs)
