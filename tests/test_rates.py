"""Capacity formulas, capacity caching, and fraction-weighted user rates.

The per-link capacity functions below are scalar oracles of the vectorized
``build_capacities``: one (user, BS) pair at a time, with plain sums over
the interferers.
"""

import math

import numpy as np
import pytest

from lteusim.rates import (
    F_L_DL_HZ,
    F_L_UL_HZ,
    F_U_HZ,
    NOISE_W,
    P_MBS_W,
    P_SBS_W,
    P_USER_W,
    LinkCapacitySet,
    build_capacities,
    compute_user_rates,
)
from lteusim.scenario import (
    LICENSED,
    UNLICENSED,
    ChannelRealization,
    ScenarioConfig,
    draw_channel,
    generate_topology,
)

TINY = 1e-300  # stand-in for an absent link; gains must stay positive


def make_channel(n_users, n_bs, links):
    """Channel with every gain at TINY except the (user, bs, band) entries
    listed in ``links``."""
    gain = np.full((n_users, n_bs, 2), TINY)
    for (user, bs, band), value in links.items():
        gain[user, bs, band] = value
    return ChannelRealization(gain=gain)


def shannon(bandwidth_hz, signal_w, interference_w, noise_w):
    return bandwidth_hz * math.log1p(
        signal_w / (interference_w + noise_w)) / math.log(2.0)


def bs_power_w(bs):
    return P_MBS_W if bs == 0 else P_SBS_W


def licensed_dl_capacity(user, bs, channel):
    """Downlink capacity on the licensed band; every other BS interferes at
    its full transmit power (macro or small-cell level)."""
    received = [bs_power_w(j) * channel.gain[user, j, LICENSED]
                for j in range(channel.gain.shape[1])]
    signal = received[bs]
    interference = sum(received) - signal
    return shannon(F_L_DL_HZ, signal, interference, NOISE_W)


def licensed_ul_capacity(user, bs, channel, active_users=None):
    """Uplink capacity on the licensed band.

    ``active_users`` is the set of transmitting users (the user itself must
    belong to it); by default every user is active, the worst-case
    stationary interference.
    """
    if active_users is None:
        active_users = range(channel.gain.shape[0])
    active = set(int(k) for k in active_users)
    if user not in active:
        raise ValueError("user must be in active_users")
    h_to_bs = channel.gain[:, bs, LICENSED]
    signal = P_USER_W * h_to_bs[user]
    interference = P_USER_W * sum(h_to_bs[k] for k in active if k != user)
    return shannon(F_L_UL_HZ, signal, interference, NOISE_W)


def unlicensed_capacities(user, sbs, channel, lte_fraction,
                          active_users=None):
    """(DL, UL) capacities on the unlicensed band for one small cell.

    Only small cells transmit there: DL interference comes from the other
    SBSs, UL interference from other users. Both scale linearly with the
    duty-cycle fraction granted to LTE-U.
    """
    if sbs == 0:
        raise ValueError("the macro cell has no unlicensed radio")
    n_users, n_bs = channel.gain.shape[:2]
    if active_users is None:
        active_users = range(n_users)
    active = set(int(k) for k in active_users)
    if user not in active:
        raise ValueError("user must be in active_users")

    h_dl = channel.gain[user, :, UNLICENSED]
    signal = P_SBS_W * h_dl[sbs]
    interference = P_SBS_W * sum(h_dl[k] for k in range(1, n_bs) if k != sbs)
    dl = lte_fraction * shannon(F_U_HZ, signal, interference, NOISE_W)

    h_ul = channel.gain[:, sbs, UNLICENSED]
    signal_u = P_USER_W * h_ul[user]
    interference_u = P_USER_W * sum(h_ul[k] for k in active if k != user)
    ul = lte_fraction * shannon(F_U_HZ, signal_u, interference_u, NOISE_W)
    return dl, ul


class TestLicensedCapacities:
    def test_sbs_at_unit_sinr_gives_bandwidth(self):
        """Received power equal to noise power: c = F * log2(2) = 10 Mbps."""
        ch = make_channel(1, 2, {(0, 1, LICENSED): NOISE_W / P_SBS_W})
        c = licensed_dl_capacity(0, 1, ch)
        assert c == pytest.approx(10e6, rel=1e-12)

    def test_vanishing_gain_vanishing_rate(self):
        ch = make_channel(1, 2, {})
        assert licensed_dl_capacity(0, 1, ch) < 1e-200

    def test_equal_power_interferer_costs_one_bit(self):
        # same received power from the serving and the interfering BS,
        # noise negligible: log2(1 + 1) = 1 bit/s/Hz
        ch = make_channel(1, 2, {
            (0, 0, LICENSED): 1e-3 / P_MBS_W,
            (0, 1, LICENSED): 1e-3 / P_SBS_W,
        })
        c = licensed_dl_capacity(0, 1, ch)
        assert c == pytest.approx(F_L_DL_HZ, rel=1e-8)

    def test_ul_alone_at_sinr_three(self):
        """P_u h / noise = 3 with no co-channel users: F * log2(4) = 20 Mbps."""
        ch = make_channel(3, 2, {(0, 1, LICENSED): 3.0 * NOISE_W / P_USER_W})
        c = licensed_ul_capacity(0, 1, ch, active_users={0})
        assert c == pytest.approx(20e6, rel=1e-12)

    def test_ul_default_counts_every_user(self):
        ch = make_channel(3, 2, {
            (0, 1, LICENSED): 3.0 * NOISE_W / P_USER_W,
            (1, 1, LICENSED): 3.0 * NOISE_W / P_USER_W,
            (2, 1, LICENSED): 3.0 * NOISE_W / P_USER_W,
        })
        alone = licensed_ul_capacity(0, 1, ch, active_users={0})
        crowded = licensed_ul_capacity(0, 1, ch)
        # SINR drops from 3 to 3/7, strictly worse
        assert crowded < alone
        assert crowded == pytest.approx(
            F_L_UL_HZ * np.log2(1 + 3.0 / 7.0), rel=1e-9)

    def test_ul_requires_membership(self):
        ch = make_channel(2, 2, {(0, 1, LICENSED): 1e-10})
        with pytest.raises(ValueError):
            licensed_ul_capacity(0, 1, ch, active_users={1})


class TestUnlicensedCapacities:
    def test_duty_cycle_scales_linearly(self):
        ch = make_channel(1, 2, {(0, 1, UNLICENSED): NOISE_W / P_SBS_W})
        full_dl, full_ul = unlicensed_capacities(0, 1, ch, 1.0,
                                                 active_users={0})
        half_dl, half_ul = unlicensed_capacities(0, 1, ch, 0.5,
                                                 active_users={0})
        none_dl, none_ul = unlicensed_capacities(0, 1, ch, 0.0,
                                                 active_users={0})
        assert full_dl == pytest.approx(20e6, rel=1e-12)
        assert half_dl == pytest.approx(full_dl / 2, rel=1e-15)
        assert half_ul == pytest.approx(full_ul / 2, rel=1e-15)
        assert none_dl == 0.0 and none_ul == 0.0

    def test_macro_has_no_unlicensed_radio(self):
        ch = make_channel(1, 2, {})
        with pytest.raises(ValueError):
            unlicensed_capacities(0, 0, ch, 1.0)

    def test_dl_interference_from_other_sbs_only(self):
        # strong macro licensed-band style gain must not leak into the
        # unlicensed DL denominator
        with_macro = make_channel(1, 3, {
            (0, 0, UNLICENSED): 1.0,
            (0, 1, UNLICENSED): NOISE_W / P_SBS_W,
        })
        c, _ = unlicensed_capacities(0, 1, with_macro, 1.0,
                                     active_users={0})
        assert c == pytest.approx(20e6, rel=1e-12)
        # an actual second SBS at equal received power halves the SINR term
        with_sbs = make_channel(1, 3, {
            (0, 1, UNLICENSED): NOISE_W / P_SBS_W,
            (0, 2, UNLICENSED): NOISE_W / P_SBS_W,
        })
        c2, _ = unlicensed_capacities(0, 1, with_sbs, 1.0,
                                      active_users={0})
        assert c2 == pytest.approx(20e6 * np.log2(1.5), rel=1e-9)


class TestCapacityCache:
    @pytest.fixture
    def drawn(self):
        cfg = ScenarioConfig(n_sbs=3, n_users=5, rng_seed=7)
        topo = generate_topology(cfg, seed=7)
        ch = draw_channel(topo, seed=11)
        return cfg, ch

    def test_matches_scalar_routes(self, drawn):
        cfg, ch = drawn
        caps = build_capacities(ch, lte_fraction=0.37)
        for i in range(cfg.n_users):
            for j in range(cfg.n_bs):
                assert caps.c_l_dl[i, j] == pytest.approx(
                    licensed_dl_capacity(i, j, ch), rel=1e-9)
                assert caps.c_l_ul[i, j] == pytest.approx(
                    licensed_ul_capacity(i, j, ch), rel=1e-9)
                if j > 0:
                    dl, ul = unlicensed_capacities(i, j, ch, 0.37)
                    assert caps.c_u_dl[i, j] == pytest.approx(dl, rel=1e-9)
                    assert caps.c_u_ul[i, j] == pytest.approx(ul, rel=1e-9)

    def test_macro_unlicensed_column_zero(self, drawn):
        cfg, ch = drawn
        caps = build_capacities(ch, lte_fraction=1.0)
        assert np.all(caps.c_u_dl[:, 0] == 0.0)
        assert np.all(caps.c_u_ul[:, 0] == 0.0)

    def test_block_is_band_by_direction_transposed(self, drawn):
        cfg, ch = drawn
        caps = build_capacities(ch, lte_fraction=0.8)
        assert caps.block.shape == (2, 2, cfg.n_bs, cfg.n_users)
        for (band, direction), matrix in {
                (0, 0): caps.c_l_dl, (0, 1): caps.c_l_ul,
                (1, 0): caps.c_u_dl, (1, 1): caps.c_u_ul}.items():
            assert np.array_equal(caps.block[band, direction], matrix.T)
        assert caps.block is caps.block  # built once
        zero = np.zeros_like(caps.c_u_dl)
        stripped = LinkCapacitySet(caps.c_l_dl, caps.c_l_ul, zero, zero)
        assert not stripped.block[1].any()

    def test_shapes_and_positivity(self, drawn):
        cfg, ch = drawn
        caps = build_capacities(ch, lte_fraction=0.5)
        assert caps.c_l_dl.shape == (cfg.n_users, cfg.n_bs)
        assert np.all(caps.c_l_dl > 0) and np.all(caps.c_l_ul > 0)
        assert np.all(caps.c_u_dl[:, 1:] > 0) and np.all(caps.c_u_ul[:, 1:] > 0)


# rows of a joint's (4, n_bs, n_users) fraction block
D, V, KAPPA, TAU = range(4)


def grid_caps(n_users, n_bs, base=1e7):
    """Distinct, easily recognizable capacity entries."""
    ramp = base * (1.0 + np.arange(n_users * n_bs).reshape(n_users, n_bs))
    caps = LinkCapacitySet(
        c_l_dl=ramp,
        c_l_ul=2.0 * ramp,
        c_u_dl=np.where(np.arange(n_bs) == 0, 0.0, 3.0 * ramp),
        c_u_ul=np.where(np.arange(n_bs) == 0, 0.0, 4.0 * ramp),
    )
    return caps


def zero_block(n_bs, n_users):
    return np.zeros((4, n_bs, n_users))


class TestUserRates:
    def test_all_zero_allocation(self):
        caps = grid_caps(2, 3)
        rates = compute_user_rates(zero_block(3, 2), caps)
        assert np.all(rates.dl_bps == 0) and np.all(rates.ul_bps == 0)
        assert np.all(rates.serving_dl == -1) and np.all(rates.serving_ul == -1)
        assert rates.decoupled_users() == 0

    def test_full_grant_recovers_capacity(self):
        caps = grid_caps(2, 3)
        block = zero_block(3, 2)
        block[D, 1, 0] = 1.0
        rates = compute_user_rates(block, caps)
        assert rates.dl_bps[0] == caps.c_l_dl[0, 1]
        assert rates.serving_dl[0] == 1
        assert rates.ul_bps[0] == 0 and rates.serving_ul[0] == -1

    def test_fraction_weighting(self):
        caps = grid_caps(1, 2)
        block = zero_block(2, 1)
        block[D, 1, 0] = 0.3
        block[KAPPA, 1, 0] = 0.7
        block[V, 1, 0] = 0.2
        rates = compute_user_rates(block, caps)
        assert rates.dl_bps[0] == pytest.approx(
            0.3 * caps.c_l_dl[0, 1] + 0.7 * caps.c_u_dl[0, 1], rel=1e-15)
        assert rates.ul_bps[0] == pytest.approx(0.2 * caps.c_l_ul[0, 1], rel=1e-15)

    def test_split_direction_serving(self):
        """DL from one cell, UL to another: both rates present, two servers."""
        caps = grid_caps(1, 3)
        block = zero_block(3, 1)
        block[D, 1, 0] = 0.6
        block[TAU, 2, 0] = 0.4
        rates = compute_user_rates(block, caps)
        assert rates.serving_dl[0] == 1
        assert rates.serving_ul[0] == 2
        assert rates.dl_bps[0] == pytest.approx(0.6 * caps.c_l_dl[0, 1])
        assert rates.ul_bps[0] == pytest.approx(0.4 * caps.c_u_ul[0, 2])
        assert rates.decoupled_users() == 1

    def test_same_direction_double_grant_rejected(self):
        caps = grid_caps(1, 3)
        block = zero_block(3, 1)
        block[D, 1, 0] = 0.5
        block[KAPPA, 2, 0] = 0.5  # also DL, different BS
        with pytest.raises(ValueError, match="more than one BS"):
            compute_user_rates(block, caps)

    def test_double_grant_error_names_direction_and_user(self):
        caps = grid_caps(3, 3)
        block = zero_block(3, 3)
        block[V, 1, 2] = 0.5
        block[TAU, 2, 2] = 0.5
        with pytest.raises(ValueError, match="user 2 is granted a UL"):
            compute_user_rates(block, caps)
        # a DL conflict is reported before a UL one
        block[D, 0, 1] = 0.5
        block[KAPPA, 1, 1] = 0.5
        with pytest.raises(ValueError, match="user 1 is granted a DL"):
            compute_user_rates(block, caps)

    def test_opposite_directions_are_fine(self):
        caps = grid_caps(1, 3)
        block = zero_block(3, 1)
        block[D, 1, 0] = 0.5
        block[V, 2, 0] = 0.5
        compute_user_rates(block, caps)  # no raise

    def test_shape_mismatch_rejected(self):
        caps = grid_caps(2, 3)
        with pytest.raises(ValueError):
            compute_user_rates(zero_block(2, 2), caps)

    def test_rates_monotone_in_each_fraction(self):
        rng = np.random.default_rng(5)
        caps = grid_caps(3, 3)
        block = zero_block(3, 3)
        # disjoint users per BS keeps every perturbation conflict-free
        block[D, 1, 0] = 0.2
        block[V, 1, 0] = 0.1
        block[KAPPA, 2, 1] = 0.3
        block[TAU, 2, 1] = 0.3
        base = compute_user_rates(block, caps).total_bps.sum()
        for entry in [(D, 1, 0), (V, 1, 0), (KAPPA, 2, 1), (TAU, 2, 1)]:
            bumped = block.copy()
            bumped[entry] += rng.uniform(0.05, 0.4)
            assert compute_user_rates(bumped, caps).total_bps.sum() > base
