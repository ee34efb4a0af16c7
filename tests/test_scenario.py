"""Config, topology, and channel model checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lteusim.scenario import (
    LICENSED,
    MIN_LINK_DISTANCE_M,
    UNLICENSED,
    ChannelRealization,
    ScenarioConfig,
    Topology,
    desk_config,
    draw_channel,
    generate_topology,
)


def test_config_defaults_are_reference_point():
    cfg = ScenarioConfig()
    assert cfg.p_mbs_dbm == 43.0
    assert cfg.p_sbs_dbm == 30.0
    assert cfg.p_user_dbm == 20.0
    assert cfg.f_l_dl_hz == cfg.f_l_ul_hz == 10e6
    assert cfg.f_u_hz == 20e6
    assert cfg.sbs_coverage_m == 100.0
    assert cfg.z_levels == 10
    assert cfg.eta == 0.7
    assert cfg.epsilon == 0.7
    assert (cfg.lambda_alpha, cfg.lambda_beta, cfg.lambda_q) == (0.08, 0.06, 0.06)
    assert cfg.reservoir_units == 1000
    assert cfg.pathloss_licensed == (15.3, 37.5)
    assert cfg.pathloss_unlicensed == (15.3, 50.0)
    assert cfg.macro_radius_m == 500.0


@pytest.mark.parametrize(
    "field,value",
    [
        ("z_levels", 1),
        ("epsilon", 0.0),
        ("epsilon", 1.0),
        ("eta", 1.5),
        ("n_users", -1),
        ("f_u_hz", 0.0),
        ("reservoir_radius", 1.0),
        ("reservoir_density", 0.0),
        ("lambda_alpha", -0.1),
        ("lambda_beta", -1e-9),
        ("lambda_alpha", math.nan),
        ("lambda_q", -0.5),
        ("lambda_q", 3.0),
        ("convergence_tol", -1e-3),
        ("expectation_budget", 1),
        ("wifi_rate_req_bps", math.nan),
        ("wifi_rate_req_bps", -1.0),
        ("sbs_coverage_m", math.nan),
        ("f_u_hz", math.inf),
        ("p_sbs_dbm", math.nan),
        ("pathloss_licensed", (math.nan, 37.5)),
        ("pathloss_unlicensed", (15.3, math.inf)),
        ("pathloss_licensed", (-math.inf, 37.5)),
    ],
)
def test_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError):
        ScenarioConfig(**{field: value})


def test_negative_wifi_demand_rejected_without_waps():
    # with no WAP the duty cycle never reads the demand, so only the
    # config can catch it
    with pytest.raises(ValueError, match="wifi_rate_req_bps"):
        desk_config(n_waps=0, wifi_rate_req_bps=-1.0)


def test_every_float_field_must_be_finite():
    floats = [f.name for f in dataclasses.fields(ScenarioConfig)
              if f.type == "float"]
    assert "wifi_rate_req_bps" in floats and "p_sbs_dbm" in floats
    for name in floats:
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                ScenarioConfig(**{name: value})


def test_config_accepts_learning_rate_bounds():
    cfg = desk_config(lambda_alpha=0.0, lambda_beta=0.0, lambda_q=1.0,
                      convergence_tol=0.0)
    assert cfg.lambda_q == 1.0
    assert desk_config(lambda_q=0.0).lambda_q == 0.0


def test_config_text_file_round_trip(tmp_path):
    cfg = desk_config(n_sbs=3, wifi_rate_req_bps=2e6, rng_seed=7)
    echo = tmp_path / "config_echo.txt"
    cfg.echo(echo)
    again = ScenarioConfig.from_file(echo)
    assert again == cfg


def test_config_json_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"n_sbs": 2, "epsilon": 0.5, "pathloss_licensed": [10.0, 20.0]}')
    cfg = ScenarioConfig.from_file(path)
    assert cfg.n_sbs == 2
    assert cfg.epsilon == 0.5
    assert cfg.pathloss_licensed == (10.0, 20.0)


def test_config_text_file_comments_and_overrides(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("# comment line\nn_users = 6\nepsilon = 0.3  # inline\n")
    cfg = ScenarioConfig.from_file(path)
    assert cfg.n_users == 6 and cfg.epsilon == 0.3
    assert cfg.with_overrides(n_users=9).n_users == 9


def test_config_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown config key"):
        ScenarioConfig.from_mapping({"bandwidth": 1.0})


def test_config_integer_keys_refuse_fractions():
    with pytest.raises(ValueError):
        ScenarioConfig.from_mapping({"n_users": "2.5"})


@pytest.mark.parametrize(
    "key,value",
    [
        ("pathloss_licensed", 5),       # a scalar where a pair belongs
        ("pathloss_licensed", {"a": 1}),
        ("pathloss_licensed", [1.0, [2.0]]),
        ("n_sbs", True),                # json true would load as 1
        ("epsilon", [0.5]),
        ("epsilon", None),
        ("epsilon", "half"),
        ("n_users", "inf"),
    ],
)
def test_config_malformed_values_name_the_key(key, value):
    with pytest.raises(ValueError, match=repr(key)):
        ScenarioConfig.from_mapping({key: value})


def test_dbm_conversion():
    cfg = ScenarioConfig()
    assert cfg.bs_power_w(0) == pytest.approx(10.0 ** 1.3)      # 43 dBm ~ 19.95 W
    assert cfg.bs_power_w(1) == pytest.approx(1.0)              # 30 dBm = 1 W
    assert cfg.user_power_w == pytest.approx(0.1)               # 20 dBm = 100 mW


# topology ---------------------------------------------------------------


def test_macro_only_coverage():
    cfg = ScenarioConfig(n_sbs=0, n_users=1)
    topo = generate_topology(cfg, seed=3)
    assert topo.coverage_sets == ((0,),)
    assert topo.covered_users[0] == (0,)


def test_topology_determinism():
    cfg = desk_config()
    a = generate_topology(cfg, seed=11)
    b = generate_topology(cfg, seed=11)
    assert np.array_equal(a.sbs_positions, b.sbs_positions)
    assert np.array_equal(a.wap_positions, b.wap_positions)
    assert np.array_equal(a.user_positions, b.user_positions)
    assert a.coverage_sets == b.coverage_sets


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_coverage_matches_distances(seed):
    cfg = desk_config(n_sbs=5, n_users=20)
    topo = generate_topology(cfg, seed=seed)
    for i in range(cfg.n_users):
        assert 0 in topo.coverage_sets[i]
        for j in range(cfg.n_sbs):
            d = np.linalg.norm(topo.user_positions[i] - topo.sbs_positions[j])
            assert ((j + 1) in topo.coverage_sets[i]) == (d <= cfg.sbs_coverage_m)
    for i in range(cfg.n_users):
        assert np.linalg.norm(topo.user_positions[i]) <= cfg.macro_radius_m + 1e-9


def test_coverage_monotone_in_radius():
    small = desk_config(n_sbs=5, n_users=30, sbs_coverage_m=80.0)
    large = small.with_overrides(sbs_coverage_m=160.0)
    ts = generate_topology(small, seed=5)
    tl = generate_topology(large, seed=5)
    for a, b in zip(ts.coverage_sets, tl.coverage_sets):
        assert set(a) <= set(b)


# path loss --------------------------------------------------------------


def path_loss_db(distance_m, band, config):
    """Scalar oracle of the path loss ``draw_channel`` applies: A + B
    log10(d) for the band's coefficient pair, d clamped to 1 m."""
    d = max(float(distance_m), MIN_LINK_DISTANCE_M)
    a, b = (config.pathloss_licensed if band == LICENSED
            else config.pathloss_unlicensed)
    return a + b * math.log10(d)


def test_path_loss_reference_points():
    cfg = ScenarioConfig()
    assert path_loss_db(1.0, LICENSED, cfg) == pytest.approx(15.3, abs=1e-12)
    assert path_loss_db(100.0, LICENSED, cfg) == pytest.approx(90.3, abs=1e-9)
    assert path_loss_db(100.0, UNLICENSED, cfg) == pytest.approx(115.3, abs=1e-9)


def test_path_loss_clamps_below_one_meter():
    cfg = ScenarioConfig()
    assert path_loss_db(0.0, LICENSED, cfg) == path_loss_db(1.0, LICENSED, cfg)
    assert path_loss_db(0.5, UNLICENSED, cfg) == path_loss_db(1.0, UNLICENSED, cfg)


@given(
    d1=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    d2=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_path_loss_monotone_in_distance(d1, d2):
    cfg = ScenarioConfig()
    lo, hi = sorted([d1, d2])
    for band in (LICENSED, UNLICENSED):
        assert path_loss_db(lo, band, cfg) <= path_loss_db(hi, band, cfg) + 1e-12


# channel ----------------------------------------------------------------


def test_unit_fading_equals_linear_path_loss():
    cfg = desk_config()
    topo = generate_topology(cfg, seed=2)
    chan = draw_channel(topo, cfg, seed=9, unit_fading=True)
    for i in (0, cfg.n_users - 1):
        for j in (0, cfg.n_bs - 1):
            for band in (LICENSED, UNLICENSED):
                expected = 10.0 ** (-path_loss_db(chan.distances_m[i, j], band, cfg) / 10.0)
                assert chan.gain[i, j, band] == pytest.approx(expected, rel=1e-12)


def test_unit_fading_gains_at_most_one():
    # path loss is >= 0 dB at every distance here, so linear gains stay in (0, 1]
    cfg = desk_config()
    topo = generate_topology(cfg, seed=4)
    chan = draw_channel(topo, cfg, seed=4, unit_fading=True)
    assert np.all(chan.gain > 0)
    assert np.all(chan.gain <= 1.0)


def test_identical_positions_identical_gains():
    pos = np.array([[50.0, 20.0], [50.0, 20.0], [-10.0, 5.0]])
    topo = Topology(
        mbs_position=np.zeros(2),
        sbs_positions=np.array([[30.0, 0.0]]),
        wap_positions=np.zeros((0, 2)),
        user_positions=pos,
        coverage_sets=((0, 1), (0, 1), (0,)),
        covered_users=((0, 1, 2), (0, 1)),
    )
    cfg = ScenarioConfig(n_sbs=1, n_users=3, n_waps=1)
    chan = draw_channel(topo, cfg, seed=0, unit_fading=True)
    assert np.array_equal(chan.gain[0], chan.gain[1])


def test_channel_determinism_and_positivity():
    cfg = desk_config()
    topo = generate_topology(cfg, seed=1)
    a = draw_channel(topo, cfg, seed=42)
    b = draw_channel(topo, cfg, seed=42)
    c = draw_channel(topo, cfg, seed=43)
    assert np.array_equal(a.gain, b.gain)
    assert not np.array_equal(a.gain, c.gain)
    assert np.all(a.gain > 0) and np.all(np.isfinite(a.gain))


def test_fading_empirical_mean_near_one():
    # 10^5 draws of the unit-mean exponential fading factor
    cfg = ScenarioConfig(n_sbs=99, n_users=500, n_waps=1)
    topo = generate_topology(cfg, seed=0)
    faded = draw_channel(topo, cfg, seed=123)
    flat = draw_channel(topo, cfg, seed=123, unit_fading=True)
    ratio = faded.gain / flat.gain
    assert ratio.size == 100_000
    assert 0.99 <= ratio.mean() <= 1.01


def test_channel_rejects_nonpositive_gain():
    with pytest.raises(ValueError):
        ChannelRealization(gain=np.zeros((1, 1, 2)), distances_m=np.ones((1, 1)))
