"""Config, topology, and channel model checks."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lteusim import agents, game, harness
from lteusim.rates import (
    F_L_DL_HZ,
    F_L_UL_HZ,
    F_U_HZ,
    NOISE_W,
    P_MBS_W,
    P_SBS_W,
    P_USER_W,
)
from lteusim.scenario import (
    LICENSED,
    MACRO_RADIUS_M,
    MIN_LINK_DISTANCE_M,
    PATHLOSS_LICENSED,
    PATHLOSS_UNLICENSED,
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
    assert F_L_DL_HZ == F_L_UL_HZ == 10e6
    assert F_U_HZ == 20e6
    assert cfg.sbs_coverage_m == 100.0
    assert game.Z_LEVELS == 10
    assert game.ETA == 0.7
    assert game.EPSILON == 0.7
    assert (agents.LAMBDA_ALPHA, agents.LAMBDA_BETA, agents.LAMBDA_Q) == (
        0.33, 0.78, 0.06)
    assert harness.CONVERGENCE_TOL == 1e-3
    assert cfg.reservoir_units == 1000
    assert PATHLOSS_LICENSED == (15.3, 37.5)
    assert PATHLOSS_UNLICENSED == (15.3, 50.0)
    assert MACRO_RADIUS_M == 500.0


def test_config_fields_are_numbers():
    # __post_init__ and echo handle one int or float per key
    types = {f.type for f in dataclasses.fields(ScenarioConfig)}
    assert types == {"int", "float"}


@pytest.mark.parametrize(
    "field,value",
    [
        ("n_users", -1),
        ("sbs_coverage_m", 0.0),
        ("reservoir_radius", 1.0),
        ("expectation_budget", 1),
        ("wifi_rate_req_bps", math.nan),
        ("wifi_rate_req_bps", -1.0),
        ("sbs_coverage_m", math.nan),
        ("rng_seed", -1),
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
    assert "wifi_rate_req_bps" in floats and "sbs_coverage_m" in floats
    for name in floats:
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                ScenarioConfig(**{name: value})


def test_config_text_file_round_trip(tmp_path):
    # an int literal in a float field is kept, and echoed, as a float, so
    # the echo of the read-back config is the same file
    for cfg in (desk_config(n_sbs=3, wifi_rate_req_bps=2e6, rng_seed=7),
                desk_config(sbs_coverage_m=1, wifi_rate_req_bps=1)):
        echo = tmp_path / "config_echo.txt"
        cfg.echo(echo)
        again = ScenarioConfig.from_file(echo)
        assert again == cfg
        again.echo(tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_bytes() == echo.read_bytes()


def test_config_json_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"n_sbs": 2, "sbs_coverage_m": 0.5}')
    cfg = ScenarioConfig.from_file(path)
    assert cfg.n_sbs == 2
    assert cfg.sbs_coverage_m == 0.5


def test_config_text_file_comments_and_overrides(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("# comment line\nn_users = 6\n"
                    "sbs_coverage_m = 0.3  # inline\n")
    cfg = ScenarioConfig.from_file(path)
    assert cfg.n_users == 6 and cfg.sbs_coverage_m == 0.3
    assert cfg.with_overrides(n_users=9).n_users == 9


# keys of the fixed game and learning constants, of the fixed radio
# constants, the unit input scale and the random reservoir's density: an
# older config echo names them, and is refused, not silently half-applied
CONSTANT_KEYS = ("z_levels", "eta", "epsilon", "lambda_alpha",
                 "lambda_beta", "lambda_q", "convergence_tol")
REMOVED_KEYS = ("macro_radius_m", "p_mbs_dbm", "p_sbs_dbm", "p_user_dbm",
                "noise_power_dbm", "f_l_dl_hz", "f_l_ul_hz", "f_u_hz",
                "pathloss_licensed", "pathloss_unlicensed",
                "reservoir_input_scale", "reservoir_density", *CONSTANT_KEYS)


@pytest.mark.parametrize("key", ["bandwidth", *REMOVED_KEYS])
def test_config_unknown_key_rejected(key):
    with pytest.raises(ValueError, match=f"^unknown config key {key!r}$"):
        ScenarioConfig.from_mapping({key: 1.0})


def test_echo_with_a_removed_key_is_refused(tmp_path):
    path = tmp_path / "config_echo.txt"
    desk_config().echo(path)
    echo = path.read_text()
    path.write_text(echo + "pathloss_licensed = 15.3, 37.5\n")
    with pytest.raises(ValueError, match="unknown config key 'pathloss_licensed'"):
        ScenarioConfig.from_file(path)
    for key in CONSTANT_KEYS:
        path.write_text(echo + f"{key} = 0.5\n")
        with pytest.raises(ValueError, match=f"unknown config key {key!r}"):
            ScenarioConfig.from_file(path)


@pytest.mark.parametrize("value, kind", [([1, 2], "list"), ("x", "str")])
def test_config_must_be_a_mapping(value, kind):
    with pytest.raises(ValueError, match=f"must be a mapping .*, got {kind}$"):
        ScenarioConfig.from_mapping(value)


def test_config_integer_keys_refuse_fractions():
    with pytest.raises(ValueError):
        ScenarioConfig.from_mapping({"n_users": "2.5"})


@pytest.mark.parametrize("field, value", [
    ("action_set_size", 16.5),   # would silently run 17-action spaces
    ("reservoir_units", 12.5),
    ("convergence_window", 2.5),
    ("expectation_budget", 2.5),
    ("n_sbs", True),
])
def test_integer_fields_refuse_fractions_when_built_directly(field, value):
    kind = "a number" if isinstance(value, bool) else "an integer"
    for build in (lambda: desk_config(**{field: value}),
                  lambda: ScenarioConfig().with_overrides(**{field: value}),
                  lambda: ScenarioConfig(**{field: value})):
        with pytest.raises(ValueError,
                           match=f"^{field} must be {kind}, got {value}$"):
            build()


FLOAT_FIELDS = [f.name for f in dataclasses.fields(ScenarioConfig)
                if f.type == "float"]


@pytest.mark.parametrize("name, value", [
    *((name, True) for name in FLOAT_FIELDS),
    pytest.param("sbs_coverage_m", np.True_, id="sbs_coverage_m-np.True_"),
])
def test_float_fields_refuse_bools(name, value):
    # True is no rate; its echo "True" would not read back
    with pytest.raises(ValueError, match=f"^{name} must be a number, got "
                                         f"{re.escape(repr(value))}$"):
        desk_config(**{name: value})


def test_every_integer_field_checked_and_kept_an_int():
    ints = [f.name for f in dataclasses.fields(ScenarioConfig)
            if f.type == "int"]
    assert "action_set_size" in ints and "rng_seed" in ints
    for name in ints:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ScenarioConfig(**{name: 2.5})
    # an integral float or numpy integer is stored as a Python int
    cfg = desk_config(action_set_size=4.0, n_users=np.int64(6))
    assert type(cfg.action_set_size) is int and cfg.action_set_size == 4
    assert type(cfg.n_users) is int and cfg == desk_config(action_set_size=4,
                                                           n_users=6)


@pytest.mark.parametrize(
    "key,value",
    [
        ("n_sbs", True),                # json true would load as 1
        ("sbs_coverage_m", [0.5]),
        ("sbs_coverage_m", None),
        ("sbs_coverage_m", "half"),
        ("n_users", "inf"),
    ],
)
def test_config_malformed_values_name_the_key(key, value):
    with pytest.raises(ValueError,
                       match=f"^{key} must be (a number|finite), got "):
        ScenarioConfig.from_mapping({key: value})


def test_text_is_read_as_a_number_only_from_a_mapping():
    # from_mapping reads text (a --set value, a config file line) as a
    # number; a config built in code must be given numbers
    with pytest.raises(ValueError, match="^n_users must be a number, got '12'$"):
        ScenarioConfig(n_users="12")
    with pytest.raises(ValueError,
                       match="^sbs_coverage_m must be a number, got '0.5'$"):
        desk_config(sbs_coverage_m="0.5")
    # 23 seed digits, which float() would round, read exactly
    seed = "12345678901234567890123"
    assert float(seed) != int(seed)
    cfg = ScenarioConfig.from_mapping({"n_users": "12", "sbs_coverage_m": "1",
                                       "action_set_size": "1e1",
                                       "rng_seed": seed})
    assert (cfg.n_users, cfg.sbs_coverage_m, cfg.action_set_size) == (
        12, 1.0, 10)
    assert type(cfg.sbs_coverage_m) is float
    assert type(cfg.action_set_size) is int
    assert cfg.rng_seed == int(seed)


@pytest.mark.parametrize("key", ["sbs_coverage_m", "rng_seed"])
def test_number_past_the_float_range_is_refused(key):
    # an int that no float holds is no finite value, for a float field
    # and a count alike; the text path reads it as an int first
    digits = "9" * 400
    for build in (lambda: ScenarioConfig.from_mapping({key: digits}),
                  lambda: ScenarioConfig(**{key: int(digits)})):
        with pytest.raises(ValueError, match=f"^{key} must be finite, got 9"):
            build()


def test_dbm_conversion():
    assert P_MBS_W == 10.0 ** 1.3      # 43 dBm ~ 19.95 W
    assert P_SBS_W == 1.0              # 30 dBm = 1 W
    assert P_USER_W == 0.1             # 20 dBm = 100 mW
    assert NOISE_W == 10.0 ** -12.5    # -95 dBm


# topology ---------------------------------------------------------------


def test_macro_only_coverage():
    cfg = ScenarioConfig(n_sbs=0, n_users=1)
    topo = generate_topology(cfg, seed=3)
    assert topo.covered_users == ((0,),)


def test_topology_determinism():
    cfg = desk_config()
    a = generate_topology(cfg, seed=11)
    b = generate_topology(cfg, seed=11)
    assert np.array_equal(a.sbs_positions, b.sbs_positions)
    assert np.array_equal(a.wap_positions, b.wap_positions)
    assert np.array_equal(a.user_positions, b.user_positions)
    assert a.covered_users == b.covered_users


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_coverage_matches_distances(seed):
    cfg = desk_config(n_sbs=5, n_users=20)
    topo = generate_topology(cfg, seed=seed)
    assert len(topo.covered_users) == cfg.n_bs
    assert topo.covered_users[0] == tuple(range(cfg.n_users))
    for j in range(cfg.n_sbs):
        users = topo.covered_users[j + 1]
        assert users == tuple(sorted(users))
        for i in range(cfg.n_users):
            d = np.linalg.norm(topo.user_positions[i] - topo.sbs_positions[j])
            assert (i in users) == (d <= cfg.sbs_coverage_m)
    for i in range(cfg.n_users):
        assert np.linalg.norm(topo.user_positions[i]) <= MACRO_RADIUS_M + 1e-9


def test_coverage_monotone_in_radius():
    small = desk_config(n_sbs=5, n_users=30, sbs_coverage_m=80.0)
    large = small.with_overrides(sbs_coverage_m=160.0)
    ts = generate_topology(small, seed=5)
    tl = generate_topology(large, seed=5)
    for a, b in zip(ts.covered_users, tl.covered_users):
        assert set(a) <= set(b)


# path loss --------------------------------------------------------------


def path_loss_db(distance_m, band):
    """Scalar oracle of the path loss ``draw_channel`` applies: A + B
    log10(d) for the band's coefficient pair, d clamped to 1 m."""
    d = max(float(distance_m), MIN_LINK_DISTANCE_M)
    a, b = PATHLOSS_LICENSED if band == LICENSED else PATHLOSS_UNLICENSED
    return a + b * math.log10(d)


def test_path_loss_reference_points():
    assert path_loss_db(1.0, LICENSED) == pytest.approx(15.3, abs=1e-12)
    assert path_loss_db(100.0, LICENSED) == pytest.approx(90.3, abs=1e-9)
    assert path_loss_db(100.0, UNLICENSED) == pytest.approx(115.3, abs=1e-9)


def test_path_loss_clamps_below_one_meter():
    assert path_loss_db(0.0, LICENSED) == path_loss_db(1.0, LICENSED)
    assert path_loss_db(0.5, UNLICENSED) == path_loss_db(1.0, UNLICENSED)


@given(
    d1=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    d2=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_path_loss_monotone_in_distance(d1, d2):
    lo, hi = sorted([d1, d2])
    for band in (LICENSED, UNLICENSED):
        assert path_loss_db(lo, band) <= path_loss_db(hi, band) + 1e-12


# channel ----------------------------------------------------------------


def replay_channel(topo, seed):
    """``(path_gain, fading)`` of ``draw_channel(topo, seed)``: the
    linear path-loss gains over the clamped user-BS distances, recomputed
    from the topology, and the seed's one exponential draw."""
    dist = np.linalg.norm(
        topo.user_positions[:, None, :] - topo.bs_positions()[None, :, :],
        axis=2)
    logd = np.log10(np.maximum(dist, MIN_LINK_DISTANCE_M))
    pl = np.stack([a + b * logd for a, b in (PATHLOSS_LICENSED,
                                             PATHLOSS_UNLICENSED)],
                  axis=2)
    fading = np.random.default_rng(seed).exponential(
        1.0, (topo.n_users, topo.n_bs, 2))
    return 10.0 ** (-pl / 10.0), np.maximum(fading, 1e-300)


@pytest.mark.parametrize("topo_seed,seed", [(2, 9), (4, 4), (0, 123)])
def test_gain_replays_path_loss_times_fading(topo_seed, seed):
    cfg = desk_config()
    topo = generate_topology(cfg, seed=topo_seed)
    chan = draw_channel(topo, seed=seed)
    path_gain, fading = replay_channel(topo, seed)
    assert np.array_equal(chan.gain, path_gain * fading)
    # the replay's path loss is the scalar law
    for i in (0, cfg.n_users - 1):
        for j in (0, cfg.n_bs - 1):
            d = np.linalg.norm(topo.user_positions[i] - topo.bs_positions()[j])
            for band in (LICENSED, UNLICENSED):
                expected = 10.0 ** (-path_loss_db(d, band) / 10.0)
                assert path_gain[i, j, band] == pytest.approx(expected,
                                                              rel=1e-12)


def test_identical_positions_identical_gains():
    pos = np.array([[50.0, 20.0], [50.0, 20.0], [-10.0, 5.0]])
    topo = Topology(
        mbs_position=np.zeros(2),
        sbs_positions=np.array([[30.0, 0.0]]),
        wap_positions=np.zeros((0, 2)),
        user_positions=pos,
        covered_users=((0, 1, 2), (0, 1)),
    )
    chan = draw_channel(topo, seed=0)
    path_gain, fading = replay_channel(topo, seed=0)
    assert np.array_equal(chan.gain, path_gain * fading)
    assert np.array_equal(path_gain[0], path_gain[1])


def test_channel_determinism_and_positivity():
    cfg = desk_config()
    topo = generate_topology(cfg, seed=1)
    a = draw_channel(topo, seed=42)
    b = draw_channel(topo, seed=42)
    c = draw_channel(topo, seed=43)
    assert np.array_equal(a.gain, b.gain)
    assert not np.array_equal(a.gain, c.gain)
    assert np.all(a.gain > 0) and np.all(np.isfinite(a.gain))


def test_fading_empirical_mean_near_one():
    # 10^5 draws of the unit-mean exponential fading factor
    cfg = ScenarioConfig(n_sbs=99, n_users=500, n_waps=1)
    topo = generate_topology(cfg, seed=0)
    faded = draw_channel(topo, seed=123)
    path_gain, _ = replay_channel(topo, seed=123)
    ratio = faded.gain / path_gain
    assert ratio.size == 100_000
    assert 0.99 <= ratio.mean() <= 1.01


def test_channel_rejects_nonpositive_gain():
    with pytest.raises(ValueError):
        ChannelRealization(gain=np.zeros((1, 1, 2)))
