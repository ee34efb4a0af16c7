"""Scenario configuration, topology generation, and the fading channel model.

Everything downstream (capacities, utilities, learning) is a deterministic
function of a ScenarioConfig plus integer seeds, so a run can be reproduced
from its echoed config alone.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# band indices used throughout gain arrays
LICENSED = 0
UNLICENSED = 1

# path-loss law is undefined at d=0; clamp below this
MIN_LINK_DISTANCE_M = 1.0

ALGORITHMS = ("esn", "q_lteu_decoupled", "q_lte_decoupled", "q_lteu_coupled")


def dbm_to_watt(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """All physical, protocol, and learning parameters plus seeding controls.

    Defaults are the reference operating point of the simulator; use
    ``desk_config`` for the smaller setup the tests and demos run at.
    """

    # geometry
    macro_radius_m: float = 500.0
    n_sbs: int = 4
    n_waps: int = 2
    n_users: int = 12
    wifi_users_per_wap: int = 4
    sbs_coverage_m: float = 100.0
    # radio
    p_mbs_dbm: float = 43.0
    p_sbs_dbm: float = 30.0
    p_user_dbm: float = 20.0
    noise_power_dbm: float = -95.0
    f_l_dl_hz: float = 10e6
    f_l_ul_hz: float = 10e6
    f_u_hz: float = 20e6
    pathloss_licensed: tuple[float, float] = (15.3, 37.5)  # A + B log10(d_m) dB
    pathloss_unlicensed: tuple[float, float] = (15.3, 50.0)
    # allocation grid and utility shaping
    z_levels: int = 10
    eta: float = 0.7
    action_set_size: int = 16
    # WiFi demand
    wifi_rate_req_bps: float = 4e6
    # learning
    epsilon: float = 0.7
    lambda_alpha: float = 0.08
    lambda_beta: float = 0.06
    lambda_q: float = 0.06
    reservoir_units: int = 1000
    reservoir_density: float = 0.1
    reservoir_radius: float = 0.9
    reservoir_input_scale: float = 1.0
    expectation_budget: int = 128
    # harness
    max_iterations: int = 2000
    convergence_window: int = 50
    convergence_tol: float = 1e-3
    rng_seed: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            values = np.asarray(getattr(self, f.name), dtype=float)
            if not np.isfinite(values).all():
                raise ValueError(f"{f.name} must be finite")
        positive = (
            "macro_radius_m", "wifi_users_per_wap", "sbs_coverage_m",
            "f_l_dl_hz", "f_l_ul_hz", "f_u_hz", "action_set_size",
            "reservoir_units", "reservoir_input_scale", "expectation_budget",
            "convergence_window",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        nonnegative = ("n_sbs", "n_waps", "n_users", "max_iterations",
                       "lambda_alpha", "lambda_beta", "convergence_tol",
                       "wifi_rate_req_bps")
        for name in nonnegative:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.z_levels < 2:
            raise ValueError("z_levels must be at least 2")
        if self.expectation_budget < 2:
            # one sampled profile has no standard error
            raise ValueError("expectation_budget must be at least 2")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")
        if not 0.0 < self.reservoir_density <= 1.0:
            raise ValueError("reservoir_density must lie in (0, 1]")
        if not 0.0 < self.reservoir_radius < 1.0:
            raise ValueError("reservoir_radius must lie in (0, 1)")
        if not 0.0 <= self.lambda_q <= 1.0:
            raise ValueError("lambda_q must lie in [0, 1]")
        for name in ("pathloss_licensed", "pathloss_unlicensed"):
            coeffs = tuple(getattr(self, name))
            if len(coeffs) != 2:
                raise ValueError(f"{name} needs (intercept, slope)")
            if coeffs[1] < 0:
                raise ValueError(f"{name} slope must be nonnegative")
            object.__setattr__(self, name, (float(coeffs[0]), float(coeffs[1])))

    # derived quantities -------------------------------------------------

    @property
    def n_bs(self) -> int:
        """Total base stations; index 0 is the macro cell, 1..n_sbs the small cells."""
        return self.n_sbs + 1

    @property
    def noise_power_w(self) -> float:
        return dbm_to_watt(self.noise_power_dbm)

    def bs_power_w(self, bs: int) -> float:
        return dbm_to_watt(self.p_mbs_dbm if bs == 0 else self.p_sbs_dbm)

    @property
    def user_power_w(self) -> float:
        return dbm_to_watt(self.p_user_dbm)

    # construction and serialization ------------------------------------

    def with_overrides(self, **kwargs) -> "ScenarioConfig":
        return dataclasses.replace(self, **kwargs)

    def to_mapping(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    def echo(self, path) -> None:
        """Write the effective configuration as sorted key=value lines."""
        lines = []
        for key, value in sorted(self.to_mapping().items()):
            if isinstance(value, list):
                value = ", ".join(repr(v) for v in value)
            lines.append(f"{key} = {value}")
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ScenarioConfig":
        valid = {f.name: f for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, value in mapping.items():
            if key not in valid:
                raise ValueError(f"unknown config key {key!r}")
            kwargs[key] = _coerce(key, value, valid[key].type)
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        """Load from JSON (``.json``) or plain ``key = value`` text."""
        path = Path(path)
        text = path.read_text()
        if path.suffix == ".json":
            return cls.from_mapping(json.loads(text))
        mapping = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = line.split("=", 1)
            mapping[key.strip()] = value.strip()
        return cls.from_mapping(mapping)


def _number(key: str, value) -> float:
    # bool is an int to Python, but true is no count or rate
    if not isinstance(value, bool) and isinstance(value, (numbers.Real, str)):
        try:
            return float(value)
        except ValueError:
            pass
    raise ValueError(f"config key {key!r} expects a number, got {value!r}")


def _coerce(key: str, value, annotation):
    """``value`` as the field's type; a value of the wrong shape is a
    ValueError that names ``key``."""
    ann = str(annotation)
    if "tuple" in ann:
        if isinstance(value, str):
            value = [p for p in value.replace(",", " ").split() if p]
        elif not isinstance(value, (list, tuple)):
            raise ValueError(f"config key {key!r} expects a sequence, "
                             f"got {value!r}")
        return tuple(_number(key, p) for p in value)
    f = _number(key, value)
    if "int" in ann:
        if not f.is_integer():
            raise ValueError(f"config key {key!r} expects an integer, got {value!r}")
        return int(f)
    return f


def desk_config(**overrides) -> ScenarioConfig:
    """Reduced operating point for tests and demos: a handful of cells and
    users, a 100-unit reservoir, capped action sets. Fully overridable.

    The short reservoir memory is deliberate: the reward depends only on
    the current round's joint action, and a long memory just buries it
    under stale inputs (readout misfit roughly triples at radius 0.9).
    The wide small-cell coverage keeps most users inside two or more
    cells, so association choices, not geometry, decide the outcome.
    """
    base = dict(
        n_sbs=4,
        n_users=12,
        n_waps=4,
        sbs_coverage_m=300.0,
        action_set_size=32,
        reservoir_units=100,
        reservoir_radius=0.3,
        expectation_budget=512,
        lambda_alpha=0.12,
        max_iterations=2000,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


@dataclass(frozen=True)
class Topology:
    """Fixed placement of one macro cell (origin), small cells, WAPs, users.

    ``coverage_sets[i]`` lists the BS indices that may serve user i; the
    macro cell (index 0) is always included, a small cell only when the
    user sits inside its coverage radius.
    """

    mbs_position: np.ndarray
    sbs_positions: np.ndarray    # (n_sbs, 2)
    wap_positions: np.ndarray    # (n_waps, 2)
    user_positions: np.ndarray   # (n_users, 2)
    coverage_sets: tuple         # per user, ascending tuple of BS indices
    covered_users: tuple         # per BS, ascending tuple of user indices

    @property
    def n_users(self) -> int:
        return len(self.user_positions)

    @property
    def n_bs(self) -> int:
        return len(self.sbs_positions) + 1

    def bs_positions(self) -> np.ndarray:
        return np.vstack([self.mbs_position[None, :], self.sbs_positions])


@dataclass(frozen=True)
class ChannelRealization:
    """Linear power gains per (user, BS, band), path loss times fading."""

    gain: np.ndarray         # (n_users, n_bs, 2), strictly positive
    distances_m: np.ndarray  # (n_users, n_bs), after the 1 m clamp

    def __post_init__(self):
        if not np.all(np.isfinite(self.gain)) or np.any(self.gain <= 0):
            raise ValueError("channel gains must be finite and strictly positive")


def _uniform_disc(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    # sqrt radius transform gives a uniform density over the disc
    r = radius * np.sqrt(rng.random(n))
    theta = rng.random(n) * 2.0 * math.pi
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def generate_topology(config: ScenarioConfig, seed: int) -> Topology:
    """Drop SBSs, WAPs, and users uniformly in the macro disc; derive coverage."""
    rng = np.random.default_rng(seed)
    sbs = _uniform_disc(rng, config.n_sbs, config.macro_radius_m)
    wap = _uniform_disc(rng, config.n_waps, config.macro_radius_m)
    users = _uniform_disc(rng, config.n_users, config.macro_radius_m)

    coverage = []
    for i in range(config.n_users):
        inside = [0]
        for j in range(config.n_sbs):
            if np.linalg.norm(users[i] - sbs[j]) <= config.sbs_coverage_m:
                inside.append(j + 1)
        coverage.append(tuple(inside))
    covered = tuple(
        tuple(i for i in range(config.n_users) if bs in coverage[i])
        for bs in range(config.n_bs)
    )
    return Topology(
        mbs_position=np.zeros(2),
        sbs_positions=sbs,
        wap_positions=wap,
        user_positions=users,
        coverage_sets=tuple(coverage),
        covered_users=covered,
    )


def draw_channel(
    topology: Topology,
    config: ScenarioConfig,
    seed: int,
    unit_fading: bool = False,
) -> ChannelRealization:
    """Sample one channel realization, held fixed for a whole learning run.

    gain = 10^(-PL_dB/10) * g with g ~ Exponential(mean 1), drawn
    independently per link and band. ``unit_fading`` pins g = 1, leaving
    the pure path-loss gains.
    """
    rng = np.random.default_rng(seed)
    users = topology.user_positions
    bs = topology.bs_positions()
    dist = np.linalg.norm(users[:, None, :] - bs[None, :, :], axis=2)
    dist = np.maximum(dist, MIN_LINK_DISTANCE_M)

    logd = np.log10(dist)
    pl = np.empty((topology.n_users, topology.n_bs, 2))
    a_l, b_l = config.pathloss_licensed
    a_u, b_u = config.pathloss_unlicensed
    pl[:, :, LICENSED] = a_l + b_l * logd
    pl[:, :, UNLICENSED] = a_u + b_u * logd

    if unit_fading:
        fading = np.ones_like(pl)
    else:
        fading = rng.exponential(1.0, size=pl.shape)
        fading = np.maximum(fading, 1e-300)  # exact zeros would break the positivity contract
    gain = 10.0 ** (-pl / 10.0) * fading
    return ChannelRealization(gain=gain, distances_m=dist)
