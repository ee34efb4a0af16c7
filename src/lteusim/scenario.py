"""Scenario configuration, topology generation, and the fading channel model.

Everything downstream (capacities, utilities, learning) is a deterministic
function of a ScenarioConfig, an algorithm and a seed. A command's seed is
the config's ``rng_seed`` (the CLI's ``--seed`` sets it), so a command
rerun with ``--config`` at its echoed config, and its other flags (a run
names its algorithm in ``summary.txt``), writes the same files.

The radio environment is fixed at the reference operating point: the
macro-cell radius and the two path-loss laws are constants here, the
transmit powers, noise power and bandwidths constants in ``rates``. So are
the game's grid, unlicensed-DL discount and exploration rate
(``game.Z_LEVELS``, ``ETA``, ``EPSILON``), the beta and Q learning rates
(``agents.LAMBDA_BETA``, ``LAMBDA_Q``) and ``harness.CONVERGENCE_TOL``. A
config holds what callers vary: the network, its load, the learners, the run.
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

# users, small cells and WAPs are dropped in a disc of this radius
MACRO_RADIUS_M = 500.0
# (A, B) of PL_dB = A + B log10(d_m) per band
PATHLOSS_LICENSED = (15.3, 37.5)
PATHLOSS_UNLICENSED = (15.3, 50.0)

ALGORITHMS = ("esn", "q_lteu_decoupled", "q_lte_decoupled", "q_lteu_coupled")


@dataclass(frozen=True)
class ScenarioConfig:
    """Network size, WiFi load, game, learning and seeding parameters.

    Defaults are the reference operating point of the simulator; use
    ``desk_config`` for the smaller setup the tests and demos run at. What
    no caller varies is a module constant, not a field: the radio's in this
    module and ``rates``, the grid, discount and exploration rate in
    ``game``, the beta and Q learning rates in ``agents`` and the
    convergence tolerance in ``harness``.

    Every value is checked here, however the config is built: each field
    holds a finite real number that is not a bool, a whole one for an
    ``int`` field, stored as the field's type, and within the field's
    range. ``from_mapping`` only reads a text value as a number.
    """

    # geometry
    n_sbs: int = 4
    n_waps: int = 2
    n_users: int = 12
    wifi_users_per_wap: int = 4
    sbs_coverage_m: float = 100.0
    # game
    action_set_size: int = 16
    # WiFi demand
    wifi_rate_req_bps: float = 4e6
    # learning
    lambda_alpha: float = 0.08
    reservoir_units: int = 1000
    reservoir_radius: float = 0.9
    expectation_budget: int = 128
    # harness
    max_iterations: int = 2000
    convergence_window: int = 50
    rng_seed: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            # bool is a number to Python, but True is no count or rate
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int past the float range
                finite = False
            if not finite:
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            if f.type == "int":
                if not float(value).is_integer():
                    raise ValueError(f"{f.name} must be an integer, "
                                     f"got {value!r}")
                value = int(value)
            else:
                # an int would echo as one but read back as a float
                value = float(value)
            object.__setattr__(self, f.name, value)
        positive = ("wifi_users_per_wap", "sbs_coverage_m", "action_set_size",
                    "reservoir_units", "expectation_budget",
                    "convergence_window")
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        nonnegative = ("n_sbs", "n_waps", "n_users", "max_iterations",
                       "lambda_alpha", "wifi_rate_req_bps", "rng_seed")
        for name in nonnegative:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.expectation_budget < 2:
            # one sampled profile has no standard error
            raise ValueError("expectation_budget must be at least 2")
        if not 0.0 < self.reservoir_radius < 1.0:
            raise ValueError("reservoir_radius must lie in (0, 1)")

    # derived quantities -------------------------------------------------

    @property
    def n_bs(self) -> int:
        """Total base stations; index 0 is the macro cell, 1..n_sbs the small cells."""
        return self.n_sbs + 1

    # construction and serialization ------------------------------------

    def with_overrides(self, **kwargs) -> "ScenarioConfig":
        return dataclasses.replace(self, **kwargs)

    def to_mapping(self) -> dict:
        return dataclasses.asdict(self)

    def echo(self, path) -> None:
        """Write the effective configuration as sorted key=value lines."""
        lines = [f"{key} = {value}"
                 for key, value in sorted(self.to_mapping().items())]
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ScenarioConfig":
        if not isinstance(mapping, dict):
            raise ValueError("a config must be a mapping of keys to values, "
                             f"got {type(mapping).__name__}")
        valid = {f.name for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, value in mapping.items():
            if key not in valid:
                raise ValueError(f"unknown config key {key!r}")
            kwargs[key] = _number(value) if isinstance(value, str) else value
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


def _number(text: str):
    """``text`` as an int when its digits read as one (``float`` would round
    a seed past 2**53), else as a float; text that reads as neither is
    returned as it is, for ``ScenarioConfig`` to refuse."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def desk_config(**overrides) -> ScenarioConfig:
    """Reduced operating point for tests and demos: a handful of cells and
    users, a 100-unit reservoir, capped action sets. Fully overridable.

    The short reservoir memory follows the game: the reward depends only
    on the current round's joint action, not on earlier rounds. No fit
    advantage is measured for it: over seeds 0-9 and 300 rounds, alpha's
    mean |e - r_hat| was 30.4 at radius 0.3 and 25.7 at radius 0.9.
    The wide small-cell coverage keeps most users inside two or more
    cells, so association choices, not geometry, decide the outcome.

    The beta expectation samples only the curvature residual of its
    control variate (``agents.beta_expectation``), so 16 draws give a
    smaller standard error than 512 plain ones did. 16 is also the floor:
    at ``action_set_size=2`` the four opponents' 2**4 = 16 joint profiles
    then fit the budget and are enumerated exactly, which the
    exact-expectation golden run relies on.
    """
    base = dict(
        n_sbs=4,
        n_users=12,
        n_waps=4,
        sbs_coverage_m=300.0,
        action_set_size=32,
        reservoir_units=100,
        reservoir_radius=0.3,
        expectation_budget=16,
        lambda_alpha=0.12,
        max_iterations=2000,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


@dataclass(frozen=True)
class Topology:
    """Fixed placement of one macro cell (origin), small cells, WAPs, users.

    ``covered_users[n]`` lists the users BS n may serve: the macro cell
    (index 0) covers every user, a small cell the users inside its coverage
    radius.
    """

    mbs_position: np.ndarray
    sbs_positions: np.ndarray    # (n_sbs, 2)
    wap_positions: np.ndarray    # (n_waps, 2)
    user_positions: np.ndarray   # (n_users, 2)
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

    gain: np.ndarray  # (n_users, n_bs, 2), strictly positive

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
    sbs = _uniform_disc(rng, config.n_sbs, MACRO_RADIUS_M)
    wap = _uniform_disc(rng, config.n_waps, MACRO_RADIUS_M)
    users = _uniform_disc(rng, config.n_users, MACRO_RADIUS_M)

    covered = [tuple(range(config.n_users))]
    for j in range(config.n_sbs):
        covered.append(tuple(
            i for i in range(config.n_users)
            if np.linalg.norm(users[i] - sbs[j]) <= config.sbs_coverage_m))
    return Topology(
        mbs_position=np.zeros(2),
        sbs_positions=sbs,
        wap_positions=wap,
        user_positions=users,
        covered_users=tuple(covered),
    )


def draw_channel(topology: Topology, seed: int) -> ChannelRealization:
    """Sample one channel realization, held fixed for a whole learning run.

    gain = 10^(-PL_dB/10) * g with g ~ Exponential(mean 1), drawn
    independently per link and band; PL_dB = A + B log10(d) with the
    band's PATHLOSS_LICENSED or PATHLOSS_UNLICENSED pair, the user-BS
    distance d clamped below at MIN_LINK_DISTANCE_M.
    """
    rng = np.random.default_rng(seed)
    users = topology.user_positions
    bs = topology.bs_positions()
    dist = np.linalg.norm(users[:, None, :] - bs[None, :, :], axis=2)
    dist = np.maximum(dist, MIN_LINK_DISTANCE_M)

    logd = np.log10(dist)
    pl = np.empty((topology.n_users, topology.n_bs, 2))
    a_l, b_l = PATHLOSS_LICENSED
    a_u, b_u = PATHLOSS_UNLICENSED
    pl[:, :, LICENSED] = a_l + b_l * logd
    pl[:, :, UNLICENSED] = a_u + b_u * logd

    fading = rng.exponential(1.0, size=pl.shape)
    fading = np.maximum(fading, 1e-300)  # exact zeros would break the positivity contract
    gain = 10.0 ** (-pl / 10.0) * fading
    return ChannelRealization(gain=gain)
