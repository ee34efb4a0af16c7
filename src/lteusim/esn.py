"""Echo-state network core: sparse reservoir, linear readout, LMS training.

The reservoir is a fixed random sparse matrix rescaled to a spectral radius
below one; only the readout learns, one row per action, by stochastic
gradient on the squared prediction error.

``init`` scales the input weights by 1/sqrt(n_units) only when it is given
no ``input_scale``. The agents always pass ``config.reservoir_input_scale``
(default 1.0), so that default never applies in a run, and nothing here
keeps the gradient step contractive: at ``ScenarioConfig()`` defaults the
1000-unit states saturate, and the step lambda_alpha * ||z||^2 is about 3.3,
above the LMS stability bound of 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse
import scipy.sparse.linalg


@dataclass
class Reservoir:
    """Fixed recurrent part of one ESN plus its evolving state."""

    w_in: np.ndarray              # (n_units, input_dim)
    w: scipy.sparse.csr_matrix    # (n_units, n_units), spectral radius < 1
    state: np.ndarray             # activation vector, in (-1, 1)^n_units
    n_units: int

    @property
    def input_dim(self) -> int:
        return self.w_in.shape[1]


# learning-rate rules ------------------------------------------------------


@dataclass(frozen=True)
class FixedRate:
    """Constant step size."""

    value: float

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("a learning rate cannot be negative")


@dataclass(frozen=True)
class RobbinsMonro:
    """Step size c / t^p with 0.5 < p <= 1: square-summable but not summable.

    ``strict`` additionally rejects the exact 1/t schedule, whose harmonic
    steps are the one case the geometric error-decay guarantee excludes.
    """

    c: float
    p: float
    strict: bool = False

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("the schedule scale c must be positive")
        if not 0.5 < self.p <= 1.0:
            raise ValueError("the schedule exponent p must lie in (0.5, 1]")
        if self.strict and self.c == 1.0 and self.p == 1.0:
            raise ValueError("the exact 1/t schedule is excluded in strict mode")


def learning_rate(rule, t: int) -> float:
    """Step size of ``rule`` at 1-based iteration t."""
    if t < 1:
        raise ValueError("iterations are 1-based")
    if isinstance(rule, FixedRate):
        return rule.value
    if isinstance(rule, RobbinsMonro):
        return rule.c / t ** rule.p
    raise TypeError(f"unknown learning-rate rule {rule!r}")


@dataclass
class Readout:
    """Trainable linear readout: one weight row per action over
    [state; input; 1]. The trailing constant keeps rows trainable even
    when the reservoir has no input drive and its state has decayed."""

    w_out: np.ndarray  # (n_actions, n_units + input_dim + 1)
    rule: FixedRate | RobbinsMonro

    @property
    def n_actions(self) -> int:
        return self.w_out.shape[0]


# construction -------------------------------------------------------------


def _spectral_radius(w: scipy.sparse.csr_matrix) -> float:
    """Largest eigenvalue modulus of ``w``.

    ARPACK starts from a fixed vector, so ``init`` stays deterministic in
    its seed; ``ncv`` is widened from the default 20 so that ``eigs``
    settles on the dominant modulus rather than a near-dominant one.
    """
    n = w.shape[0]
    if n < 50:
        return float(np.abs(np.linalg.eigvals(w.toarray())).max())
    try:
        values = scipy.sparse.linalg.eigs(w, k=1, which="LM", ncv=40,
                                          v0=np.ones(n),
                                          return_eigenvectors=False,
                                          maxiter=5000)
        return float(np.abs(values[0]))
    except scipy.sparse.linalg.ArpackNoConvergence:
        return float(np.abs(np.linalg.eigvals(w.toarray())).max())


def init(n_units: int, input_dim: int, n_actions: int, density: float = 0.1,
         target_radius: float = 0.9, seed: int = 0,
         input_scale: float | None = None) -> tuple[Reservoir, Readout]:
    """Fresh reservoir/readout pair, deterministic in ``seed``.

    All weights start Uniform(-1, 1); the recurrent matrix is sparsified to
    ``density`` and rescaled to ``target_radius``. A degenerate draw (radius
    numerically zero) is retried with a derived seed.
    """
    if not 0.0 < target_radius < 1.0:
        raise ValueError("target_radius must lie in (0, 1)")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must lie in (0, 1]")
    if input_scale is None:
        input_scale = 1.0 / math.sqrt(n_units)

    for attempt in range(8):
        rng = np.random.default_rng([seed, attempt])
        w_in = rng.uniform(-1.0, 1.0, size=(n_units, input_dim)) * input_scale
        dense = rng.uniform(-1.0, 1.0, size=(n_units, n_units))
        if density < 1.0:
            dense *= rng.random((n_units, n_units)) < density
        w = scipy.sparse.csr_matrix(dense)
        radius = _spectral_radius(w)
        if radius < 1e-12:
            continue  # pathological draw, derive a fresh seed
        w = w * (target_radius / radius)
        w_out = rng.uniform(-1.0, 1.0,
                            size=(n_actions, n_units + input_dim + 1))
        reservoir = Reservoir(w_in=w_in, w=w, state=np.zeros(n_units),
                              n_units=n_units)
        return reservoir, Readout(w_out=w_out, rule=FixedRate(0.0))
    raise RuntimeError("could not draw a reservoir with a usable spectral radius")


# state dynamics -----------------------------------------------------------


def _check_input(r: Reservoir, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (r.input_dim,):
        raise ValueError(f"input of length {x.shape} does not match "
                         f"input_dim {r.input_dim}")
    return x


def peek_state(r: Reservoir, x) -> np.ndarray:
    """Next state tanh(W mu + W_in x) without committing it."""
    x = _check_input(r, x)
    return np.tanh(r.w @ r.state + r.w_in @ x)


def peek_states(r: Reservoir, xs) -> np.ndarray:
    """Batched peek: (S, input_dim) inputs -> (S, n_units) candidate states,
    all branching from the current state."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != r.input_dim:
        raise ValueError("batch must have shape (S, input_dim)")
    return np.tanh(xs @ r.w_in.T + (r.w @ r.state)[None, :])


def update_state(r: Reservoir, x) -> np.ndarray:
    """Advance and commit the reservoir state; returns the new state."""
    r.state = peek_state(r, x)
    return r.state


# readout ------------------------------------------------------------------


def _features(r_or_mu, x) -> np.ndarray:
    mu = np.asarray(r_or_mu, dtype=float)
    return np.concatenate([mu, np.asarray(x, dtype=float), [1.0]])


def readout(ro: Readout, mu, x, action_i: int) -> float:
    """Predicted reward of one action from the concatenated [state; input]."""
    z = _features(mu, x)
    if z.shape[0] != ro.w_out.shape[1]:
        raise ValueError("feature length does not match the readout width")
    return float(ro.w_out[action_i] @ z)


def readout_all(ro: Readout, mu, x) -> np.ndarray:
    """Predicted rewards of every action at once."""
    z = _features(mu, x)
    if z.shape[0] != ro.w_out.shape[1]:
        raise ValueError("feature length does not match the readout width")
    return ro.w_out @ z


def train_step(ro: Readout, mu, x, action_i: int, e: float, t: int) -> Readout:
    """One LMS step on the taken action's row: row += lr (e - r_hat) z."""
    z = _features(mu, x)
    if z.shape[0] != ro.w_out.shape[1]:
        raise ValueError("feature length does not match the readout width")
    lr = learning_rate(ro.rule, t)
    prediction = float(ro.w_out[action_i] @ z)
    ro.w_out[action_i] += lr * (e - prediction) * z
    return ro


# checkpointing ------------------------------------------------------------


def _write_matrix(lines, name, matrix):
    lines.append(name)
    for row in np.atleast_2d(matrix):
        lines.append(" ".join(format(v, ".17g") for v in row))


def save_checkpoint(reservoir: Reservoir, ro: Readout, path) -> None:
    """Plain-text dump: dimension headers then row-major matrix values."""
    lines = [f"reservoir {reservoir.n_units} {reservoir.input_dim}"]
    _write_matrix(lines, "w_in", reservoir.w_in)
    _write_matrix(lines, "w", reservoir.w.toarray())
    _write_matrix(lines, "state", reservoir.state)
    lines.append(f"readout {ro.n_actions} {ro.w_out.shape[1]}")
    _write_matrix(lines, "w_out", ro.w_out)
    rule = ro.rule
    if isinstance(rule, FixedRate):
        lines.append(f"rule fixed {format(rule.value, '.17g')}")
    else:
        lines.append(f"rule robbins_monro {format(rule.c, '.17g')} "
                     f"{format(rule.p, '.17g')} {int(rule.strict)}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_checkpoint(path) -> tuple[Reservoir, Readout]:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    pos = 0

    def take_matrix(rows):
        nonlocal pos
        pos += 1  # skip the name line
        block = [np.array(lines[pos + i].split(), dtype=float)
                 for i in range(rows)]
        pos += rows
        return np.vstack(block)

    tag, n_units, input_dim = lines[pos].split()
    if tag != "reservoir":
        raise ValueError("not a checkpoint file")
    n_units, input_dim = int(n_units), int(input_dim)
    pos += 1
    w_in = take_matrix(n_units)
    w = scipy.sparse.csr_matrix(take_matrix(n_units))
    state = take_matrix(1)[0]
    tag, n_actions, width = lines[pos].split()
    n_actions, width = int(n_actions), int(width)
    pos += 1
    w_out = take_matrix(n_actions)
    rule_tokens = lines[pos].split()
    if rule_tokens[1] == "fixed":
        rule = FixedRate(float(rule_tokens[2]))
    else:
        rule = RobbinsMonro(c=float(rule_tokens[2]), p=float(rule_tokens[3]),
                            strict=bool(int(rule_tokens[4])))
    reservoir = Reservoir(w_in=w_in, w=w, state=state, n_units=n_units)
    return reservoir, Readout(w_out=w_out, rule=rule)
