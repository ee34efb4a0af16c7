"""Echo-state network core: reservoir, linear readout, NLMS training.

The reservoir is the simple cycle reservoir of Rodan & Tino ("Minimum
complexity echo state network", IEEE TNN 22(1), 2011): unit i feeds unit
i+1 and the last unit feeds the first, every link with the same weight, the
target radius r. The recurrent matrix r*P (P a cyclic shift) has spectral
radius and largest singular value both equal to r, so no eigenvalue is
computed, and a largest singular value below one is Jaeger's sufficient
condition for the echo state property (GMD Report 148, 2001). The matrix
is never stored: the recurrent term is the state shifted by one unit and
scaled by r, O(n_units) per step, computed afresh at each read. A
reservoir is plain data, its input weights, r and its state, and each
commit replaces the state array. Only the readout learns, one row per
action, by stochastic gradient on the squared prediction error.

No function here re-checks a vector's width: the product ``w_in @ x`` or
``w_out @ z`` raises numpy's ``ValueError`` on a length mismatch, before
any state is committed or any weight moves.

Each readout trains by normalized LMS (NLMS; Haykin, *Adaptive Filter
Theory*, ch. 6): the taken row steps by ``rate (e - r_hat) z / (1 + z.z)``,
which scales that prediction's error by ``1 - rate z.z / (1 + z.z)``, in
(-1, 1) for any rate mu in (0, 2), whatever the reservoir's size, radius or
saturation. The agents set the rates after ``init``: ``agents.LAMBDA_ALPHA``
and ``LAMBDA_BETA``. The input weights are the raw Uniform(-1, 1) draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class Reservoir:
    """Fixed recurrent part of one ESN plus its evolving state.

    The recurrent matrix is ``radius * P``, where ``(P @ s)[i] = s[i - 1]``
    and ``s[-1]`` is the last unit: a cycle of ``n_units`` links of weight
    ``radius``. It is held as that scalar, never as an array.

    ``state`` is the committed activation vector, in [-1, 1]^n_units:
    float tanh rounds to exactly +-1.0 once a pre-activation passes about
    19. It is a plain float array, held by reference: a commit assigns the
    fresh ``tanh`` output, and nothing writes into it in place.

    ``drive`` is the recurrent term ``radius * P @ state`` of the next
    step, computed from ``state`` on each read and equal bit for bit to
    the dense product, whose rows each hold one nonzero.
    """

    def __init__(self, w_in: np.ndarray, radius: float, state: np.ndarray):
        self.w_in = w_in      # (n_units, input_dim)
        self.radius = radius  # the cycle's link weight, in (0, 1)
        self.n_units = w_in.shape[0]
        self.state = state
        # unit i reads unit i - 1; a take() on this fixed index is several
        # times cheaper per step than np.roll, and cheaper than the gemv
        self._shift = np.roll(np.arange(self.n_units), 1)

    @property
    def drive(self) -> np.ndarray:
        return self.radius * self.state.take(self._shift)


@dataclass
class Readout:
    """Trainable linear readout: one weight row per action over
    [state; input; 1]. The trailing constant keeps rows trainable even
    when the reservoir has no input drive and its state has decayed."""

    w_out: np.ndarray  # (n_actions, n_units + input_dim + 1)
    rate: float        # the NLMS step size mu, in (0, 2) for a stable step


# construction -------------------------------------------------------------


def init(n_units: int, input_dim: int, n_actions: int,
         target_radius: float = 0.9,
         seed: int = 0) -> tuple[Reservoir, Readout]:
    """Fresh cycle reservoir and readout, deterministic in ``seed``.

    The input and readout weights are drawn Uniform(-1, 1); the cycle's
    links all weigh ``target_radius``. The readout's rate starts at 0.
    """
    if not 0.0 < target_radius < 1.0:
        raise ValueError("target_radius must lie in (0, 1)")
    rng = np.random.default_rng([seed, 0])
    # w_in is this stream's first draw, as it was for the random sparse
    # reservoir the cycle replaced: the two reservoirs' runs share their
    # input weights, so a paired comparison of them varies the recurrent
    # matrix and the readout's starting draw only
    w_in = rng.uniform(-1.0, 1.0, size=(n_units, input_dim))
    w_out = rng.uniform(-1.0, 1.0, size=(n_actions, n_units + input_dim + 1))
    reservoir = Reservoir(w_in=w_in, radius=target_radius,
                          state=np.zeros(n_units))
    return reservoir, Readout(w_out=w_out, rate=0.0)


# state dynamics -----------------------------------------------------------


def peek_state(r: Reservoir, x) -> np.ndarray:
    """Next state tanh(W mu + W_in x) without committing it."""
    return np.tanh(r.drive + r.w_in @ x)


def update_state(r: Reservoir, x) -> np.ndarray:
    """Advance and commit the reservoir state; returns the new state."""
    r.state = peek_state(r, x)
    return r.state


# readout ------------------------------------------------------------------


_ONE = np.ones(1)


def _features(mu, x) -> np.ndarray:
    """The readout's input z = [mu; x; 1]."""
    return np.concatenate([mu, x, _ONE])


def readout_all(ro: Readout, mu, x) -> np.ndarray:
    """Predicted rewards of every action at once."""
    return ro.w_out @ _features(mu, x)


def train_step(ro: Readout, mu, x, action_i: int, e: float) -> float:
    """One NLMS step on the taken action's row: row += rate (e - r_hat) z
    / (1 + z . z). Returns r_hat, the row's prediction from before it."""
    z = _features(mu, x)
    prediction = float(ro.w_out[action_i] @ z)
    ro.w_out[action_i] += ro.rate * (e - prediction) / (1.0 + z @ z) * z
    return prediction
