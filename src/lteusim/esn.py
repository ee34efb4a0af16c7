"""Echo-state network core: reservoir, linear readout, LMS training.

The reservoir is a fixed random matrix, masked to a density and rescaled to
a spectral radius below one. Up to ``_DENSE_UNITS`` units it is kept as a
dense array, above that as a CSR matrix. Only the readout learns, one row
per action, by stochastic gradient on the squared prediction error.
scipy is imported only on the sparse route, by the first reservoir above
``_DENSE_UNITS`` units; a dense run never loads it.

No function here re-checks a vector's width: the product ``w_in @ x`` or
``w_out @ z`` raises numpy's ``ValueError`` on a length mismatch, before
any state is committed or any weight moves.

Each readout trains at one constant rate, set by the owner after ``init``
(the agents use ``config.lambda_alpha`` and ``config.lambda_beta``). The
input weights are the raw Uniform(-1, 1) draw, unscaled. Nothing here keeps
the gradient step contractive: at ``ScenarioConfig()`` defaults the
1000-unit states saturate, and the step lambda_alpha * ||z||^2 is about
3.3, above the LMS stability bound of 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse


class Reservoir:
    """Fixed recurrent part of one ESN plus its evolving state.

    ``state`` is the committed activation vector, in [-1, 1]^n_units:
    float tanh rounds to exactly +-1.0 once a pre-activation passes about
    19. Assigning it stores a read-only copy, so a committed state cannot
    change behind the cache below.

    ``drive`` is the recurrent term ``w @ state`` of the next step. It is
    computed once per committed state, on first use, and every peek from
    that state (``peek_state``, the agents' profile expectation) reads the
    same floats. Assigning ``state`` drops it; ``w`` is fixed once the
    reservoir is built.
    """

    def __init__(self, w_in: np.ndarray,
                 w: np.ndarray | scipy.sparse.csr_matrix,
                 state: np.ndarray, n_units: int):
        self.w_in = w_in      # (n_units, input_dim)
        # (n_units, n_units), spectral radius < 1; dense up to _DENSE_UNITS
        self.w = w
        self.state = state
        self.n_units = n_units

    @property
    def state(self) -> np.ndarray:
        return self._state

    @state.setter
    def state(self, value) -> None:
        state = np.array(value, dtype=float)
        state.flags.writeable = False
        self._state = state
        self._drive = None

    @property
    def drive(self) -> np.ndarray:
        if self._drive is None:
            drive = self.w @ self._state
            drive.flags.writeable = False
            self._drive = drive
        return self._drive


@dataclass
class Readout:
    """Trainable linear readout: one weight row per action over
    [state; input; 1]. The trailing constant keeps rows trainable even
    when the reservoir has no input drive and its state has decayed."""

    w_out: np.ndarray  # (n_actions, n_units + input_dim + 1)
    rate: float        # LMS step size, the same at every update


# construction -------------------------------------------------------------


# Up to this size a reservoir stays dense: eigvals beats ARPACK on the radius
# and one BLAS gemv beats scipy.sparse on ``w @ state``. Medians at density
# 0.1, one BLAS thread: 150 units 13.5 vs 17.1 ms and 5.7 vs 8.3 us; at 175
# units eigvals already loses, 19.5 vs 18.7 ms. scipy is imported only above
# this size, which keeps ~30 MB of peak RSS and ~0.3 s of import off every
# dense run.
_DENSE_UNITS = 150


def _spectral_radius(w: np.ndarray | scipy.sparse.csr_matrix) -> float:
    """Largest eigenvalue modulus of ``w``; its type picks the route.

    A dense array (``init`` keeps ``_DENSE_UNITS`` or fewer units dense, the
    size where it is faster) gets the exact ``np.linalg.eigvals``. A CSR
    matrix gets ARPACK, which starts from a fixed vector, so ``init`` stays
    deterministic in its seed; ``ncv`` is widened from the default 20 so that
    ``eigs`` settles on the dominant modulus rather than a near-dominant one.
    """
    if isinstance(w, np.ndarray):
        return float(np.abs(np.linalg.eigvals(w)).max())
    import scipy.sparse.linalg
    n = w.shape[0]
    try:
        values = scipy.sparse.linalg.eigs(w, k=1, which="LM", ncv=40,
                                          v0=np.ones(n),
                                          return_eigenvectors=False,
                                          maxiter=5000)
        return float(np.abs(values[0]))
    except scipy.sparse.linalg.ArpackNoConvergence:
        return _spectral_radius(w.toarray())


def init(n_units: int, input_dim: int, n_actions: int, density: float = 0.1,
         target_radius: float = 0.9,
         seed: int = 0) -> tuple[Reservoir, Readout]:
    """Fresh reservoir/readout pair, deterministic in ``seed``.

    All weights start Uniform(-1, 1); the recurrent matrix is sparsified to
    ``density`` and rescaled to ``target_radius``. A degenerate draw (radius
    numerically zero) is retried with a derived seed. The readout's rate
    starts at 0.
    """
    if not 0.0 < target_radius < 1.0:
        raise ValueError("target_radius must lie in (0, 1)")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must lie in (0, 1]")

    for attempt in range(8):
        rng = np.random.default_rng([seed, attempt])
        w_in = rng.uniform(-1.0, 1.0, size=(n_units, input_dim))
        dense = rng.uniform(-1.0, 1.0, size=(n_units, n_units))
        if density < 1.0:
            dense *= rng.random((n_units, n_units)) < density
        w = dense
        if n_units > _DENSE_UNITS:
            import scipy.sparse
            w = scipy.sparse.csr_matrix(dense)
        radius = _spectral_radius(w)
        if radius < 1e-12:
            continue  # pathological draw, derive a fresh seed
        w = w * (target_radius / radius)
        w_out = rng.uniform(-1.0, 1.0,
                            size=(n_actions, n_units + input_dim + 1))
        reservoir = Reservoir(w_in=w_in, w=w, state=np.zeros(n_units),
                              n_units=n_units)
        return reservoir, Readout(w_out=w_out, rate=0.0)
    raise RuntimeError("could not draw a reservoir with a usable spectral radius")


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
    """One LMS step on the taken action's row: row += rate (e - r_hat) z.
    Returns r_hat, the row's prediction from before the update."""
    z = _features(mu, x)
    prediction = float(ro.w_out[action_i] @ z)
    ro.w_out[action_i] += ro.rate * (e - prediction) * z
    return prediction
