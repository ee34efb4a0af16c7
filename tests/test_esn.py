"""Reservoir construction, state dynamics, readout training."""

import math

import numpy as np
import pytest
import scipy.sparse

from lteusim.esn import (
    Readout,
    Reservoir,
    init,
    peek_state,
    readout,
    readout_all,
    train_step,
    update_state,
)


class TestInit:
    def test_spectral_radius_near_target(self):
        # 30 takes the dense route, 200 and 1000 the sparse one; 1000 is
        # the ScenarioConfig() size. At seed 9 there, ARPACK's default
        # 20-vector basis settles on a near-dominant eigenvalue (0.911)
        cases = [(30, 0), (200, 0)] + [(1000, seed) for seed in (0, 1, 9)]
        for n_units, seed in cases:
            reservoir, _ = init(n_units, input_dim=4, n_actions=8,
                                density=0.1, target_radius=0.9, seed=seed)
            radius = np.abs(np.linalg.eigvals(reservoir.w.toarray())).max()
            assert 0.89 <= radius <= 0.91, (n_units, seed, radius)

    def test_full_density_has_no_structural_zeros(self):
        reservoir, _ = init(40, 2, 3, density=1.0, seed=1)
        assert reservoir.w.nnz == 40 * 40

    def test_density_is_respected(self):
        reservoir, _ = init(200, 2, 3, density=0.1, seed=2)
        assert reservoir.w.nnz / 200 ** 2 == pytest.approx(0.1, abs=0.02)

    def test_deterministic_in_seed(self):
        for n_units in (60, 1000):  # both on the ARPACK route
            a_res, a_ro = init(n_units, 3, 5, seed=11)
            b_res, b_ro = init(n_units, 3, 5, seed=11)
            c_res, _ = init(n_units, 3, 5, seed=12)
            assert np.array_equal(a_res.w_in, b_res.w_in)
            assert np.array_equal(a_res.w.toarray(), b_res.w.toarray())
            assert np.array_equal(a_ro.w_out, b_ro.w_out)
            assert not np.array_equal(a_res.w_in, c_res.w_in)

    def test_input_scaling_default(self):
        # the default is the unit scale every run passes: raw Uniform(-1, 1)
        reservoir, _ = init(100, 6, 4, seed=3)
        unit, _ = init(100, 6, 4, seed=3, input_scale=1.0)
        assert np.array_equal(reservoir.w_in, unit.w_in)
        assert np.abs(reservoir.w_in).max() > 0.5
        scaled, _ = init(100, 6, 4, seed=3, input_scale=0.25)
        assert np.array_equal(scaled.w_in, 0.25 * unit.w_in)

    def test_fresh_state_and_readout_shape(self):
        reservoir, ro = init(50, 4, 7, seed=4)
        assert not reservoir.state.any()
        assert ro.w_out.shape == (7, 55)

    @pytest.mark.parametrize("kwargs", [
        dict(target_radius=0.0), dict(target_radius=1.0),
        dict(density=0.0), dict(density=1.5),
    ])
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ValueError):
            init(20, 2, 2, **kwargs)


def hand_reservoir():
    w = scipy.sparse.csr_matrix(np.array([[0.5, -0.25], [0.1, 0.3]]))
    return Reservoir(w_in=np.array([[1.0], [-2.0]]), w=w,
                     state=np.array([0.2, -0.1]), n_units=2)


class TestStateUpdate:
    def test_rest_state_stays_at_rest(self):
        reservoir, _ = init(30, 2, 2, seed=0)
        assert not update_state(reservoir, [0.0, 0.0]).any()

    def test_two_unit_hand_values(self):
        # pre-activations: 0.5*0.2 + 0.25*0.1 + 1 = 1.125
        #                  0.1*0.2 - 0.3*0.1 - 2 = -2.01
        state = update_state(hand_reservoir(), [1.0])
        assert state[0] == pytest.approx(0.80930107020178101, abs=1e-12)
        assert state[1] == pytest.approx(-0.96472731932055463, abs=1e-12)

    def test_state_bounded_by_tanh(self):
        # at unit input scale these inputs would round tanh to exactly 1.0
        reservoir, _ = init(80, 3, 2, seed=5, input_scale=1.0 / math.sqrt(80))
        state = update_state(reservoir, [50.0, -50.0, 30.0])
        assert np.all(np.abs(state) < 1.0)

    def test_saturated_state_reaches_the_closed_bound(self):
        # at unit input scale the same inputs drive most units past the
        # point where float tanh returns exactly +-1.0
        reservoir, _ = init(80, 3, 2, seed=5)
        state = update_state(reservoir, [50.0, -50.0, 30.0])
        assert np.all(np.abs(state) <= 1.0)
        assert np.count_nonzero(np.abs(state) == 1.0) == 51

    def test_dimension_mismatch(self):
        reservoir, _ = init(10, 3, 2, seed=0)
        with pytest.raises(ValueError):
            update_state(reservoir, [1.0, 2.0])

    def test_peek_does_not_commit(self):
        reservoir = hand_reservoir()
        before = reservoir.state.copy()
        peeked = peek_state(reservoir, [1.0])
        assert np.array_equal(reservoir.state, before)
        committed = update_state(reservoir, [1.0])
        assert np.array_equal(peeked, committed)



class TestDriveCache:
    def fresh_peek(self, reservoir, x):
        # the uncached expression, recomputed from scratch
        x = np.asarray(x, dtype=float)
        return np.tanh(reservoir.w @ reservoir.state + reservoir.w_in @ x)

    def test_peek_after_reassignment_reads_the_new_state(self):
        reservoir, _ = init(40, 3, 2, seed=2)
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 3)
        for _ in range(3):
            peek_state(reservoir, x)  # fills the cache for the old state
            reservoir.state = rng.uniform(-0.9, 0.9, 40)
            assert np.array_equal(peek_state(reservoir, x),
                                  self.fresh_peek(reservoir, x))
            assert np.array_equal(reservoir.drive,
                                  reservoir.w @ reservoir.state)

    def test_commit_refreshes_the_drive(self):
        reservoir, _ = init(40, 3, 2, seed=2)
        x = np.array([0.3, -0.2, 0.9])
        for _ in range(4):
            want = self.fresh_peek(reservoir, x)
            assert np.array_equal(update_state(reservoir, x), want)
        assert np.array_equal(peek_state(reservoir, x),
                              self.fresh_peek(reservoir, x))

    def test_committed_state_and_drive_are_read_only(self):
        reservoir = hand_reservoir()
        with pytest.raises(ValueError, match="read-only"):
            reservoir.state[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            reservoir.state += 1.0
        with pytest.raises(ValueError, match="read-only"):
            reservoir.drive[1] = 0.0
        assert np.array_equal(reservoir.state, [0.2, -0.1])

    def test_assignment_copies(self):
        source = np.array([0.2, -0.1])
        reservoir = hand_reservoir()
        reservoir.state = source
        source[0] = 0.9  # the caller's array stays writable and apart
        assert np.array_equal(reservoir.state, [0.2, -0.1])
        assert np.array_equal(peek_state(reservoir, [1.0]),
                              self.fresh_peek(reservoir, [1.0]))

class TestReadout:
    def test_zero_row_predicts_zero(self):
        ro = Readout(w_out=np.zeros((3, 7)), rate=0.1)
        assert readout(ro, np.ones(4), [1.0, 2.0], 1) == 0.0

    def test_selector_row_reads_the_input_slot(self):
        w_out = np.zeros((2, 7))
        w_out[0, 4] = 1.0  # first input slot after 4 state units
        ro = Readout(w_out=w_out, rate=0.1)
        assert readout(ro, np.zeros(4), [3.5, -1.0], 0) == 3.5

    def test_constant_slot_is_always_on(self):
        w_out = np.zeros((1, 7))
        w_out[0, -1] = 2.5  # trailing bias slot
        ro = Readout(w_out=w_out, rate=0.1)
        assert readout(ro, np.zeros(4), [0.0, 0.0], 0) == 2.5

    def test_matches_manual_dot_product(self):
        rng = np.random.default_rng(7)
        ro = Readout(w_out=rng.uniform(-1, 1, (4, 10)), rate=0.1)
        mu, x = rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 3)
        manual = sum(w * z for w, z in zip(ro.w_out[2],
                                           list(mu) + list(x) + [1.0]))
        assert readout(ro, mu, x, 2) == pytest.approx(manual, rel=1e-12)

    def test_readout_all_consistent(self):
        rng = np.random.default_rng(8)
        ro = Readout(w_out=rng.uniform(-1, 1, (5, 8)), rate=0.1)
        mu, x = rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 2)
        stacked = readout_all(ro, mu, x)
        for i in range(5):
            assert stacked[i] == pytest.approx(readout(ro, mu, x, i), rel=1e-14)

    def test_width_mismatch(self):
        ro = Readout(w_out=np.zeros((2, 5)), rate=0.1)
        with pytest.raises(ValueError):
            readout(ro, np.zeros(4), [1.0, 2.0], 0)


class TestTrainStep:
    def test_exact_prediction_changes_nothing(self):
        rng = np.random.default_rng(9)
        ro = Readout(w_out=rng.uniform(-1, 1, (3, 9)), rate=0.3)
        mu, x = rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 2)
        target = readout(ro, mu, x, 1)
        before = ro.w_out.copy()
        train_step(ro, mu, x, 1, target)
        assert np.array_equal(ro.w_out, before)

    def test_single_coordinate_update(self):
        ro = Readout(w_out=np.zeros((2, 5)), rate=0.5)
        train_step(ro, np.zeros(2), [1.0, 0.0], 0, e=1.0)
        expected = np.zeros((2, 5))
        expected[0, 2] = 0.5  # lr * (1 - 0) on the granted input slot
        expected[0, 4] = 0.5  # and the same on the constant slot
        assert np.array_equal(ro.w_out, expected)

    def test_only_one_row_moves(self):
        rng = np.random.default_rng(10)
        ro = Readout(w_out=rng.uniform(-1, 1, (5, 8)), rate=0.2)
        before = ro.w_out.copy()
        train_step(ro, rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 3), 3,
                   e=2.0)
        changed = np.any(ro.w_out != before, axis=1)
        assert changed.tolist() == [False, False, False, True, False]

    def test_geometric_error_decay(self):
        # fixed features: error shrinks by exactly (1 - lr ||z||^2) per step
        mu = np.array([0.3, -0.4])
        x = np.array([0.5])
        z_sq = float(np.dot(mu, mu) + np.dot(x, x)) + 1.0
        lr = 0.5
        ratio = 1.0 - lr * z_sq
        assert 0.0 < ratio < 1.0
        ro = Readout(w_out=np.zeros((1, 4)), rate=lr)
        target = 2.0
        errors = []
        for _ in range(60):
            errors.append(target - readout(ro, mu, x, 0))
            train_step(ro, mu, x, 0, target)
        for a, b in zip(errors, errors[1:]):
            assert b == pytest.approx(a * ratio, rel=1e-10)
        assert errors[-1] == pytest.approx(target * ratio ** 59, rel=1e-9)

    def test_scalar_feature_decay_is_exponential(self):
        # bias-only features z=[1]: |r_hat - u| = |u| (1-lr)^t, monotone
        lr = 0.08
        ro = Readout(w_out=np.zeros((1, 1)), rate=lr)
        target = 5.0
        errors = [abs(target - readout(ro, np.zeros(0), [], 0))]
        t = 0
        while errors[-1] >= 1e-3:
            t += 1
            assert t < 200
            train_step(ro, np.zeros(0), [], 0, target)
            errors.append(abs(target - readout(ro, np.zeros(0), [], 0)))
        assert all(a > b for a, b in zip(errors, errors[1:]))
        for step, err in enumerate(errors):
            assert err == pytest.approx(target * (1 - lr) ** step, rel=1e-9)


class TestEchoStateProperty:
    def test_different_histories_converge(self):
        reservoir_a, _ = init(120, 3, 2, seed=13)
        reservoir_b, _ = init(120, 3, 2, seed=13)
        rng = np.random.default_rng(4)
        reservoir_b.state = rng.uniform(-0.9, 0.9, 120)
        gap_start = np.linalg.norm(reservoir_a.state - reservoir_b.state)
        drive = np.random.default_rng(5)
        for _ in range(1000):
            x = drive.uniform(-1, 1, 3)
            update_state(reservoir_a, x)
            update_state(reservoir_b, x)
        gap_end = np.linalg.norm(reservoir_a.state - reservoir_b.state)
        assert gap_end < 1e-6 < gap_start
