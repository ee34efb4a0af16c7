"""Reservoir construction, state dynamics, readout training."""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from lteusim.agents import LAMBDA_ALPHA, LAMBDA_BETA
from lteusim.esn import (
    Readout,
    Reservoir,
    init,
    peek_state,
    readout_all,
    train_step,
    update_state,
)
from oracles import recurrent_matrix


def max_modulus(w):
    return np.abs(np.linalg.eigvals(w)).max()


class TestInit:
    def test_spectral_radius_near_target(self):
        # every eigenvalue of the cycle r*P lies on the circle of radius r,
        # at every size and seed
        for n_units, seed in [(2, 0), (30, 0), (200, 0), (200, 9)]:
            reservoir, _ = init(n_units, input_dim=4, n_actions=8,
                                target_radius=0.9, seed=seed)
            moduli = np.abs(np.linalg.eigvals(recurrent_matrix(reservoir)))
            assert moduli == pytest.approx(np.full(n_units, 0.9), rel=1e-12,
                                           abs=0), (n_units, seed)

    def test_dense_radius_is_exact(self):
        # the radius and the largest singular value both equal the target,
        # so the largest singular value is below 1: Jaeger's sufficient
        # condition for the echo state property holds
        cases = [(100, r) for r in (0.05, 0.3, 0.9, 0.99)] + [(1000, 0.9)]
        for n_units, radius in cases:
            reservoir, _ = init(n_units, input_dim=4, n_actions=8,
                                target_radius=radius, seed=3)
            w = recurrent_matrix(reservoir)
            singular = np.linalg.svd(w, compute_uv=False).max()
            assert singular == pytest.approx(radius, rel=1e-12, abs=0)
            assert singular < 1.0
            if n_units == 100:  # eigvals takes seconds at 1000 units
                assert max_modulus(w) == pytest.approx(radius, rel=1e-12,
                                                       abs=0)

    def test_deterministic_in_seed(self):
        for n_units in (60, 1000):
            a_res, a_ro = init(n_units, 3, 5, seed=11)
            b_res, b_ro = init(n_units, 3, 5, seed=11)
            c_res, _ = init(n_units, 3, 5, seed=12)
            assert np.array_equal(a_res.w_in, b_res.w_in)
            assert a_res.radius == b_res.radius == 0.9
            assert np.array_equal(a_ro.w_out, b_ro.w_out)
            assert not np.array_equal(a_res.w_in, c_res.w_in)

    def test_input_weights_are_the_streams_first_draw(self):
        # the same w_in as the random sparse reservoir drew before the cycle
        # replaced it: the first Uniform(-1, 1) draw of default_rng([seed, 0])
        for n_units, input_dim, seed in [(60, 3, 11), (100, 20, 0)]:
            reservoir, _ = init(n_units, input_dim, 5, seed=seed)
            want = np.random.default_rng([seed, 0]).uniform(
                -1.0, 1.0, size=(n_units, input_dim))
            assert np.array_equal(reservoir.w_in, want)

    def test_holds_no_square_array(self):
        # the ScenarioConfig() size: O(n_units) beside the input weights
        reservoir, _ = init(1000, 3, 5, seed=0)
        reservoir.state = np.full(1000, 0.5)
        reservoir.drive  # a read of the recurrent term stores nothing
        shapes = [v.shape for v in vars(reservoir).values()
                  if hasattr(v, "shape")]
        assert shapes and all(math.prod(shape) <= 1000 * 3
                              for shape in shapes)

    def test_fresh_state_and_readout_shape(self):
        reservoir, ro = init(50, 4, 7, seed=4)
        assert not reservoir.state.any()
        assert ro.w_out.shape == (7, 55)

    @pytest.mark.parametrize("kwargs", [
        dict(target_radius=0.0), dict(target_radius=1.0),
        dict(target_radius=-0.5), dict(target_radius=math.nan),
    ])
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ValueError):
            init(20, 2, 2, **kwargs)


def hand_reservoir():
    return Reservoir(w_in=np.array([[1.0], [-2.0]]), radius=0.5,
                     state=np.array([0.2, -0.1]))


class TestStateUpdate:
    def test_rest_state_stays_at_rest(self):
        reservoir, _ = init(30, 2, 2, seed=0)
        assert not update_state(reservoir, [0.0, 0.0]).any()

    def test_two_unit_hand_values(self):
        # each unit reads the other at radius 0.5; pre-activations:
        # 0.5*(-0.1) + 1 = 0.95 and 0.5*0.2 - 2 = -1.9
        state = update_state(hand_reservoir(), [1.0])
        assert state[0] == pytest.approx(0.73978305127400430, abs=1e-12)
        assert state[1] == pytest.approx(-0.95623745812773905, abs=1e-12)

    def test_state_bounded_by_tanh(self):
        # at unit input scale these inputs would round tanh to exactly 1.0
        reservoir, _ = init(80, 3, 2, seed=5)
        reservoir.w_in *= 1.0 / math.sqrt(80)
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


class TestDrive:
    def fresh_peek(self, reservoir, x):
        # the dense expression, recomputed from scratch
        x = np.asarray(x, dtype=float)
        return np.tanh(recurrent_matrix(reservoir) @ reservoir.state
                       + reservoir.w_in @ x)

    def test_peek_after_reassignment_reads_the_new_state(self):
        reservoir, _ = init(40, 3, 2, seed=2)
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 3)
        for _ in range(3):
            peek_state(reservoir, x)  # reads the old state
            reservoir.state = rng.uniform(-0.9, 0.9, 40)
            assert np.array_equal(peek_state(reservoir, x),
                                  self.fresh_peek(reservoir, x))
            assert np.array_equal(reservoir.drive,
                                  recurrent_matrix(reservoir)
                                  @ reservoir.state)

    def test_drive_is_the_dense_product_bit_for_bit(self):
        # each row of r*P holds one nonzero, so the dense gemv adds only
        # zeros to radius * state[i - 1]
        rng = np.random.default_rng(3)
        for n_units in (100, 1000):
            reservoir, _ = init(n_units, 2, 2, target_radius=0.3, seed=1)
            w = recurrent_matrix(reservoir)
            for _ in range(20):
                reservoir.state = rng.uniform(-1.0, 1.0, n_units)
                want = w @ reservoir.state
                assert reservoir.drive.tobytes() == want.tobytes()

    def test_commit_refreshes_the_drive(self):
        reservoir, _ = init(40, 3, 2, seed=2)
        x = np.array([0.3, -0.2, 0.9])
        for _ in range(4):
            want = self.fresh_peek(reservoir, x)
            assert np.array_equal(update_state(reservoir, x), want)
        assert np.array_equal(peek_state(reservoir, x),
                              self.fresh_peek(reservoir, x))


def readout(ro, mu, x, action_i):
    """One action's prediction w_out[action_i] @ [mu; x; 1], as the LMS
    step computes it."""
    z = np.concatenate([np.asarray(mu, dtype=float),
                        np.asarray(x, dtype=float), [1.0]])
    return float(ro.w_out[action_i] @ z)


class TestReadout:
    def test_zero_row_predicts_zero(self):
        ro = Readout(w_out=np.zeros((3, 7)), rate=0.1)
        assert readout_all(ro, np.ones(4), [1.0, 2.0])[1] == 0.0

    def test_selector_row_reads_the_input_slot(self):
        w_out = np.zeros((2, 7))
        w_out[0, 4] = 1.0  # first input slot after 4 state units
        ro = Readout(w_out=w_out, rate=0.1)
        assert readout_all(ro, np.zeros(4), [3.5, -1.0])[0] == 3.5

    def test_constant_slot_is_always_on(self):
        w_out = np.zeros((1, 7))
        w_out[0, -1] = 2.5  # trailing bias slot
        ro = Readout(w_out=w_out, rate=0.1)
        assert readout_all(ro, np.zeros(4), [0.0, 0.0])[0] == 2.5

    def test_matches_manual_dot_product(self):
        rng = np.random.default_rng(7)
        ro = Readout(w_out=rng.uniform(-1, 1, (4, 10)), rate=0.1)
        mu, x = rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 3)
        manual = sum(w * z for w, z in zip(ro.w_out[2],
                                           list(mu) + list(x) + [1.0]))
        assert readout_all(ro, mu, x)[2] == pytest.approx(manual, rel=1e-12)

    def test_readout_all_consistent(self):
        # every entry agrees with the prediction the LMS step makes
        rng = np.random.default_rng(8)
        ro = Readout(w_out=rng.uniform(-1, 1, (5, 8)), rate=0.0)
        mu, x = rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 2)
        stacked = readout_all(ro, mu, x)
        for i in range(5):
            assert stacked[i] == pytest.approx(train_step(ro, mu, x, i, 0.0),
                                               rel=1e-14)

    def test_width_mismatch(self):
        ro = Readout(w_out=np.zeros((2, 5)), rate=0.1)
        with pytest.raises(ValueError):
            readout_all(ro, np.zeros(4), [1.0, 2.0])
        with pytest.raises(ValueError):
            train_step(ro, np.zeros(4), [1.0, 2.0], 0, 1.0)
        assert not ro.w_out.any()


class TestTrainStep:
    def test_exact_prediction_changes_nothing(self):
        rng = np.random.default_rng(9)
        ro = Readout(w_out=rng.uniform(-1, 1, (3, 9)), rate=0.3)
        mu, x = rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 2)
        target = readout(ro, mu, x, 1)
        before = ro.w_out.copy()
        train_step(ro, mu, x, 1, target)
        assert np.array_equal(ro.w_out, before)

    def test_returns_the_prediction_before_the_update(self):
        rng = np.random.default_rng(11)
        ro = Readout(w_out=rng.uniform(-1, 1, (3, 9)), rate=0.3)
        mu, x = rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 2)
        before = readout(ro, mu, x, 2)
        assert train_step(ro, mu, x, 2, before + 1.0) == before
        assert readout(ro, mu, x, 2) != before

    def test_single_coordinate_update(self):
        ro = Readout(w_out=np.zeros((2, 5)), rate=0.5)
        train_step(ro, np.zeros(2), [1.0, 0.0], 0, e=1.0)
        expected = np.zeros((2, 5))
        # z = [0, 0, 1, 0, 1], |z|^2 = 2: lr * (1 - 0) / (1 + 2) on the
        # granted input slot and the same on the constant slot
        expected[0, 2] = expected[0, 4] = 0.5 / 3.0
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
        # fixed features: error shrinks by exactly
        # (1 - lr ||z||^2 / (1 + ||z||^2)) per step
        mu = np.array([0.3, -0.4])
        x = np.array([0.5])
        z_sq = float(np.dot(mu, mu) + np.dot(x, x)) + 1.0
        lr = 0.5
        ratio = 1.0 - lr * z_sq / (1.0 + z_sq)
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
        # bias-only features z=[1], ||z||^2 = 1: |r_hat - u| = |u| (1-lr/2)^t,
        # monotone
        lr = 0.16
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
            assert err == pytest.approx(target * (1 - lr / 2) ** step,
                                       rel=1e-9)


    @pytest.mark.parametrize("lr", [LAMBDA_ALPHA, LAMBDA_BETA])
    def test_saturated_reservoir_step_stays_bounded(self, lr):
        # a saturated 1000-unit reservoir: float tanh rounds every
        # pre-activation past ~19 to exactly +-1.0, so ||z||^2 = 1001 +
        # ||x||^2. A step by lr ||z||^2 would multiply the error by about
        # -80 at lr = 0.08; the normalized step shrinks it by
        # 1 - lr ||z||^2 / (1 + ||z||^2), inside (0, 1), at every step
        rng = np.random.default_rng(21)
        mu = np.tanh(25.0 * rng.choice([-1.0, 1.0], 1000))
        assert np.all(np.abs(mu) == 1.0)
        x = rng.uniform(-1, 1, 8)
        z_sq = 1000.0 + float(x @ x) + 1.0
        ratio = 1.0 - lr * z_sq / (1.0 + z_sq)
        assert 0.0 < ratio < 1.0
        ro = Readout(w_out=rng.uniform(-1, 1, (2, 1009)), rate=lr)
        target = 3.0e6
        errors = []
        for _ in range(50):
            errors.append(target - readout(ro, mu, x, 1))
            train_step(ro, mu, x, 1, target)
        for a, b in zip(errors, errors[1:]):
            assert b == pytest.approx(a * ratio, rel=1e-9, abs=1e-9 * target)
        assert np.all(np.isfinite(ro.w_out))
        assert abs(errors[-1]) < abs(errors[0])

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


SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_python(code):
    """What ``code`` prints as JSON, run in a new interpreter that imports
    lteusim from this checkout; the test process has scipy loaded already."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(done.stdout)


class TestScipyImport:
    def test_dense_runs_load_no_scipy(self):
        # the command line and a desk run of every algorithm
        loaded = fresh_python("""
            import json, sys
            import lteusim.cli
            from lteusim import harness, scenario
            for algorithm in scenario.ALGORITHMS:
                harness.run(scenario.desk_config(max_iterations=5),
                            algorithm, 0)
            print(json.dumps(sorted(m for m in sys.modules
                                    if m.split(".")[0] == "scipy")))
            """)
        assert loaded == []

    def test_reference_size_run_loads_no_scipy(self):
        # ScenarioConfig()'s 1000-unit reservoirs hold no matrix and need
        # no radius, so no size loads scipy
        got = fresh_python("""
            import json, sys
            from lteusim import harness, scenario
            config = scenario.ScenarioConfig(max_iterations=3)
            result = harness.run(config, "esn", 0)
            print(json.dumps({
                "rounds": len(result.records),
                "scipy": sorted(m for m in sys.modules
                                if m.split(".")[0] == "scipy")}))
            """)
        assert got == {"rounds": 3, "scipy": []}
