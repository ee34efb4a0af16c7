"""Golden outputs: full runs at fixed seeds, and the action spaces their
set-up draws.

A change that is meant to leave results alone (a refactor or a speedup)
must keep these. A change that moves them on purpose updates the values
here and says why in CHANGES.md.

Not every output is exact on every host. numpy picks its ``log2``,
``log1p``, ``log10`` and ``**`` loops at run time by the CPU's SIMD level,
and those loops round differently in the last bit: ``log10`` and ``**``
make the channel gains, ``log1p`` the capacities and ``log2`` the
utilities. So a run's discrete outcome is pinned exactly, as
``converged_at`` and a SHA-256 of every round's played and advertised rows
(``rows_digest``), and its floats to a relative 1e-12. The action-space
digests are exact too: the grid fractions they hash are ratios i/z of
integers, and a division rounds alike on every host. The WiFi floats are
Python float arithmetic, outside numpy's dispatch, and stay pinned with
``==``.

The values were recorded with numpy 2.4.6 (OpenBLAS) on an x86-64 CPU with
AVX-512, and every digest and float pin here holds with numpy's AVX-512
loops disabled (``NPY_DISABLE_CPU_FEATURES``), where some ESN and Q
runs' sum and median rates move, by at most 1.2e-15 relative, while every
digest holds. OpenBLAS picks its own kernels by CPU, which that setting
does not vary. A one-ulp change can still flip a near-tied action on some
other run, and
``test_esn_desk_run_rows_do_not_depend_on_avx512`` checks one run across
numpy's levels in a fresh interpreter. No run loads scipy: a reservoir is
a cycle, whose recurrent term is a shifted copy of the state, with no
matrix product and no eigenvalue.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lteusim
from lteusim import agents, wifi
from lteusim.harness import prepare_run, run
from lteusim.scenario import ALGORITHMS, ScenarioConfig, desk_config


def rows_digest(result):
    """``converged_at`` and a SHA-256 of every round's played and
    advertised rows."""
    h = hashlib.sha256()
    for record in result.records:
        h.update(repr((record.joint_action, record.greedy_action)).encode())
    return [result.converged_at, h.hexdigest()]


def assert_floats(got, want):
    assert got == pytest.approx(want, rel=1e-12, abs=0)


def assert_run(result, want):
    """``want`` is the run's ``rows_digest``, pinned exactly, and its sum
    and median rates, pinned to a relative 1e-12."""
    rows, rates = want
    assert rows_digest(result) == rows
    assert_floats((result.metrics["sum_rate_bps"],
                   result.metrics["median_user_rate_bps"]), rates)


@pytest.mark.parametrize("seed, max_iterations, want", [
    (0, None, ([395, "534f359ec5dc3e7111ff686a117a69fc"
                     "d8ba4fb02c089e9e1a499ddea96c0a5d"],
               (58541389.96657944, 4283857.378689419))),
    (1, 300, ([297, "c55cc230eae519b8b739dd2c6453b41c"
                    "48ae502a0fd034ff664d77da728cfdef"],
              (80652597.3871233, 4436968.123044192))),
    (2, 300, ([237, "f382458b961b79ed56a3da099f561c86"
                    "3ab0e5550f7c130d2467b9f659468806"],
              (138631302.517947, 7479994.285671716))),
])
def test_esn_desk_runs(seed, max_iterations, want):
    overrides = {} if max_iterations is None else {
        "max_iterations": max_iterations}
    assert_run(run(desk_config(**overrides), "esn", seed), want)


# run in a fresh interpreter, which reads NPY_DISABLE_CPU_FEATURES when it
# imports numpy
_ROWS_SCRIPT = """
import json, sys
from numpy._core._multiarray_umath import __cpu_features__
from lteusim.harness import run
from lteusim.scenario import desk_config
from test_golden import rows_digest
result = run(desk_config(max_iterations=300), "esn", 2)
json.dump({"rows": rows_digest(result),
           "enabled": [t for t in sys.argv[1:] if __cpu_features__[t]]},
          sys.stdout)
"""


def test_esn_desk_run_rows_do_not_depend_on_avx512():
    # numpy's AVX-512 loops disabled: the run's float outputs may move in
    # the last bit, but not one action. On a CPU without AVX-512 nothing
    # is disabled and both runs are the same
    from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                               __cpu_features__)
    targets = [t for t in __cpu_dispatch__
               if (t == "X86_V4" or t.startswith("AVX512_"))
               and __cpu_features__.get(t)]
    paths = [Path(lteusim.__file__).parents[1], Path(__file__).parent,
             *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets),
               PYTHONPATH=os.pathsep.join(map(str, paths)))
    child = subprocess.run([sys.executable, "-c", _ROWS_SCRIPT, *targets],
                           env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    assert report["enabled"] == []
    native = run(desk_config(max_iterations=300), "esn", 2)
    assert report["rows"] == rows_digest(native)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed, want", [
    (0, ([176, "5ae81f6b85c32c83a74e7d666f507248"
               "206f2b69283430e91fcbce34518310b6"],
         (90054797.33688612, 2652941.555622198))),
    (1, ([159, "6c1ff3a294795d129cdd1825d19bc6e7"
               "73188663f5aaed6b171e277549f7d01f"],
         (86367239.0255167, 2668724.995302884))),
    (2, ([143, "de13e11246ec6fa2cf491204133781b3"
               "520b14c1c3347680f67dc339a0b05127"],
         (140487511.70911807, 3833948.8614333067))),
])
def test_esn_reference_runs(seed, want):
    # the reference operating point, where the 1000-unit states saturate:
    # the normalized LMS step keeps every readout finite, and the run
    # converges with no numpy warning
    assert_run(run(ScenarioConfig(), "esn", seed), want)


def test_q_lteu_decoupled_desk_run():
    assert_run(run(desk_config(), "q_lteu_decoupled", 0),
               ([263, "d45ee94e781f2babd67e8679d2ba6ab9"
                      "789f0dcadc316cebf4c311e9b4a4c80f"],
                (48691838.312088504, 1751854.8256674367)))


@pytest.mark.parametrize("algorithm, want", [
    ("q_lteu_coupled", ([263, "1b48cc9157bf8d05363ef071cc36dc10"
                              "e7cea61863572fa18521280594a5a08f"],
                        (113245970.20671184, 3182173.405970661))),
    ("q_lte_decoupled", ([263, "236ae816f16695c9899bd3c46b824523"
                               "8f52db9dfa4dd13193d5fb3655edb081"],
                         (40205191.14290304, 1751854.8256674367))),
])
def test_gated_q_desk_runs(algorithm, want):
    # the coupled settle and the licensed-only gate, each at desk_config()
    assert_run(run(desk_config(), algorithm, 0), want)


def test_esn_exact_expectation_run(monkeypatch):
    # two actions per cell keep every opponent space within the budget, so
    # each beta expectation enumerates exactly
    exact = []
    original = agents.beta_expectation

    def recording(agent, action_i):
        result = original(agent, action_i)
        exact.append(result.exact)
        return result

    monkeypatch.setattr(agents, "beta_expectation", recording)
    result = run(desk_config(action_set_size=2, max_iterations=300), "esn", 0)
    assert_run(result, ([53, "f4f5b5664097f1425799d8f7519fffdc"
                             "9c1b10c9031da481a1c727d063690f27"],
                        (63110477.377243906, 4222807.472231204)))
    assert len(exact) == 53 * 5 and all(exact)


def learner_sum(result):
    """Exact sum of every round's learner floats: each BS's e_alpha, e_beta,
    r_hat_alpha and r_hat_beta. Float drift that flips no decision leaves
    the fingerprint alone but moves this."""
    return math.fsum(value for record in result.records
                     for d in record.diagnostics
                     for value in (d.e_alpha, d.e_beta, d.r_hat_alpha,
                                   d.r_hat_beta))


def test_esn_learner_floats_sampled():
    # every beta expectation of this run is sampled
    result = run(desk_config(max_iterations=100), "esn", 0)
    assert rows_digest(result) == [None, "49f60acae6ceac8d6a56367646d2fb52"
                                         "d7dc1d2c83013467e8d9c428f79011b4"]
    assert_floats(learner_sum(result), 67545.93515036722)


def test_esn_learner_floats_exact():
    # every beta expectation is enumerated; the run's rows are pinned in
    # test_esn_exact_expectation_run
    result = run(desk_config(action_set_size=2, max_iterations=300), "esn", 0)
    assert_floats(learner_sum(result), 60156.17847668189)


@pytest.mark.parametrize("n_wifi, want", [
    (1, (0.11764705882352941, 47545030.62997165, 0.9158692307692308)),
    (2, (0.10462063228186973, 53203419.6224685, 0.8496337254866697)),
    (4, (0.08396141339520584, 55865256.058605246, 0.7135965870591328)),
    (8, (0.059719034218896704, 56633578.28069518, 0.4349641860629542)),
])
def test_wifi_floats(n_wifi, want):
    # tau, the saturation throughput and the LTE-U share at a 4 Mbps demand
    capacity = wifi.saturation_throughput(n_wifi)
    assert (wifi.tx_probability(n_wifi), capacity,
            wifi.lte_fraction(n_wifi, 4e6, capacity).lte_share) == want


def test_desk_duty_cycle():
    split = wifi.duty_cycle_for_config(desk_config())
    assert split.lte_share == 0.7135965870591328


def spaces_digest(config, seed):
    """SHA-256 over the covered users and the fraction bytes of every
    space of every algorithm's ``prepare_run`` at one seed."""
    h = hashlib.sha256()
    for algorithm in ALGORITHMS:
        for space in prepare_run(config, algorithm, seed).spaces:
            h.update(repr(space.covered_users).encode())
            h.update(space.fractions.tobytes())
    return h.hexdigest()


SPACES = [
    ("desk", 0,
     "5d3a42c9a838663d6368bcc9dd0e7947ef21803b265774daa4c4b739340c87f5"),
    ("desk", 1,
     "bb760e888df536594357053e4e1ceeb3cd496639d95473b4c714351cd8649a6f"),
    ("desk", 2,
     "700ecdd01c785ad7a4d7c89930e3980e49b123861287cef0eaa9b4f3cb6ab3e9"),
    ("desk", 3,
     "b81baa8f1130c380c629eea8af84fc7fd96d7fc798e0ec523335938d60b23c90"),
    ("desk", 4,
     "e5114a0fcb2eae1b47608f8e3807498cea2a562c662b7da12b6c46f804ec9a10"),
    ("reference", 0,
     "853477197ab03b0e1dde9b83490330229526e8438c20ee1929ebb490582b2a88"),
    ("reference", 1,
     "aeed80a25e6f8529855e90c77a79f977b4b33e0cb5ccd4c1e41adbb7b47c5b59"),
    ("reference", 2,
     "7210ba5ebfc2403a04c59505c81460fdbf66e5e5b7a2b4c0516544c8ca63f061"),
]


@pytest.mark.parametrize("name, seed, want", SPACES,
                         ids=[f"{name}-{seed}" for name, seed, _ in SPACES])
def test_action_spaces(name, seed, want):
    # every set-up draw: a change to the sampler's bits or to the grid
    # moves one of these
    config = desk_config() if name == "desk" else ScenarioConfig()
    assert spaces_digest(config, seed) == want
