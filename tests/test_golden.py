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
loops disabled (``NPY_DISABLE_CPU_FEATURES``), where the sum and median
rates of ``test_esn_desk_runs[2-300-want2]`` move by one ulp while the
reservoir products (``tanh`` and ``@``) keep their bits. OpenBLAS picks its
own kernels by CPU, which that setting does not vary. A one-ulp change can
still flip a near-tied action on some other run, and
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
    (0, None, ([295, "122053e3a7188bdc1b855e43649e1f65"
                     "3112d93e1fcaba8372ee140759f930b0"],
               (111372624.60661066, 6073092.0761577515))),
    (1, 300, ([None, "1ccee0663b7a557fc0bf9a4e17a92a65"
                     "201e102ec0ab9b3a5bd01f73131bc385"],
              (97954672.92739128, 6584593.325137871))),
    (2, 300, ([None, "be78535d5410ba229054e362c5c24453"
                     "e34971c46e03cbd9422e41879f41ff6d"],
              (83334882.62614816, 4342921.187403829))),
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


def test_q_lteu_decoupled_desk_run():
    assert_run(run(desk_config(), "q_lteu_decoupled", 0),
               ([263, "1404fa5574ecc847a2038418f958f76d"
                      "93c5ad8d26af1d45cbce06219ee0d0aa"],
                (90869110.07563984, 3337625.611385203)))


@pytest.mark.parametrize("algorithm, want", [
    ("q_lteu_coupled", ([263, "7cb21b922e7b4565da2661c8419308ff"
                              "11bd852757c187c5c105dc46ea8d3565"],
                        (90236222.9237792, 4263847.125711447))),
    ("q_lte_decoupled", ([263, "32d027614d87918b03016218e8d4918b"
                               "0341b4021c61ecf35f99599a40d1419e"],
                         (90649715.16819048, 3047710.48368138))),
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
    assert_run(result, ([53, "7f567711bb391e054fad6fee49a1f930"
                             "e87cd71818ae6691423156cb9ac0fff9"],
                        (123663339.29925832, 5051013.112793814)))
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
    assert rows_digest(result) == [None, "09ba04b187daaa4e3ba436c68fd6b045"
                                         "cb6eb6c30fcf1068e1d7d4296b9109ce"]
    assert_floats(learner_sum(result), 74400.24540052109)


def test_esn_learner_floats_exact():
    # every beta expectation is enumerated; the run's rows are pinned in
    # test_esn_exact_expectation_run
    result = run(desk_config(action_set_size=2, max_iterations=300), "esn", 0)
    assert_floats(learner_sum(result), 61002.03825569176)


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
     "24263140c759f2b7efdfb5d3b04df4cb519f9dd5d77fec906e2c460197d3efdd"),
    ("desk", 1,
     "547da5de6c2212692eaaf6ce0d45a1d88684050185d423977668f81c8b3300d2"),
    ("desk", 2,
     "81b8ae496bf90a879fdcdfd219413e6ed9d9b95d13656293ba608c573e96fa7d"),
    ("desk", 3,
     "8581c58eb555157919cbaeb5205d8c95a69e324020ab1005730e7ee7e62891a8"),
    ("desk", 4,
     "5c4d2f5912ca4286b223ae2637766248c8c74b2028ed1a9e3abc39cc70d24787"),
    ("reference", 0,
     "893b7f8766afb9de49a73497a8dd9e309c4a9751e7de221101042defdb141655"),
    ("reference", 1,
     "e4fab27b8c8a231719e02bd78ee7de57701fa3036298960577ec86ee23d5cba5"),
    ("reference", 2,
     "5f47dd8e885d8f3cf0577482f3ee327baca50e99305897a711700a41556f2225"),
]


@pytest.mark.parametrize("name, seed, want", SPACES,
                         ids=[f"{name}-{seed}" for name, seed, _ in SPACES])
def test_action_spaces(name, seed, want):
    # every set-up draw: a change to the sampler's bits or to the grid
    # moves one of these
    config = desk_config() if name == "desk" else ScenarioConfig()
    assert spaces_digest(config, seed) == want
