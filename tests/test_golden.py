"""Golden outputs: full runs at fixed seeds, pinned bit for bit.

A change that is meant to leave results alone (a refactor or a speedup)
must keep these exact. A change that moves them on purpose updates the
values here and says why in CHANGES.md.

The values were recorded with numpy 2.4.6 and scipy 1.17.1 (OpenBLAS) on
x86-64. Another BLAS or numpy build may round the reservoir products
differently in the last bits, which can flip a near-tied action and move
a whole run.
"""

import math

import pytest

from lteusim import agents
from lteusim.harness import run
from lteusim.scenario import desk_config


def fingerprint(result):
    return (result.converged_at, result.metrics["sum_rate_bps"],
            result.metrics["median_user_rate_bps"])


@pytest.mark.parametrize("seed, max_iterations, want", [
    (0, None, (362, 105522379.23053253, 5014182.3040722795)),
    (1, 300, (None, 109771403.11622687, 7275107.358667487)),
    (2, 300, (None, 121036523.0014369, 4342921.187403829)),
])
def test_esn_desk_runs(seed, max_iterations, want):
    overrides = {} if max_iterations is None else {
        "max_iterations": max_iterations}
    result = run(desk_config(**overrides), "esn", seed)
    assert fingerprint(result) == want


def test_q_lteu_decoupled_desk_run():
    result = run(desk_config(), "q_lteu_decoupled", 0)
    assert result.converged_at == 263
    assert result.metrics["sum_rate_bps"] == 90869110.07563984


@pytest.mark.parametrize("algorithm, want", [
    ("q_lteu_coupled", (263, 90236222.9237792, 4263847.125711447)),
    ("q_lte_decoupled", (263, 90649715.16819048, 3047710.48368138)),
])
def test_gated_q_desk_runs(algorithm, want):
    # the coupled settle and the licensed-only gate, each at desk_config()
    result = run(desk_config(), algorithm, 0)
    assert fingerprint(result) == want


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
    assert fingerprint(result) == (53, 123663339.29925832, 5051013.112793814)
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
    assert learner_sum(result) == 75003.95869562493


def test_esn_learner_floats_exact():
    # every beta expectation is enumerated; a reordered sum of the same
    # terms may move the last bits
    result = run(desk_config(action_set_size=2, max_iterations=300), "esn", 0)
    assert learner_sum(result) == pytest.approx(62351.098233667224, rel=1e-12)
