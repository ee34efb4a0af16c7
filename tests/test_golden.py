"""Golden outputs: full runs at fixed seeds, pinned bit for bit.

A change that is meant to leave results alone (a refactor or a speedup)
must keep these exact. A change that moves them on purpose updates the
values here and says why in CHANGES.md.

The values were recorded with numpy 2.4.6 and scipy 1.17.1 (OpenBLAS) on
x86-64. Another BLAS or numpy build may round the reservoir products
differently in the last bits, which can flip a near-tied action and move
a whole run.
"""

import pytest

from lteusim.harness import run
from lteusim.scenario import desk_config


def fingerprint(result):
    return (result.converged_at, result.metrics["sum_rate_bps"],
            result.metrics["median_user_rate_bps"])


@pytest.mark.parametrize("seed, max_iterations, want", [
    (0, None, (614, 123753415.68088701, 5043364.293362219)),
    (1, 300, (None, 99665879.08155341, 5449552.180389568)),
    (2, 300, (None, 138052376.71295893, 4258289.939265495)),
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
