"""Untraced inputs: a recompile behaves like the original or stops at
its coverage trap, never silently differs.

Each case is the smallest traced input found for a silent divergence,
kept as a regression test.
"""

from repro import wytiwyg_recompile
from repro.emu import run_binary
from repro.workloads import WORKLOADS
from repro.workloads.base import deterministic_bytes


def test_hmmer_o0_short_trace_matches_on_ref_inputs():
    # Profile length 1 and a 2-byte sequence: the trace touches two
    # elements of each of viterbi's six 65-int DP rows.  Static
    # widening grows each row to its full 260 bytes.  Without it the
    # recompile printed "39 sequences, total score 80" on the ref
    # input where the original prints "2 sequences, total score 129",
    # and both exited 0.
    workload = WORKLOADS["hmmer"]
    image = workload.compile("gcc12", "0")
    result = wytiwyg_recompile(image, [[1, 1, deterministic_bytes(2, 1)]],
                               collect_accuracy=False)
    assert not result.fallback
    for items in workload.inputs():
        want = run_binary(image, items)
        got = run_binary(result.recovered, items)
        assert (got.stdout, got.exit_code) == (want.stdout, want.exit_code)
