#!/bin/sh
# Run the wall-time benchmark suite and emit a machine-readable report.
#
# Usage:
#   tools/bench.sh                 # engine benches -> BENCH_engine.json
#   tools/bench.sh benchmarks      # every bench (pipeline + eval + engine)
#   REPRO_FULL_EVAL=1 tools/bench.sh benchmarks   # full ten-workload sweep
#
# The JSON includes each bench's extra_info, so a CI job can diff it
# against a saved baseline.
#
# The observability benches (marker ``obs``) run as a second pass and
# emit BENCH_obs.json: per-stage pipeline timings, cache hit rates, and
# the disabled-path overhead ratio of the instrumented engine.
#
# The replay benches run as a third pass and emit BENCH_replay.json:
# serial refinement wall time of the replay engine (input dedup, every
# replay run also checking the trace), plus the dedup and replay run
# counts, the tracing runtime's share of a bounds run and the §4.1
# observer's share of a register observation run.  CI's
# bench-smoke job runs this pass too.
#
# The service benches run as a fourth pass and emit BENCH_serve.json:
# a replayed campaign against the warm artifact store vs N cold
# one-shot recompiles, and an incremental one-input addition vs the
# cold one-shot over the full input set (trace reuse counts,
# byte-identity enforced in the tests themselves).
#
# The scheduler benches run as a fifth pass and emit
# BENCH_sched.json: K=4 concurrent distinct-image campaigns on the
# multi-worker daemon vs the single-lock daemon (speedup floor scales
# with the core count; byte identity and warm result-store hits
# asserted in the test itself; jobs dispatch first in, first out).
#
# The static-analysis benches run as a sixth pass and emit
# BENCH_sanalysis.json: cold vs warm interprocedural summary sweeps
# through the version-keyed cache, and the recompute count after a
# one-function edit (exactly one; reuse rate asserted in the test).
set -eu
cd "$(dirname "$0")/.."

TARGET="${1:-benchmarks/test_engine.py benchmarks/test_pipeline_costs.py}"
OUT="${BENCH_JSON:-BENCH_engine.json}"
OBS_OUT="${BENCH_OBS_JSON:-BENCH_obs.json}"
REPLAY_OUT="${BENCH_REPLAY_JSON:-BENCH_replay.json}"
SERVE_OUT="${BENCH_SERVE_JSON:-BENCH_serve.json}"
SCHED_OUT="${BENCH_SCHED_JSON:-BENCH_sched.json}"
SANALYSIS_OUT="${BENCH_SANALYSIS_JSON:-BENCH_sanalysis.json}"

# shellcheck disable=SC2086  # TARGET is intentionally word-split
PYTHONPATH=src python -m pytest $TARGET \
    --benchmark-only \
    --benchmark-json "$OUT" \
    -p no:cacheprovider

echo "benchmark report written to $OUT"

PYTHONPATH=src python -m pytest benchmarks/test_obs.py \
    -m obs \
    --benchmark-json "$OBS_OUT" \
    -p no:cacheprovider

echo "observability benchmark report written to $OBS_OUT"

PYTHONPATH=src python -m pytest benchmarks/test_replay.py \
    --benchmark-only \
    --benchmark-json "$REPLAY_OUT" \
    -p no:cacheprovider

echo "replay benchmark report written to $REPLAY_OUT"

PYTHONPATH=src python -m pytest benchmarks/test_serve.py \
    --benchmark-only \
    --benchmark-json "$SERVE_OUT" \
    -p no:cacheprovider

echo "service benchmark report written to $SERVE_OUT"

PYTHONPATH=src python -m pytest benchmarks/test_sched.py \
    --benchmark-only \
    --benchmark-json "$SCHED_OUT" \
    -p no:cacheprovider

echo "scheduler benchmark report written to $SCHED_OUT"

PYTHONPATH=src python -m pytest benchmarks/test_sanalysis.py \
    --benchmark-only \
    --benchmark-json "$SANALYSIS_OUT" \
    -p no:cacheprovider

echo "static-analysis benchmark report written to $SANALYSIS_OUT"
