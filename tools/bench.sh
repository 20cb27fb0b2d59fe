#!/bin/sh
# Run the wall-time benchmark suite and emit a machine-readable report.
#
# Usage:
#   tools/bench.sh                 # engine benches -> BENCH_engine.json
#   tools/bench.sh benchmarks      # every bench (pipeline + eval + engine)
#   REPRO_FULL_EVAL=1 tools/bench.sh benchmarks   # full ten-workload sweep
#
# The JSON includes each bench's extra_info (speedup ratios of the
# cached-block machine and compiled IR interpreter over their per-step
# reference paths), so a CI job can diff it against a saved baseline.
#
# The observability benches (marker ``obs``) run as a second pass and
# emit BENCH_obs.json: per-stage pipeline timings, cache hit rates, and
# the disabled-path overhead ratio of the instrumented engine.
#
# The replay benches run as a third pass and emit BENCH_replay.json:
# refinement wall time of the optimized replay engine (input dedup +
# jobs=4 fan-out, every replay run also checking the trace) against
# the no-dedup baseline, plus the dedup, replay run and block-compile
# counts.  CI's bench-smoke job runs this pass too.
#
# The optimizer benches run as a fourth pass and emit BENCH_opt.json:
# fixpoint wall time of the incremental worklist pass manager against
# the legacy fixed schedule (REPRO_PASS_BASELINE=1) on a
# duplicated-stage workload, plus skip/requeue rates.
#
# The backend benches run as a fifth pass and emit BENCH_lower.json:
# cold vs warm compile_ir through the fingerprint-keyed lowering cache
# (warm hit rate, functions re-lowered after a one-function edit) and
# the parallel per-function optimizer (jobs=4) against the legacy
# schedule.
#
# The service benches run as a sixth pass and emit BENCH_serve.json:
# a replayed campaign against the warm artifact store vs N cold
# one-shot recompiles, and an incremental one-input addition vs the
# cold one-shot over the full input set (trace/function reuse rates,
# byte-identity enforced in the tests themselves).
#
# The scheduler benches run as a seventh pass and emit
# BENCH_sched.json: K=4 concurrent distinct-image campaigns on the
# multi-worker daemon vs the single-lock daemon (speedup floor scales
# with the core count; byte identity and affinity hit rate asserted in
# the test itself).
#
# The static-analysis benches run as an eighth pass and emit
# BENCH_sanalysis.json: cold vs warm interprocedural summary sweeps
# through the version-keyed cache, and the recompute count after a
# one-function edit (exactly one; reuse rate asserted in the test).
set -eu
cd "$(dirname "$0")/.."

TARGET="${1:-benchmarks/test_engine.py benchmarks/test_pipeline_costs.py}"
OUT="${BENCH_JSON:-BENCH_engine.json}"
OBS_OUT="${BENCH_OBS_JSON:-BENCH_obs.json}"
REPLAY_OUT="${BENCH_REPLAY_JSON:-BENCH_replay.json}"
OPT_OUT="${BENCH_OPT_JSON:-BENCH_opt.json}"
LOWER_OUT="${BENCH_LOWER_JSON:-BENCH_lower.json}"
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

PYTHONPATH=src python -m pytest benchmarks/test_opt.py \
    --benchmark-only \
    --benchmark-json "$OPT_OUT" \
    -p no:cacheprovider

echo "optimizer benchmark report written to $OPT_OUT"

PYTHONPATH=src python -m pytest benchmarks/test_lower.py \
    --benchmark-only \
    --benchmark-json "$LOWER_OUT" \
    -p no:cacheprovider

echo "backend benchmark report written to $LOWER_OUT"

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
