#!/usr/bin/env bash
# Full verification pipeline: Release build + the whole ctest suite (run
# twice — once with native SIMD dispatch, once with KVMATCH_FORCE_SCALAR=1
# to exercise the portable kernel tier; its `bench` label runs every bench
# harness in --quick mode, each checking its answers against UCR Suite),
# then a ThreadSanitizer build of
# the concurrent service/network/ingest/executor/top-k/stats tests
# (including the racing-cancel suite) and an ASan+UBSan build of the
# storage/service/net/ingest/executor/top-k/stats tests plus the crash-point-replay
# suite (fault_kvstore_test), the scalar-vs-SIMD parity suite
# (simd_parity_test), the full-range verify of the baselines and the
# verifier (baseline_test, verifier_test) and the banded DTW DP
# (distance_test, match_property_test), every bench harness and every
# example (ctest -L 'bench|example'). Mirrors what CI runs; use it
# locally before sending a PR.
#
#   tools/run_checks.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"

echo "=== Release build + ctest ==="
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo
echo "=== Forced-scalar dispatch: full ctest with KVMATCH_FORCE_SCALAR=1 ==="
KVMATCH_FORCE_SCALAR=1 ctest --test-dir build --output-on-failure -j "$JOBS"

echo
echo "=== ThreadSanitizer: service/net/coord/ingest/executor/top-k/trace/event-log/session/stats tests ==="
cmake -B build-tsan -S . -DKVMATCH_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-tsan -j "$JOBS" \
  --target service_test net_test coord_test stream_slow_test ingest_test \
           executor_test top_k_test trace_test event_log_test storage_test \
           simd_parity_test session_test stats_test
./build-tsan/service_test
./build-tsan/net_test
./build-tsan/coord_test
# The only test of worker-thread on_partial streaming into the outbox.
./build-tsan/stream_slow_test
./build-tsan/ingest_test
./build-tsan/executor_test
# Parallel top-k slices lower one shared live bound (CAS-min).
./build-tsan/top_k_test
./build-tsan/trace_test
./build-tsan/event_log_test
./build-tsan/storage_test
./build-tsan/simd_parity_test
# Concurrent first cNSM queries share one build of the window statistics.
./build-tsan/session_test
# Lock-free scalar records racing snapshots; live serve + coord scrapes.
./build-tsan/stats_test

echo
echo "=== ASan+UBSan: storage/service/net/coord/ingest/executor/top-k/stats + crash replay + verify + DTW + benches + examples ==="
cmake -B build-asan -S . -DKVMATCH_ASAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-asan -j "$JOBS" \
  --target storage_test service_test net_test coord_test stream_slow_test \
           ingest_test executor_test top_k_test trace_test event_log_test \
           fault_kvstore_test simd_parity_test baseline_test verifier_test \
           distance_test match_property_test session_test stats_test \
           bench_ablation_verifier bench_fig10_dp_vs_single \
           bench_fig3_motif_stats bench_fig8_size_buildtime \
           bench_fig9_scalability bench_ingest_while_query \
           bench_micro_kernels bench_net_throughput bench_service_throughput \
           bench_table3_rsm_ed bench_table4_rsm_dtw bench_table5_cnsm_ed \
           bench_table6_cnsm_dtw bench_table7_frm_ratio bench_table8_window_size \
           example_activity_explorer example_bridge_truck_search \
           example_eog_gust_search example_quickstart example_store_deployment
./build-asan/storage_test
./build-asan/event_log_test
./build-asan/service_test
./build-asan/net_test
./build-asan/coord_test
./build-asan/stream_slow_test
./build-asan/ingest_test
./build-asan/executor_test
./build-asan/top_k_test
./build-asan/trace_test
./build-asan/fault_kvstore_test
./build-asan/simd_parity_test
KVMATCH_FORCE_SCALAR=1 ./build-asan/simd_parity_test
# UCR Suite verifies every offset, so its gathered blocks end exactly at
# offset n - m: the full-range edge of the verifier's gather.
./build-asan/baseline_test
./build-asan/verifier_test
# The banded DTW DP indexes its rows through a sentinel column and writes
# only the band: the bitwise DP test and the match properties cover it.
./build-asan/distance_test
./build-asan/match_property_test
./build-asan/session_test
./build-asan/stats_test
# Every bench harness in --quick mode, answers checked against UCR Suite,
# and every example; run them where memory errors show.
ctest --test-dir build-asan -L 'bench|example' --output-on-failure

echo
echo "=== C10k smoke: 1000 idle connections parked on one reactor loop ==="
cmake --build build -j "$JOBS" --target bench_net_throughput
./build/bench_net_throughput --idle-connections 1000 --quick \
  --json build/idle_smoke.json
cat build/idle_smoke.json
# One loop thread regardless of connection count, as CI's gate asserts.
test "$(jq '.tables[0].rows | map(.Threads) | unique | length' \
  build/idle_smoke.json)" -eq 1

echo
echo "All checks passed."
