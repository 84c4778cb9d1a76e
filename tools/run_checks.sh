#!/usr/bin/env bash
# Full verification pipeline: Release build + the whole ctest suite (run
# twice — once with native SIMD dispatch, once with KVMATCH_FORCE_SCALAR=1
# to exercise the portable kernel tier), the verifier cascade ablation as
# an exactness check on both tiers, then a ThreadSanitizer build of
# the concurrent service/network/ingest/executor tests (including the
# racing-cancel suite) and an ASan+UBSan build of the
# storage/service/net/ingest/executor tests plus the crash-point-replay
# suite (fault_kvstore_test), the scalar-vs-SIMD parity suite
# (simd_parity_test), the full-range verify of the baselines and the
# verifier (baseline_test, verifier_test) and the banded DTW DP
# (distance_test, match_property_test). Mirrors what CI runs; use it
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
echo "=== Lower-bound cascade ablation: every configuration, same matches ==="
# Exits non-zero if toggling LB_Kim / LB_Keogh changes any returned
# offset or distance bit; run on both dispatch tiers.
./build/bench_ablation_verifier --quick
KVMATCH_FORCE_SCALAR=1 ./build/bench_ablation_verifier --quick

echo
echo "=== ThreadSanitizer: service/net/coord/ingest/executor/trace/event-log tests ==="
cmake -B build-tsan -S . -DKVMATCH_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-tsan -j "$JOBS" \
  --target service_test net_test coord_test stream_slow_test ingest_test \
           executor_test trace_test event_log_test storage_test \
           simd_parity_test
./build-tsan/service_test
./build-tsan/net_test
./build-tsan/coord_test
# The only test of worker-thread on_partial streaming into the outbox.
./build-tsan/stream_slow_test
./build-tsan/ingest_test
./build-tsan/executor_test
./build-tsan/trace_test
./build-tsan/event_log_test
./build-tsan/storage_test
./build-tsan/simd_parity_test

echo
echo "=== ASan+UBSan: storage/service/net/coord/ingest/executor + crash replay + verify + DTW ==="
cmake -B build-asan -S . -DKVMATCH_ASAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-asan -j "$JOBS" \
  --target storage_test service_test net_test coord_test stream_slow_test \
           ingest_test executor_test trace_test event_log_test \
           fault_kvstore_test simd_parity_test baseline_test verifier_test \
           distance_test match_property_test
./build-asan/storage_test
./build-asan/event_log_test
./build-asan/service_test
./build-asan/net_test
./build-asan/coord_test
./build-asan/stream_slow_test
./build-asan/ingest_test
./build-asan/executor_test
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

echo
echo "=== C10k smoke: 1000 idle connections parked on one reactor loop ==="
cmake --build build -j "$JOBS" --target bench_net_throughput
./build/bench_net_throughput --idle-connections 1000 --quick \
  --json build/idle_smoke.json
cat build/idle_smoke.json

echo
echo "All checks passed."
