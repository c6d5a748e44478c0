#!/usr/bin/env bash
# Builds the parallel-kernel and serving tests under ThreadSanitizer and
# runs the thread-pool / determinism suites at 8 threads, and the
# GraphConv node, fused diffusion-step and BatchedMatMul backward memcmp
# suites at pool sizes 1, 2 and 8 (per-task arena scratch, scatter into
# shared gradients),
# and the tensor-storage recycler's multi-thread test (four threads
# allocating, one mutex, buffers released on a thread other than the
# one that allocated them).
# Any data race in the ParallelFor backend, the parallel tensor kernels, or the
# inference engine's queue/worker/shutdown machinery fails the script.
#
# Usage: tools/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-${REPO_ROOT}/build-tsan}"

# ccache makes the from-scratch sanitizer configure cheap on CI reruns;
# harmless locally when ccache is absent.
LAUNCHER_ARGS=()
if command -v ccache >/dev/null 2>&1; then
  LAUNCHER_ARGS+=(-DCMAKE_C_COMPILER_LAUNCHER=ccache
                  -DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSAGDFN_SANITIZE=thread \
  ${LAUNCHER_ARGS[@]+"${LAUNCHER_ARGS[@]}"}
cmake --build "${BUILD_DIR}" -j "$(nproc)" \
  --target utils_test tensor_reference_test serve_engine_test \
  rollout_plan_test registry_test tick_stream_test tenant_router_test \
  simd_test autograd_test tensor_test

# halt_on_error so the first race aborts with a non-zero exit code.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
export SAGDFN_NUM_THREADS=8

echo "== ThreadPool / ParallelFor tests (8 threads) =="
"${BUILD_DIR}/tests/utils_test" --gtest_filter='ParallelTest.*'

echo "== Parallel kernel determinism tests (8 threads) =="
"${BUILD_DIR}/tests/tensor_reference_test" \
  --gtest_filter='ThreadCountDeterminism.*:ScalarOpDifferential.*'

echo "== Fused-op backwards against their reference loops (pool sizes 1, 2, 8) =="
"${BUILD_DIR}/tests/simd_test" --gtest_filter='FusedOpsTest.*'
"${BUILD_DIR}/tests/autograd_test" \
  --gtest_filter='AutogradTest.BatchedMatMulBackwardMatchesTransposedProducts'

echo "== Tensor storage recycler (concurrent allocation, cross-thread release) =="
"${BUILD_DIR}/tests/tensor_test" \
  --gtest_filter='TensorStorageTest.ConcurrentAllocateAndCrossThreadRelease'

echo "== Inference engine concurrency suite (workers, shutdown, destroy-under-load) =="
"${BUILD_DIR}/tests/serve_engine_test"

echo "== Rollout-plan replay suite (concurrent plan replay, plan cache) =="
"${BUILD_DIR}/tests/rollout_plan_test"

echo "== Hot-swap registry suite (swap-under-load, probation rollback from worker threads) =="
"${BUILD_DIR}/tests/registry_test"

echo "== Streaming tick loop (single-slot forecast cache: concurrent readers vs tick writer, swap invalidation) =="
"${BUILD_DIR}/tests/tick_stream_test"

echo "== Multi-tenant router suite (per-tenant byte equality under concurrent load, online fine-tune sweeps) =="
"${BUILD_DIR}/tests/tenant_router_test"

echo "TSan check passed: no data races detected."
