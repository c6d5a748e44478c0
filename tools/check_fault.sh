#!/usr/bin/env bash
# Builds the fault-tolerance suites under AddressSanitizer and runs every
# ctest target labeled `fault`, plus the trainer resume suites and both
# suites of the one checkpoint reader: serialization (corrupt-file
# matrix, fuzz corpora) and mmap_model (mapped views, zero-copy frozen
# loads), plus the row-kernel and diffusion suites, so a masked tail or
# tile over-read on a heap buffer fails here and not only on the
# guard-page tests, and the SIMD kernel and tensor-op suites, whose
# auto-vectorised exact kernels run their lanes and tails on heap
# buffers of every length 1-17, and the autograd and gradient-check
# suites, whose BatchedMatMul backward reads a's columns in place and
# stages b^T and per-batch partials in arenas, and the tensor suite,
# whose storage-recycler tests run with released buffers poisoned until
# reuse (a read through a dead tensor's pointer fails under ASan even
# though its buffer stays allocated for reuse). Exercises the whole
# injected-fault matrix — trainer sites (nan_loss / nan_grad / crash /
# io_fail / truncate_ckpt) and serve sites (bad_candidate / nan_forecast /
# slow_batch / swap_race) — with ASan watching the recovery paths: any leak, use-after-free, or
# buffer overflow on a rollback/restore/rollback-swap path fails the
# script.
#
# Usage: tools/check_fault.sh [build-dir]   (default: build-asan)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-${REPO_ROOT}/build-asan}"

# ccache makes the from-scratch sanitizer configure cheap on CI reruns;
# harmless locally when ccache is absent.
LAUNCHER_ARGS=()
if command -v ccache >/dev/null 2>&1; then
  LAUNCHER_ARGS+=(-DCMAKE_C_COMPILER_LAUNCHER=ccache
                  -DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSAGDFN_SANITIZE=address \
  ${LAUNCHER_ARGS[@]+"${LAUNCHER_ARGS[@]}"}
cmake --build "${BUILD_DIR}" -j "$(nproc)" \
  --target fault_injection_test serialization_test mmap_model_test \
  trainer_test serve_engine_test rollout_plan_test registry_test \
  tick_stream_test tenant_router_test row_kernel_test fast_gconv_test \
  csr_test simd_test tensor_test tensor_ops_test autograd_test \
  grad_check_test

export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}"

echo "== fault-labeled ctest targets (injected fault matrix, ASan) =="
ctest --test-dir "${BUILD_DIR}" -L fault --output-on-failure

echo "== checkpoint reader: corrupt files, fuzz corpora, mapped views (ASan) =="
"${BUILD_DIR}/tests/serialization_test"
"${BUILD_DIR}/tests/mmap_model_test"

echo "== inference engine lifecycle (ASan: shutdown, destroy-under-load) =="
"${BUILD_DIR}/tests/serve_engine_test"

echo "== registry serve-side fault sites (ASan: bad_candidate, nan_forecast, slow_batch, swap_race) =="
"${BUILD_DIR}/tests/registry_test"

echo "== tenant router isolation suite (ASan: tenant-qualified faults, deregister-with-in-flight drain, online-trainer kill/resume) =="
ctest --test-dir "${BUILD_DIR}" -L tenant --output-on-failure

echo "== registry corrupt-candidate fuzz corpus (ASan) =="
"${BUILD_DIR}/tests/serialization_test" \
  --gtest_filter='SerializationFuzzTest.RegistryGateRejectsCorruptCandidates'

echo "== rollout-plan replay (ASan: arena slab reuse, pinned weights) =="
ctest --test-dir "${BUILD_DIR}" -L plan --output-on-failure

echo "== streaming tick loop (ASan: cache slot churn, carried-state slabs, swap-observer lifetime) =="
ctest --test-dir "${BUILD_DIR}" -L stream --output-on-failure

echo "== row kernels and diffusion steps (ASan: multi-row tiles, masked tails on heap buffers) =="
"${BUILD_DIR}/tests/row_kernel_test"
"${BUILD_DIR}/tests/fast_gconv_test"
"${BUILD_DIR}/tests/csr_test"

echo "== SIMD kernel tables, tensors and tensor ops (ASan: both levels, lanes and tails, poisoned recycled storage) =="
"${BUILD_DIR}/tests/simd_test"
"${BUILD_DIR}/tests/tensor_test"
"${BUILD_DIR}/tests/tensor_ops_test"

echo "== autograd backwards and gradient checks (ASan: strided operand reads, arena-staged transposes and partials) =="
"${BUILD_DIR}/tests/autograd_test"
"${BUILD_DIR}/tests/grad_check_test"

echo "== trainer checkpoint/resume suites (ASan) =="
"${BUILD_DIR}/tests/trainer_test" \
  --gtest_filter='TrainerTest.KillAndResume*:TrainerTest.Resume*:TrainerTest.Checkpoint*:TrainerTest.Latest*'

echo "Fault check passed: every injected fault was recovered or reported."
