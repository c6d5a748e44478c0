#!/usr/bin/env bash
# Builds the core numeric, serialization, and scale suites under
# UndefinedBehaviorSanitizer and runs them. The suites were chosen for
# where UB hides in this codebase: the one checkpoint reader, which maps
# every weight file (misaligned loads through raw byte offsets), the CSR
# index arithmetic (int32 columns x int64 row pointers), the latent-graph
# generator's grid-bucket cell math (it builds every traffic dataset),
# the autograd kernels (signed index math in gather/scatter), the
# register-resident row kernels (block and lane-mask index math) and the
# SIMD kernel tables at both levels. -fno-sanitize-recover means the first report aborts the
# run.
#
# Usage: tools/check_ubsan.sh [build-dir]   (default: build-ubsan)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-${REPO_ROOT}/build-ubsan}"

LAUNCHER_ARGS=()
if command -v ccache >/dev/null 2>&1; then
  LAUNCHER_ARGS+=(-DCMAKE_C_COMPILER_LAUNCHER=ccache
                  -DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSAGDFN_SANITIZE=undefined \
  ${LAUNCHER_ARGS[@]+"${LAUNCHER_ARGS[@]}"}
cmake --build "${BUILD_DIR}" -j "$(nproc)" \
  --target tensor_ops_test autograd_test row_kernel_test simd_test \
  serialization_test fast_gconv_test csr_test mmap_model_test \
  scale_smoke_test graph_test data_test

export UBSAN_OPTIONS="print_stacktrace=1 ${UBSAN_OPTIONS:-}"

echo "== tensor op + autograd kernels (UBSan) =="
"${BUILD_DIR}/tests/tensor_ops_test"
"${BUILD_DIR}/tests/autograd_test"
"${BUILD_DIR}/tests/row_kernel_test"
"${BUILD_DIR}/tests/simd_test"

echo "== the one checkpoint reader and writer (UBSan) =="
"${BUILD_DIR}/tests/serialization_test"
"${BUILD_DIR}/tests/mmap_model_test"

echo "== CSR diffusion differential suite (UBSan) =="
"${BUILD_DIR}/tests/fast_gconv_test"
"${BUILD_DIR}/tests/csr_test"

echo "== latent-graph generator and synthetic datasets (UBSan) =="
"${BUILD_DIR}/tests/graph_test"
"${BUILD_DIR}/tests/data_test"

echo "== N=10k scale smoke (UBSan: sharded diffusion, sparse generator, mmap round trip) =="
"${BUILD_DIR}/tests/scale_smoke_test"

echo "UBSan check passed: no undefined behavior detected."
