#!/usr/bin/env bash
# Lists the sagdfn:: functions that no program links: those that only
# the unit tests reach ("test-only") and those that nothing reaches at
# all ("never called").
#
# The method is a link analysis. The repository and the standalone
# perfbench tree are built at -O0 -fno-inline with one section per
# function, and every executable is linked with --gc-sections, so an
# executable keeps exactly the functions reachable from its main (no
# call disappears into an inlined caller). Each strong (T) function that
# a libsagdfn_*.a archive defines is then looked up in the symbol tables
# of the programs — sagdfn_cli, the examples, the bench binaries and
# perfbench — and of the test binaries. Inline and template functions
# (weak symbols) are not counted.
#
# This is a review aid, not a CI step: it rebuilds the whole tree twice
# at -O0 (several minutes). Nothing in the source tree is written.
#
# Usage: tools/find_unreached.sh [work-dir]   (default: a fresh temp dir)
set -euo pipefail
export LC_ALL=C  # one collation for sort, comm and join

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
WORK_DIR="${1:-$(mktemp -d "${TMPDIR:-/tmp}/sagdfn_unreached.XXXXXX")}"
mkdir -p "${WORK_DIR}"

FLAGS=(-DCMAKE_BUILD_TYPE=LinkAnalysis
       "-DCMAKE_CXX_FLAGS=-O0 -fno-inline -ffunction-sections -fdata-sections"
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
if command -v ccache >/dev/null 2>&1; then
  FLAGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

echo "== building into ${WORK_DIR} =="
cmake -B "${WORK_DIR}/repo" -S "${REPO_ROOT}" "${FLAGS[@]}" >/dev/null
cmake --build "${WORK_DIR}/repo" -j "$(nproc)" >/dev/null
cmake -B "${WORK_DIR}/perfbench" -S "${REPO_ROOT}/perfbench" "${FLAGS[@]}" \
  >/dev/null
cmake --build "${WORK_DIR}/perfbench" -j "$(nproc)" --target perfbench \
  >/dev/null

REPO_BUILD="${WORK_DIR}/repo"
mapfile -t ARCHIVES < <(find "${REPO_BUILD}/src" -name 'libsagdfn_*.a' | sort)
mapfile -t PROGRAMS < <(
  find "${REPO_BUILD}/tools" "${REPO_BUILD}/examples" "${REPO_BUILD}/bench" \
    -maxdepth 1 -type f -perm -u+x | sort
  echo "${WORK_DIR}/perfbench/perfbench")
mapfile -t TESTS < <(
  find "${REPO_BUILD}/tests" -maxdepth 1 -type f -perm -u+x -name '*_test' | sort)

symbols() { nm --defined-only "$@" 2>/dev/null | awk 'NF >= 3 {print $3}'; }

# Strong functions the library defines, as "mangled archive" pairs.
for a in "${ARCHIVES[@]}"; do
  nm --defined-only "${a}" 2>/dev/null |
    awk -v lib="$(basename "${a}")" '$2 == "T" {print $3, lib}'
done | sort -u -k1,1 > "${WORK_DIR}/library.txt"
symbols "${PROGRAMS[@]}" | sort -u > "${WORK_DIR}/programs.txt"
symbols "${TESTS[@]}" | sort -u > "${WORK_DIR}/tests.txt"

# Prints "archive  demangled" for the library functions in $1 that are
# sagdfn:: functions.
report() {
  join "$1" "${WORK_DIR}/library.txt" | awk '{print $2 "\t" $1}' |
    c++filt | awk -F'\t' '$2 ~ /^sagdfn::/' | sort -u
}

cut -d' ' -f1 "${WORK_DIR}/library.txt" |
  comm -23 - "${WORK_DIR}/programs.txt" > "${WORK_DIR}/unlinked.txt"
comm -12 "${WORK_DIR}/unlinked.txt" "${WORK_DIR}/tests.txt" |
  report /dev/stdin > "${WORK_DIR}/test_only.txt"
comm -23 "${WORK_DIR}/unlinked.txt" "${WORK_DIR}/tests.txt" |
  report /dev/stdin > "${WORK_DIR}/never_called.txt"

echo "== programs: ${#PROGRAMS[@]}, test binaries: ${#TESTS[@]} =="
echo "== test-only: reached by a test binary, by no program =="
cat "${WORK_DIR}/test_only.txt"
echo "== never called: reached by no program and no test binary =="
cat "${WORK_DIR}/never_called.txt"
echo "test-only: $(wc -l < "${WORK_DIR}/test_only.txt")," \
  "never called: $(wc -l < "${WORK_DIR}/never_called.txt")"
