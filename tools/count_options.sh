#!/usr/bin/env bash
# Counts the settable fields of the library's option structs: every data
# member of a struct whose name ends in Options, Config or Params, in the
# headers under src/. A field is a declaration at the struct's own brace
# depth that ends in ';' and is neither a function (no '(') nor a static,
# using, friend or type declaration, so static constants are not counted.
#
# This is a review aid, not a CI step: each independently settable field
# doubles what tests and benchmarks would have to cover, so a change that
# simplifies should not raise the count.
#
# Usage: tools/count_options.sh [--list] [src-dir]   (default: the repo's src/)
set -euo pipefail
export LC_ALL=C

LIST=0
if [[ "${1:-}" == "--list" ]]; then
  LIST=1
  shift
fi
REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SRC_DIR="${1:-${REPO_ROOT}/src}"

find "${SRC_DIR}" -name '*.h' -print0 | sort -z | xargs -0 awk -v list="${LIST}" '
  FNR == 1 { depth = 0; in_struct = 0 }
  {
    line = $0
    sub(/\/\/.*/, "", line)                    # drop line comments
    if (!in_struct && line ~ /^[ \t]*struct[ \t]+[A-Za-z_0-9]*(Options|Config|Params)[ \t]*\{/) {
      in_struct = 1
      name = line
      sub(/^[ \t]*struct[ \t]+/, "", name)
      sub(/[ \t]*\{.*/, "", name)
      depth = 0
    }
    if (in_struct) {
      start_depth = depth
      opens = gsub(/\{/, "{", line)
      closes = gsub(/\}/, "}", line)
      stmt = line
      gsub(/^[ \t]+|[ \t]+$/, "", stmt)
      if (start_depth == 1 && stmt ~ /;$/ && stmt !~ /\(/ &&
          stmt !~ /^(static|using|friend|enum|struct|class|typedef|return)[ \t]/ &&
          stmt !~ /^(public|private|protected):/ && stmt !~ /^\}/) {
        ++total
        if (list == 1) printf "%s\t%s\t%s\n", FILENAME, name, stmt
      }
      depth += opens - closes
      if (depth <= 0 && closes > 0) in_struct = 0
    }
  }
  END { printf "settable fields: %d\n", total }'
