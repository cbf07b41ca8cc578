#!/usr/bin/env bash
# Build and run the wall-clock serving benchmark.  Run from the repository
# root:
#
#   bash perfbench/run.sh --workload <encoder_mnli|decode_trace|fig1_batched> \
#     --seed <n> --seconds <s> --trace <0|1>
#
# The last line of standard output is the JSON result.  Build output goes to
# standard error; everything the build and run write stays under _build/ and
# perfbench/out/.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib/serving ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: the serving library sources are missing; run from the repository root" >&2
  exit 2
fi

if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi

export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
