#!/usr/bin/env bash
# Build the benchmark from source and run one workload, from the root of
# a repository checkout:
#
#   bash perfbench/run.sh --limit-ms 10 --workload tune_single --seed 1 \
#     --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a repository checkout" >&2
  exit 2
fi

# keep the compiler's temporary files inside the checkout too
export TMPDIR="$PWD/.perfbench/tmp"
mkdir -p "$TMPDIR"
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
