#!/usr/bin/env bash
# Builds the benchmark and the server it drives, then runs it.
#
#   bash perfbench/run.sh                      # every workload, untraced and traced
#   bash perfbench/run.sh --workload replay --seed 3 --seconds 20 --trace 0
#
# Runs from the repository root, wherever it is called from.  Build
# chatter goes to stderr; the last line of stdout is the JSON result.
# See perfbench/README.md.
set -eu
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display quiet ./perfbench/main.exe ./bin/gcserved.exe >&2
exec ./_build/default/perfbench/main.exe \
  --server ./_build/default/bin/gcserved.exe "$@"
