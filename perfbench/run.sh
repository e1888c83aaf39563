#!/usr/bin/env bash
# Build the benchmark harness from the sources in this checkout, then run
# it with the given arguments. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload profile-read --seed 1 --seconds 30 --trace 0
#
# Build output goes to dune's _build directory inside the checkout (the
# shared dune cache, which lives outside it, is off); progress goes to
# stderr, so the last line on stdout is the harness's JSON result.
set -euo pipefail
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
