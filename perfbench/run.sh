#!/usr/bin/env bash
# Build llhsc and the benchmark from source, then run the benchmark:
#
#   bash perfbench/run.sh run --workload quad_inproc --seed 1 --seconds 20 --trace 0
#
# Run from the repository root.  Build output goes to stderr, so the
# benchmark's last stdout line is its result.
set -euo pipefail
DUNE_CACHE=disabled dune build --root . @@perfbench/perfbench 1>&2
exec ./_build/default/perfbench/main.exe "$@"
