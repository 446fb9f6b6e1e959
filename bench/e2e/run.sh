#!/bin/sh
# Builds the benchmark from source, then runs one workload:
#
#   sh bench/e2e/run.sh --workload wan-ebsn --seed 1 --seconds 10 --trace 0
#
# Run from the repository root.  Build output goes to stderr, so the
# last line of stdout is the benchmark's JSON result.
set -e
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
DUNE_CACHE=disabled dune build --root . ./bench/e2e/main.exe >&2
exec ./_build/default/bench/e2e/main.exe "$@"
