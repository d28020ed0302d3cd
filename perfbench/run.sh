#!/usr/bin/env bash
# Build the scheduler and the benchmark from source, then run one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload compile-deep --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the repository root (no dune-project, lib/ or bin/ here)" >&2
  exit 2
fi

dune build --root . ./perfbench/bench.exe ./bin/csched.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
