#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given
# arguments.  Run it from the root of the repository; see README.md.
set -euo pipefail
dune build --root . ./benchmark/run.exe >&2
exec ./_build/default/benchmark/run.exe "$@"
