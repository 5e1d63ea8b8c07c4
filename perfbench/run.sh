#!/usr/bin/env bash
# Build the benchmark from source and run it.
#
#   bash perfbench/run.sh --workload <stream-ic|stream-tomogravity|serve-mix|all> \
#                         --seed <n> --seconds <s> --trace <0|1>
#
# Builds into .bench_build (dune's shared cache off, so nothing is written
# outside the checkout) and runs from the checkout root. A failed build
# exits non-zero before any result is printed.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build --display quiet \
  ./perfbench/main.exe 1>&2
exec .bench_build/default/perfbench/main.exe "$@"
