#!/usr/bin/env bash
# Build the end-to-end benchmark from source, then run it with the
# given arguments, from the repository root:
#
#   bash bench/e2e/run.sh --workload tpch-scs --seed 42 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the
# result JSON. --root pins dune to this checkout: outside a full
# checkout of the repository the build fails and nothing is printed.
set -euo pipefail
cd "$(dirname "$0")/../.."
dune build --root . ./bench/e2e/e2e.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
