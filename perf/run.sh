#!/usr/bin/env bash
# Build the benchmark harness from source in this checkout, then run it.
#   bash perf/run.sh --workload ycsb-e --seed 1 --seconds 20 --trace 0
# Arguments go to perf.exe unchanged; see perf/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
# build only inside the checkout: no shared dune cache
export DUNE_CACHE=disabled
if command -v dune >/dev/null; then dune=(dune); else dune=(opam exec -- dune); fi
"${dune[@]}" build --root . ./perf/perf.exe >&2
exec ./_build/default/perf/perf.exe "$@"
