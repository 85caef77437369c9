#!/usr/bin/env bash
# Build the pipeline benchmark from source, then run it with the given
# arguments, e.g.
#   bash bench/pipeline/run.sh --workload grid --seed 1 --seconds 12 --trace 0
# Build messages go to stderr, so the last line of stdout is the result.
# The dune cache is disabled so the build writes only under _build/.
set -euo pipefail
cd "$(dirname "$0")/../.."
dune build --root . --cache=disabled --display=quiet ./bench/pipeline/pipeline.exe 1>&2
exec ./_build/default/bench/pipeline/pipeline.exe "$@"
