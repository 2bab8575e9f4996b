#!/usr/bin/env bash
# Build the benchmark from source and run one workload in this process:
#
#   bash bench/perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Works from any directory; it builds and runs in the checkout two
# levels up. Build output goes to stderr; the last line of standard
# output is the JSON result of perf.exe's `one` command.
set -euo pipefail
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ]; then
  echo "run.sh: $(pwd) is not a mitos checkout (no dune-project)" >&2
  exit 1
fi
dune build --root . ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe one "$@"
