#!/bin/sh
# Builds the harness and the dlosn CLI from this checkout's sources, then
# runs one benchmark workload, e.g.
#   sh perfbench/run.sh --workload calibrate --seed 1 --seconds 20 --trace 0
# Build output goes to standard error, so the last line of standard output
# is the harness's result object.  Run from anywhere; it works from the
# repository root.
cd "$(dirname "$0")/.." || exit 2
timeout 880 dune build --root . ./perfbench/harness.exe ./bin/dlosn_cli.exe 1>&2 || {
  echo "perfbench: build failed" >&2
  exit 2
}
exec ./_build/default/perfbench/harness.exe --dlosn ./_build/default/bin/dlosn_cli.exe "$@"
