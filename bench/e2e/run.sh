#!/usr/bin/env bash
# Builds nbr_e2e from source and runs it:
#   bash bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
# Everything after the script name is passed to `nbr_e2e run`.  Build
# output goes to stderr, so the last line on stdout is the run's JSON.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
# Keep every build artefact inside the checkout (dune's shared cache
# lives in the home directory).
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/e2e/nbr_e2e.exe 1>&2
exec ./_build/default/bench/e2e/nbr_e2e.exe run "$@"
