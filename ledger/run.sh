#!/usr/bin/env bash
# Builds the ledger from source and runs it, passing every argument on.
# Run from the root of the repository, e.g.
#   bash ledger/run.sh --workload study --seed 0 --seconds 30 --trace 0
# Build output goes to standard error, so the last line of standard output
# is the ledger's JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f ledger/dune ]; then
  echo "ledger/run.sh: run from the root of the repository (dune-project, lib/ and ledger/ are needed)" >&2
  exit 2
fi

if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi

# Keep dune's shared build cache off, so that the build reads and writes
# only inside the repository.
DUNE_CACHE=disabled dune build --root . ./ledger/ledger.exe 1>&2
exec ./_build/default/ledger/ledger.exe "$@"
