#!/usr/bin/env bash
# Runs a command that journals into a store and SIGKILLs it once the
# journal holds K complete records, then prints how many records the killed
# run left. The kill waits for the journal rather than for the clock, so it
# lands mid-run however fast the host is; a caller checks that the finished
# store ends up with more records than this count.
#
#   usage: bash .github/kill_at_records.sh K JOURNAL COMMAND [ARG...]
#
# Run the binary itself (./_build/default/bin/sctbench_run.exe), not a
# wrapper such as `dune exec`, so that the signal reaches the run.
set -u

k=$1
journal=$2
shift 2

"$@" > /dev/null 2>&1 &
pid=$!
while kill -0 "$pid" 2> /dev/null; do
  if [ -f "$journal" ] && [ "$(wc -l < "$journal")" -ge "$k" ]; then
    kill -KILL "$pid"
    break
  fi
  sleep 0.01
done
wait "$pid" 2> /dev/null
wc -l < "$journal"
