#!/bin/sh
# Usage: run_passive.sh OUTDIR BENCH...
# Runs each BENCH at its default size, plain and with the passive observer
# flags, into OUTDIR/<bench>.plain and .observed. The runs go in parallel
# (one figure takes seconds); fails if any run fails.
out=$1
shift
mkdir -p "$out" || exit 1
pids=
for bench in "$@"; do
  name=$(basename "$bench")
  "$bench" > "$out/$name.plain" &
  pids="$pids $!"
  "$bench" --req-trace --mem-backend=flat > "$out/$name.observed" &
  pids="$pids $!"
done
status=0
for pid in $pids; do wait "$pid" || status=1; done
exit $status
