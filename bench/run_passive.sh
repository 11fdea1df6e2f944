#!/bin/sh
# Usage: run_passive.sh OUTDIR [--observed] BENCH [[--observed] BENCH ...]
# Runs each BENCH at its default size into OUTDIR/<bench>.plain; a BENCH
# after --observed also runs with the passive observer flags into
# OUTDIR/<bench>.observed. The runs all go at once (each takes seconds and a
# few MB), so their order does not matter; fails if any run fails.
out=$1
shift
mkdir -p "$out" || exit 1
observed=
pids=
for arg in "$@"; do
  if [ "$arg" = --observed ]; then
    observed=1
    continue
  fi
  name=$(basename "$arg")
  "$arg" > "$out/$name.plain" &
  pids="$pids $!"
  if [ -n "$observed" ]; then
    "$arg" --req-trace --mem-backend=flat > "$out/$name.observed" &
    pids="$pids $!"
  fi
  observed=
done
status=0
for pid in $pids; do wait "$pid" || status=1; done
exit $status
