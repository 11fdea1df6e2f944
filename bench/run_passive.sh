#!/bin/sh
# Usage: run_passive.sh OUTDIR [--observed] [--FLAG ...] BENCH ...
# Runs each BENCH at its default size, with the --FLAGs before it, into
# OUTDIR/<bench>.plain and OUTDIR/BENCH_<bench>.json (--json-out); a BENCH
# after --observed also runs with the passive observer flags into
# OUTDIR/<bench>.observed. The runs all go at once (each takes seconds and a
# few MB), so their order does not matter; fails if any run fails.
out=$1
shift
mkdir -p "$out" || exit 1
observed=
flags=
pids=
for arg in "$@"; do
  case $arg in
    --observed) observed=1; continue ;;
    --*) flags="$flags $arg"; continue ;;
  esac
  name=$(basename "$arg")
  # $flags unquoted: each flag is one word.
  "$arg" $flags --json-out="$out/BENCH_$name.json" > "$out/$name.plain" &
  pids="$pids $!"
  if [ -n "$observed" ]; then
    "$arg" --req-trace --mem-backend=flat > "$out/$name.observed" &
    pids="$pids $!"
  fi
  observed=
  flags=
done
status=0
for pid in $pids; do wait "$pid" || status=1; done
exit $status
