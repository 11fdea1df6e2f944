#!/usr/bin/env python3
"""Smoke test of the perfbench benchmark at tiny sizes.

    python3 perfbench/smoke.py

Builds the benchmark program as run.py does, then for every workload in
BENCHMARK.json runs the end-to-end mode twice and the traced mode once, all
with --tiny inputs, and checks that:
  * every metric BENCHMARK.json declares is printed with its unit,
  * the op digests of the two end-to-end runs agree,
  * the traced run's replay gate passes (correct, memsim.replay_mismatch 0).
Prints one line per workload and exits non-zero on any failure.
"""
import json
import os
import subprocess
import sys

import run


def invoke(binary, workload, trace):
    args = [binary, "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace), "--tiny", "--trace-out", run.BUILD]
    out = subprocess.run(args, capture_output=True, text=True, timeout=170)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(args[1:])} exited {out.returncode}:\n"
                           f"{out.stderr[-2000:]}")
    return json.loads(lines[-1]), [l for l in lines if l.startswith("digest ")]


def missing_metrics(result, declared):
    got = result["metrics"]
    return [m["name"] for m in declared
            if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]]


def check(binary, spec, workload):
    problems = []
    digests = []
    for _ in range(2):
        result, lines = invoke(binary, workload, 0)
        if not result["correct"]:
            problems.append("end-to-end run not correct")
        problems += [f"missing {n}"
                     for n in missing_metrics(result, spec["end_to_end"])]
        digests.append(lines)
    if not digests[0] or digests[0] != digests[1]:
        problems.append("digests differ between two runs")
    result, _ = invoke(binary, workload, 1)
    if not result["correct"]:
        problems.append("traced run not correct")
    problems += [f"missing {n}"
                 for n in missing_metrics(result, spec["per_layer"])]
    if result["metrics"].get("memsim.replay_mismatch", {}).get("value") != 0:
        problems.append("replay gate failed")
    return problems


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()
    failed = False
    for w in spec["workloads"]:
        try:
            problems = check(binary, spec, w["name"])
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
            problems = [str(e)]
        failed |= bool(problems)
        print(f"{w['name']}: {'ok' if not problems else '; '.join(problems)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
