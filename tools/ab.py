#!/usr/bin/env python3
"""A/B two builds by CPU time, both sides on one shared core.

    python3 tools/ab.py BUILD_A BUILD_B [BENCH ...] [--rounds N]

BUILD_A and BUILD_B are CMake build trees of this repository; a BENCH is the
name of a program under BUILD/bench/, optionally followed by its arguments in
one quoted word ("fig16_barneshut --bodies=16384"). The default benches are
the fig/tab benches with a golden under bench/golden/, at their default size.

Each round starts both sides at once, pinned to the same core, and reads
each side's CPU time (user + system) from wait4. Both sides then run through
the same host speed phases, which sequential runs do not. The core is the
highest one this process may run on, so `taskset -c N python3 tools/ab.py
...` picks core N. Rounds alternate which side starts first. The tool runs N A/A rounds (A against itself, the
noise floor) and then N A/B rounds, and prints for each bench the median and
range of the second side's CPU time over the first's. A speedup counts when
the B/A range lies outside the A/A range.

Exits 1 if any run fails or if the two sides of any round print different
bytes on stdout, so an A/B run also checks that B reproduces A's output.
"""
import argparse
import os
import shlex
import statistics
import sys
import tempfile

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "bench", "golden")


def golden_benches():
    """The benches with a committed default-size golden, by name."""
    return sorted(f[:-len(".txt")] for f in os.listdir(GOLDEN)
                  if f.endswith(".txt"))


def bench_argv(build, spec):
    """The argv of bench `spec` ("name [args...]") in build tree `build`."""
    words = shlex.split(spec)
    path = os.path.join(build, "bench", words[0])
    if not os.access(path, os.X_OK):
        sys.exit(f"ab: {path} is not an executable bench")
    return [path] + words[1:]


def run_pair(first, second, tmp):
    """Starts both argvs at once on the caller's core; returns, per side,
    (CPU seconds, stdout bytes). Exits if either run fails."""
    runs = []
    for i, argv in enumerate((first, second)):
        out = os.path.join(tmp, f"side{i}.out")
        actions = [(os.POSIX_SPAWN_OPEN, 1, out,
                    os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
        runs.append((argv, out, os.posix_spawn(argv[0], argv, os.environ,
                                               file_actions=actions)))
    waited = [(argv, out, os.wait4(pid, 0)) for argv, out, pid in runs]
    sides = []
    for argv, out, (_, status, usage) in waited:
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            sys.exit(f"ab: {shlex.join(argv)} exited with {code}")
        with open(out, "rb") as f:
            sides.append((usage.ru_utime + usage.ru_stime, f.read()))
    return sides


def rounds(a, b, n, tmp):
    """n rounds of a against b, alternating which starts first; returns the
    b/a CPU-time ratios and whether every round printed identical bytes."""
    ratios = []
    same = True
    for r in range(n):
        if r % 2 == 0:
            (ta, oa), (tb, ob) = run_pair(a, b, tmp)
        else:
            (tb, ob), (ta, oa) = run_pair(b, a, tmp)
        ratios.append(tb / ta)
        same = same and oa == ob
    return ratios, same


def spread(ratios):
    return (f"{statistics.median(ratios):.3f} "
            f"({min(ratios):.3f}-{max(ratios):.3f})")


def main():
    ap = argparse.ArgumentParser(
        description="A/B two build trees by CPU time on one shared core.")
    ap.add_argument("build_a")
    ap.add_argument("build_b")
    ap.add_argument("benches", nargs="*", default=[])
    ap.add_argument("--rounds", type=int, default=3,
                    help="A/A rounds, and then A/B rounds, per bench")
    args = ap.parse_args()
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    benches = args.benches or golden_benches()

    core = max(os.sched_getaffinity(0))
    # The children inherit the pin; this process only sleeps in wait4.
    os.sched_setaffinity(0, {core})

    print(f"# ab: core {core}, {args.rounds} A/A and {args.rounds} A/B "
          f"rounds per bench; ratios are CPU time, median (min-max)")
    print(f"# A = {args.build_a}")
    print(f"# B = {args.build_b}")
    print(f"{'bench':<28} {'A/A':>21} {'B/A':>21}  bytes")
    ok = True
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        for spec in benches:
            a = bench_argv(args.build_a, spec)
            b = bench_argv(args.build_b, spec)
            aa, aa_same = rounds(a, a, args.rounds, tmp)
            ab, ab_same = rounds(a, b, args.rounds, tmp)
            same = aa_same and ab_same
            ok = ok and same
            print(f"{spec:<28} {spread(aa):>21} {spread(ab):>21}  "
                  f"{'same' if same else 'DIFFER'}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
