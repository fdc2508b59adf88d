#!/usr/bin/env python3
"""Alternating A/B pairs of perfbench runs: a parent against a change.

    python3 scripts/perf_pairs.py --parent HEAD~1 --change . \\
        --workload serve_mixed --seeds 601-610 --seconds 20

Run it from the root of a git checkout; revisions are resolved there.

Each side is copied into its own directory under --scratch: a revision
with `git archive`, a directory (for example an uncommitted working
tree) by copying its files without build outputs. Every pair then runs
`perfbench/run.py --workload W --seed N --seconds S --trace T` once in
each copy, one after the other, and swaps which side goes first from
one pair to the next, so that a drift of the host's speed falls on both
sides alike. The first run of each copy also builds it.

For every metric the script prints the median and quartiles of each
side, the change of the medians in percent, and in how many pairs the
change was better (by the metric's "better" direction in
BENCHMARK.json, "?" for a metric it does not list), and whether the two
sides read the same value for every seed. Then it prints the
failed and attempted operations of each side, the notes that say why
(`request N resolved ...`, `MISMATCH ...`, `INVARIANT BROKEN ...`) of
every run that failed an operation or was not correct, and the host
block of the first run. It writes every run's result, pair by pair, to
pairs.json in --scratch, and every run's standard output and error to
runs/<side>-<seed>.log there. It decides nothing: the exit code is 0
whenever every run printed a result, so it is a measuring tool, not a
gate.

--home DIR runs every perfbench process with HOME=DIR, where a serving
engine that tiers up keeps its JIT kernels (~/.cache/parrec-jit) when
nothing else names a cache: the runs after the first find them warm.
--home fresh gives every run a new, empty HOME under --scratch, so every
run compiles its kernels cold.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

# Build outputs and caches that a directory copy leaves behind.
SKIP = {".git", ".bench_build", "build", ".parrec-jit", ".parrec-jit-cold"}

# The starts of the note lines that say why an operation failed.
FAILURE_NOTES = ("request ", "MISMATCH ", "INVARIANT BROKEN")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            first, last = part.split("-")
            seeds.extend(range(int(first), int(last) + 1))
        else:
            seeds.append(int(part))
    return seeds


def copy_side(source, target):
    """Copies a revision or a directory into target; returns a label."""
    if os.path.isdir(source):
        def ignore(directory, names):
            return [n for n in names if n in SKIP or n.startswith("build-")]
        shutil.copytree(source, target, ignore=ignore)
        return os.path.abspath(source)
    rev = subprocess.run(["git", "rev-parse", "--short", source], check=True,
                         capture_output=True, text=True).stdout.strip()
    os.makedirs(target)
    with tempfile.TemporaryFile() as archive:
        subprocess.run(["git", "archive", rev], check=True, stdout=archive)
        archive.seek(0)
        with tarfile.open(fileobj=archive) as tar:
            tar.extractall(target)
    return rev


def run_once(checkout, args, seed, log_path, home):
    """One perfbench run with HOME=home (None: unchanged), its output
    kept in log_path; returns (result dict or None, stdout)."""
    command = [sys.executable, "perfbench/run.py", "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(args.seconds), "--trace", args.trace]
    env = dict(os.environ, HOME=home) if home else None
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True, env=env)
    with open(log_path, "w") as log:
        log.write(done.stdout)
        if done.stderr:
            log.write("== stderr ==\n" + done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), done.stdout
    except (IndexError, ValueError):
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        return None, done.stdout


def failure_notes(stdout):
    return [line for line in stdout.splitlines()
            if line.startswith(FAILURE_NOTES)]


def host_block(stdout):
    lines, inside = [], False
    for line in stdout.splitlines():
        if line.startswith("== host =="):
            inside = True
            continue
        if inside and line.startswith("=="):
            break
        if inside:
            lines.append(line)
    return lines


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def directions(checkout):
    path = os.path.join(checkout, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["better"]
            for key in ("end_to_end", "per_layer") for m in spec.get(key, [])}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="git revision of the parent side")
    parser.add_argument("--change", required=True,
                        help="git revision or directory of the change side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True,
                        help="seeds, e.g. 601-610 or 1,5,9; one pair each")
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--scratch", default=None,
                        help="directory for the two copies (default: a "
                             "new temporary directory, kept)")
    parser.add_argument("--home", default=None,
                        help="HOME of every run: a directory, or 'fresh' "
                             "for a new empty one per run")
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    scratch = args.scratch or tempfile.mkdtemp(prefix="perf-pairs-")
    os.makedirs(scratch, exist_ok=True)
    sides = {}
    labels = {}
    for side, source in (("parent", args.parent), ("change", args.change)):
        target = os.path.join(scratch, side)
        if os.path.exists(target):
            sys.exit("perf_pairs: %s exists; use a fresh --scratch" % target)
        labels[side] = copy_side(source, target)
        sides[side] = target
    print("parent: %s  change: %s  workload: %s  seconds: %g  trace: %s"
          % (labels["parent"], labels["change"], args.workload, args.seconds,
             args.trace))

    runs = os.path.join(scratch, "runs")
    os.makedirs(runs, exist_ok=True)
    results = {"parent": [], "change": []}
    notes = []  # (side, seed, failure notes) of every run that failed.
    host = None
    for index, seed in enumerate(seeds):
        order = ("parent", "change") if index % 2 == 0 else ("change",
                                                             "parent")
        for side in order:
            log_path = os.path.join(runs, "%s-%d.log" % (side, seed))
            home = args.home
            if home == "fresh":
                home = os.path.join(scratch, "homes", "%s-%d" % (side, seed))
                os.makedirs(home)
            elif home:
                home = os.path.abspath(home)
                os.makedirs(home, exist_ok=True)
            result, stdout = run_once(sides[side], args, seed, log_path,
                                      home)
            if result is None:
                sys.exit("perf_pairs: %s run for seed %d printed no result "
                         "(output in %s)" % (side, seed, log_path))
            host = host or host_block(stdout)
            results[side].append(result)
            if result["failed"] or not result["correct"]:
                notes.append((side, seed, failure_notes(stdout)))
        print("pair %d (seed %d, %s first) done" % (index + 1, seed,
                                                      order[0]),
              flush=True)

    with open(os.path.join(scratch, "pairs.json"), "w") as f:
        json.dump({"seeds": seeds, "results": results}, f)

    better = directions(sides["change"])
    names = [m for m in results["parent"][0]["metrics"]]
    print()
    print("| metric | parent median [q1, q3] | change median [q1, q3] "
          "| change | change better | same per seed |")
    print("|---|---|---|---|---|---|")
    for name in names:
        a = [r["metrics"][name]["value"] for r in results["parent"]]
        b = [r["metrics"][name]["value"] for r in results["change"]
             if name in r["metrics"]]
        if len(b) != len(a):
            continue
        qa, qb = quartiles(a), quartiles(b)
        pct = ("%+.1f%%" % (100.0 * (qb[1] - qa[1]) / qa[1])
               if qa[1] else "n/a")
        direction = better.get(name)
        if direction == "lower":
            won = "%d/%d" % (sum(y < x for x, y in zip(a, b)), len(a))
        elif direction == "higher":
            won = "%d/%d" % (sum(y > x for x, y in zip(a, b)), len(a))
        else:
            won = "?"
        same = "yes" if a == b else "no"
        print("| %s | %.6g [%.6g, %.6g] | %.6g [%.6g, %.6g] | %s | %s | %s |"
              % (name, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], pct, won,
                 same))
    print()
    for side in ("parent", "change"):
        failed = sum(r["failed"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        correct = all(r["correct"] for r in results[side])
        print("%s: failed/attempted %d/%d, every run correct: %s"
              % (side, failed, attempted, "yes" if correct else "NO"))
    for side, seed, lines in notes:
        print()
        print("%s run for seed %d failed (runs/%s-%d.log):"
              % (side, seed, side, seed))
        for line in lines or ["(no note says why)"]:
            print("  " + line)
    print()
    print("host:")
    for line in host or []:
        print("  " + line)
    print("copies and run logs kept in %s" % scratch)


if __name__ == "__main__":
    main()
