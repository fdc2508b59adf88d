#!/usr/bin/env python3
"""Check that the modelled numbers of three benches still match the
committed BENCH files exactly.

Runs bench_pipeline, bench_serve_engine and bench_serve_soak in full mode
and compares, for exact equality, only the fields their seeds fix:

  * BENCH_pipeline.json, per (max_batch, mode) config: ok, batches,
    modelled_cycles, completion_p50, completion_max;
  * BENCH_serve.json, per (devices, coalesce) config: ok, batches,
    requests_per_batch and every modelled_* field;
  * BENCH_soak.json: batch and join counts of both continuous-batching
    phases, the fairness prefix counts and goodput ratio, and the memo
    unique/total/hits/executed/hit_rate.

Wall-clock fields and hardware_concurrency are ignored: they describe the
host, not the model. The committed files are only read, never written.

Usage: check_bench_modelled.py [--build-dir DIR] [--repo DIR]
  --build-dir DIR  CMake build tree holding bench/ (default: build)
  --repo DIR       directory holding the committed BENCH_*.json (default: .)
Exits non-zero, listing every mismatch, when any field differs or a
bench fails.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

PIPELINE_FIELDS = ["ok", "batches", "modelled_cycles", "completion_p50",
                   "completion_max"]
SERVE_FIELDS = ["ok", "batches", "requests_per_batch", "modelled_*"]
SATURATION_FIELDS = ["requests", "batches", "continuous_joins"]
FAIRNESS_FIELDS = ["per_tenant", "prefix_heavy", "prefix_light",
                   "goodput_ratio"]
MEMO_FIELDS = ["unique", "total", "hits", "executed", "hit_rate"]


def run_bench(build_dir, name, out_dir):
    """Runs one bench in full mode; returns its parsed JSON output."""
    binary = os.path.join(build_dir, "bench", name)
    out = os.path.join(out_dir, name + ".json")
    proc = subprocess.run([binary, "--out=" + out], capture_output=True,
                          text=True)
    if proc.returncode != 0:
        sys.exit(f"check_bench_modelled: {name} exited "
                 f"{proc.returncode}\n{proc.stdout}{proc.stderr}")
    with open(out) as f:
        return json.load(f)


def compare_fields(where, committed, fresh, fields, problems):
    """Compares `fields`; a trailing '*' matches every committed field
    with that prefix."""
    expanded = []
    for field in fields:
        if field.endswith("*"):
            expanded += sorted(f for f in committed
                               if f.startswith(field[:-1]))
        else:
            expanded.append(field)
    for field in expanded:
        want = committed.get(field)
        got = fresh.get(field)
        if want is None:
            problems.append(f"{where}: committed file lacks {field!r}")
        elif got != want:
            problems.append(f"{where}.{field}: committed {want!r}, "
                            f"got {got!r}")


def compare_configs(bench, committed, fresh, key, fields, problems):
    """Matches configs by their `key` fields, then compares `fields`."""
    def index(doc):
        return {tuple(c[k] for k in key): c for c in doc["configs"]}
    want, got = index(committed), index(fresh)
    if set(want) != set(got):
        problems.append(f"{bench}: configs differ: committed "
                        f"{sorted(want)}, got {sorted(got)}")
    for k in sorted(set(want) & set(got)):
        where = bench + "[" + ",".join(f"{n}={v}" for n, v in zip(key, k)) \
            + "]"
        compare_fields(where, want[k], got[k], fields, problems)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--repo", default=".")
    args = parser.parse_args()

    def committed(name):
        with open(os.path.join(args.repo, name)) as f:
            return json.load(f)

    problems = []
    with tempfile.TemporaryDirectory() as out_dir:
        pipeline = run_bench(args.build_dir, "bench_pipeline", out_dir)
        serve = run_bench(args.build_dir, "bench_serve_engine", out_dir)
        soak = run_bench(args.build_dir, "bench_serve_soak", out_dir)

    compare_configs("pipeline", committed("BENCH_pipeline.json"), pipeline,
                    ("max_batch", "mode"), PIPELINE_FIELDS, problems)
    compare_configs("serve", committed("BENCH_serve.json"), serve,
                    ("devices", "coalesce"), SERVE_FIELDS, problems)

    want = committed("BENCH_soak.json")
    for phase in ("off", "on"):
        compare_fields(f"soak.continuous_batching.{phase}",
                       want["continuous_batching"][phase],
                       soak["continuous_batching"][phase],
                       SATURATION_FIELDS, problems)
    compare_fields("soak.fairness", want["fairness"], soak["fairness"],
                   FAIRNESS_FIELDS, problems)
    compare_fields("soak.memoization", want["memoization"],
                   soak["memoization"], MEMO_FIELDS, problems)

    if problems:
        print("check_bench_modelled: modelled numbers moved:",
              file=sys.stderr)
        for p in problems:
            print("  " + p, file=sys.stderr)
        sys.exit(1)
    print("check_bench_modelled: pipeline, serve and soak modelled fields "
          "match the committed files")


if __name__ == "__main__":
    main()
