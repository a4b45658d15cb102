#!/usr/bin/env python3
"""Runs every workload on ten seeds and reports each metric's spread.

For every workload it runs the command from BENCHMARK.json untraced for
run_seconds, once per seed from 1 to --runs (10), takes each end-to-end
metric's values, and reports their median and interquartile spread
(statistics.quantiles, n=4) as a share of the median, against the metric's
bound. With --out it also writes the
run stamp, every run's result and its raw per-rep samples to a JSON file.

    python3 benchmark/prove.py                      # 10 seeds x every workload
    python3 benchmark/prove.py --runs 5 --workloads recorded-checkpointed
    python3 benchmark/prove.py --out benchmark/baseline.json

Run it from the repository root.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(command, workload, seed, seconds):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    def tagged(tag):
        prefix = f"# {tag} "
        return next((json.loads(l[len(prefix):]) for l in lines if l.startswith(prefix)), {})

    return result, tagged("stamp"), tagged("samples"), elapsed


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {
        "stamp": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "git_commit": git_commit(),
            "run_seconds": seconds,
        },
        "workloads": {},
    }
    worst = {}
    for name in names:
        values = {m: [] for m in bounds}
        runs = []
        for i in range(args.runs):
            seed = 1 + i
            result, stamp, samples, elapsed = run_once(
                bench["command"], name, seed, seconds
            )
            for key in ("agent_stream_version", "matching_stream_version",
                        "snapshot_format_version", "nproc"):
                record["stamp"].setdefault(key, stamp.get(key))
            runs.append({
                "seed": seed,
                "elapsed_s": round(elapsed, 3),
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "samples": samples,
            })
            for m, v in result["metrics"].items():
                values[m].append(v["value"])
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} ({elapsed:.1f} s)",
                  flush=True)
        summary = {}
        for m, vs in values.items():
            med, sp = spread(vs)
            bound = bounds[m]
            summary[m] = {"median": med, "spread": sp, "bound": bound, "n": len(vs)}
            mark = "ok" if sp <= bound / 3 else ("within bound" if sp <= bound else "TOO WIDE")
            worst[(name, m)] = sp / bound
            print(f"  {m:<22} median {med:>16.6g}  spread {sp:7.4f}  bound {bound}  {mark}")
        record["workloads"][name] = {"runs": runs, "summary": summary}

    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
        print(f"wrote {args.out}")
    (name, m), ratio = max(worst.items(), key=lambda kv: kv[1])
    print(f"widest spread relative to its bound: {name} {m} at {ratio:.2f} x bound")


if __name__ == "__main__":
    main()
