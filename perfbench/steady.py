"""Steadiness check: run every workload many times and report the spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10 [--workloads a,b] [--seconds S]

Runs ``run.py`` ``--runs`` times per workload, alternating workloads
(w1 w2 … w1 w2 …) so slow host drift lands on all of them alike; run
*i* of every workload uses seed *i* (1, 2, …).  Beside every run it
times a fixed pure-Python loop, the host's speed at that moment.  Then
it prints, per workload and end-to-end metric, the median, the
quartiles, the interquartile range as a share of the median, the signed
change from the first half of the runs' median to the second half's,
and whether that change stays within the metric's bound in
``BENCHMARK.json`` either way; and the share of failed operations per
workload.
The last line is the same report as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def host_loop_s() -> float:
    """Wall time of a fixed pure-Python loop (about 0.3 s on a 2-core
    x86-64 VM)."""
    start = time.perf_counter()
    total = 0
    for i in range(3_000_000):
        total += i & 7
    return time.perf_counter() - start


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else 0.0}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="perfbench/steady.py")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    results = {w: [] for w in workloads}
    loops = []
    for i in range(args.runs):
        for workload in workloads:
            loops.append(host_loop_s())
            result = one_run(workload, i + 1, args.seconds)
            results[workload].append(result)
            values = " ".join(f"{k}={v['value']:.4g}"
                              for k, v in result["metrics"].items())
            print(f"run {i + 1}/{args.runs} {workload}: {values} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"host_loop={loops[-1]:.3f}s", flush=True)

    report = {"runs": args.runs, "seconds": args.seconds,
              "host_loop_s": spread(loops), "workloads": {}}
    half = args.runs // 2
    print()
    print(f"{'workload':<16}{'metric':<13}{'median':>10}{'q1':>10}"
          f"{'q3':>10}{'iqr/med':>9}{'bound':>7}{'halves':>8}{'agree':>7}")
    for workload in workloads:
        runs = results[workload]
        entry = {"failed_share": sorted({r["failed"] / r["attempted"]
                                         for r in runs}),
                 "correct": all(r["correct"] for r in runs),
                 "metrics": {}}
        for name, metric in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs]
            stats = spread(values)
            first = statistics.median(values[:half])
            second = statistics.median(values[half:])
            # signed: positive when the second half reads higher
            stats["halves_change"] = (second - first) / first
            stats["halves_agree"] = (abs(stats["halves_change"])
                                     <= metric["bound"])
            entry["metrics"][name] = stats
            print(f"{workload:<16}{name:<13}{stats['median']:>10.4g}"
                  f"{stats['q1']:>10.4g}{stats['q3']:>10.4g}"
                  f"{stats['iqr_share']:>9.3f}{metric['bound']:>7.2f}"
                  f"{stats['halves_change']:>+8.3f}"
                  f"{'ok' if stats['halves_agree'] else 'NO':>7}")
        print(f"{workload:<16}failed share {entry['failed_share']}, "
              f"correct {entry['correct']}")
        report["workloads"][workload] = entry
    host = report["host_loop_s"]
    print(f"host loop: median {host['median']:.3f}s, "
          f"q1 {host['q1']:.3f}s, q3 {host['q3']:.3f}s")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
