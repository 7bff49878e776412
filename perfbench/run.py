"""Paper-shaped campaign benchmark: one workload, timed end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload detect-uniform --seed 0 \\
        --seconds 20 --trace 0

Runs whole rounds of the workload (see :mod:`campaigns`), each in a
fresh single-threaded process from an empty store, until ``--seconds``
have passed; then checks every round's records (see :mod:`checks`),
re-runs a seeded sample of the jobs on the reference paths, and prints
one JSON result line last:

``--trace 0``
    the end-to-end metrics, each the median over the run's rounds:
    ``ops_per_s`` (fault trials, or figure runs, per second of the
    measured phase), ``setup_s`` and ``peak_rss_mb``;
``--trace 1``
    rounds alternate untraced and traced; the per-layer metrics of the
    median traced round (see :mod:`layers`) and ``trace.overhead_pct``,
    the traced rounds' median phase over the untraced rounds' median
    phase, less one, in percent.

Exits 2 without a result when the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Per-run state (manifests, caches, golden stores), inside the checkout.
STATE_ROOT = ROOT / ".bench_build" / "perfbench"

#: Jobs re-run on the reference paths per run, per workload.
DIFFERENTIAL_SAMPLE = {"detect-uniform": 6, "lockstep-jobs": 40,
                       "recovery": 8}

#: The reference paths: full execution, full re-timing, handler dispatch.
REFERENCE_ENV = {"REPRO_FORK_INJECTION": "0", "REPRO_TIMING_SPLICE": "0",
                 "REPRO_BLOCK_EXEC": "0"}

#: A whole run (all rounds, checks and the sample) must end well within
#: the 180 s a run may take.
CHILD_TIMEOUT_S = 150.0


def child_env(extra: dict | None = None) -> dict:
    env = dict(os.environ)
    for name in ("REPRO_FORK_INJECTION", "REPRO_TIMING_SPLICE",
                 "REPRO_BLOCK_EXEC", "REPRO_TIMING_MODE",
                 "REPRO_SPLICE_CURSORS", "REPRO_BENCH_SCALE"):
        env.pop(name, None)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    # one thread per process: no BLAS pool behind numpy
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.update(extra or {})
    return env


def run_child(args: list[str], env: dict, deadline: float) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "round.py"), *args],
        env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"round.py {args[0]} exited {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def run_rounds(workload: str, seed: int, seconds: float, trace: bool,
               state: Path, deadline: float,
               trials: int | None = None) -> list[dict]:
    """Whole rounds until ``seconds`` have passed (two at least when
    tracing: one untraced, one traced)."""
    rounds = []
    start = time.monotonic()
    while True:
        traced = trace and len(rounds) % 2 == 1
        round_dir = state / f"round-{len(rounds)}"
        argv = ["round", "--workload", workload, "--seed", str(seed),
                "--state", str(round_dir)]
        if trials is not None:
            argv += ["--trials", str(trials)]
        if traced:
            argv.append("--trace")
        summary = json.loads(run_child(argv, child_env(), deadline))
        summary["traced"] = traced
        summary["records"] = (round_dir / "records.json").read_text()
        rounds.append(summary)
        enough = len(rounds) >= (2 if trace else 1)
        if enough and time.monotonic() - start >= seconds:
            return rounds


def check_round(workload, seed: int, records: list, ref,
                trials: int | None) -> list[int]:
    import campaigns
    import checks

    if workload.kind == "figures":
        names = campaigns.FIGURE_NAMES[:trials]
        return checks.check_figure_runs(campaigns.figure_specs(names),
                                        records, ref)
    grid = campaigns.fault_grid_of(workload, seed, trials)
    per_trial = campaigns.grid_faults(grid)
    flat = campaigns.flatten(records)
    if workload.kind == "recovery":
        return checks.check_recovery(per_trial, flat, ref)
    return checks.check_faults(workload.scheme, per_trial, flat, ref)


def differential(workload, seed: int, records: list, state: Path,
                 deadline: float, trials: int | None) -> set[int]:
    """Indices of the trials, in a seeded sample of the round's trials
    re-run on the reference paths in a child process, whose records
    differ byte for byte from the round's."""
    import campaigns
    from repro.common.records import canonical_json
    from repro.harness.campaign import JobSpec

    size = DIFFERENTIAL_SAMPLE.get(workload.name)
    if not size:
        return set()
    grid = campaigns.fault_grid_of(workload, seed, trials)
    flat = campaigns.flatten(records)
    rng = random.Random(f"perfbench-differential:{workload.name}:{seed}")
    picks = sorted(rng.sample(range(len(flat)), min(size, len(flat))))
    if workload.kind == "fault-batch":
        # a batch cell's nested records are per-fault ``fault`` records
        trials_of = campaigns.grid_faults(grid)
        cell = grid.jobs[0]
        specs = [JobSpec("fault", trials_of[i][0], cell.scale, cell.config,
                         fault=trials_of[i][1], scheme=cell.scheme)
                 for i in picks]
    else:
        specs = [grid.jobs[i] for i in picks]
    jobs = state / "differential.json"
    jobs.write_text(json.dumps([spec.describe() for spec in specs]))
    out = run_child(["replay", "--jobs", str(jobs)],
                    child_env(REFERENCE_ENV), deadline)
    reference = json.loads(out)
    return {i for n, i in enumerate(picks)
            if n >= len(reference)
            or canonical_json(reference[n]) != canonical_json(flat[i])}


def median_round(rounds: list[dict]) -> dict:
    ordered = sorted(rounds, key=lambda r: r["phase_s"])
    return ordered[(len(ordered) - 1) // 2]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True,
                        help="seconds of rounds to run (BENCHMARK.json's "
                             "run_seconds in gated runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int, default=None,
                        help="fault trials per benchmark, or for "
                             "figure-sweep the number of figures "
                             "(default: the workload's own; the tests "
                             "use tiny values)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import campaigns
    import checks
    from layers import METRICS

    workload = campaigns.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{', '.join(campaigns.WORKLOADS)}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    state = STATE_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(state, ignore_errors=True)
    state.mkdir(parents=True)
    try:
        rounds = run_rounds(args.workload, args.seed, args.seconds,
                            bool(args.trace), state, deadline, args.trials)
        ref = checks.Reference(campaigns.SCALE)
        # a mismatch on the reference paths fails that trial in every
        # round (the rounds' records are compared identical below), so
        # the failed share is the same however many rounds ran
        mismatched = differential(
            workload, args.seed, json.loads(rounds[0]["records"]), state,
            deadline, args.trials)
        correct = True
        attempted = failed = 0
        verdicts: dict[str, set[int]] = {}
        for summary in rounds:
            text = summary["records"]
            if text not in verdicts:
                verdicts[text] = mismatched | set(check_round(
                    workload, args.seed, json.loads(text), ref, args.trials))
            attempted += summary["ops"]
            failed += len(verdicts[text])
            correct = correct and not summary["failed_jobs"]
        # every round ran the same grid from an empty store: one answer
        correct = correct and len(verdicts) == 1
    finally:
        shutil.rmtree(state, ignore_errors=True)

    plain = [r for r in rounds if not r["traced"]]
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        chosen = median_round(traced)
        metrics = {name: {"value": chosen["layers"][name], "unit": unit}
                   for name, unit in METRICS.items()}
        overhead = (statistics.median(r["phase_s"] for r in traced)
                    / statistics.median(r["phase_s"] for r in plain) - 1)
        metrics["trace.overhead_pct"] = {"value": 100 * overhead,
                                         "unit": "%"}
        # self times partition the traced time: never more than it
        for r in traced:
            phase_self = r["self_s"] - r["setup_self_s"]
            correct = correct and r["setup_self_s"] <= r["setup_s"] \
                and phase_self <= r["phase_s"]
    else:
        metrics = {
            "ops_per_s": {"value": statistics.median(
                r["ops"] / r["phase_s"] for r in plain), "unit": "1/s"},
            "setup_s": {"value": statistics.median(
                r["setup_s"] for r in plain), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                r["rss_mb"] for r in plain), "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
