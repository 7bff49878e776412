"""The benchmark's own tests.

* A tiny-trial pass of every workload through ``run.py`` (the same code
  the full benchmark runs), untraced and traced.
* Every correctness check rejects a planted wrong record — a flipped
  outcome, a shifted ``rollback_seq``, a wrong instruction count, … —
  and accepts the real ones, so no check is vacuous.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the root
of a checkout.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import campaigns  # noqa: E402
import checks  # noqa: E402
from layers import METRICS  # noqa: E402
from repro.harness.campaign import execute_job  # noqa: E402


def run_bench(workload: str, trace: int, trials: int = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--trials", str(trials)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(campaigns.WORKLOADS))
def test_tiny_pass(workload):
    result = run_bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # only the named swaptions recovery fault may fail (it does until
    # resume_from is mended)
    assert result["failed"] in ((0, 1) if workload == "recovery" else (0,))
    assert set(result["metrics"]) == {"ops_per_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_pass():
    result = run_bench("detect-uniform", trace=1)
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == set(METRICS) | {"trace.overhead_pct"}
    for name in ("isa.forked_s", "core.timing_s", "detection.checker_s",
                 "harness.job_s", "harness.collect_s", "workloads.store_s"):
        assert metrics[name]["value"] > 0, name
    assert metrics["harness.cache_puts"]["value"] == 9   # one cell each
    assert metrics["recovery.recover_s"]["value"] == 0


# -- planted wrong records ----------------------------------------------------

@pytest.fixture(scope="module")
def ref():
    return checks.Reference(campaigns.SCALE)


def fault_round(name: str, trials: int):
    workload = campaigns.WORKLOADS[name]
    grid = campaigns.fault_grid_of(workload, seed=0, trials=trials)
    records = campaigns.flatten([execute_job(spec) for spec in grid])
    return workload, campaigns.grid_faults(grid), records


@pytest.fixture(scope="module")
def detection_round():
    return fault_round("detect-uniform", trials=3)


@pytest.fixture(scope="module")
def lockstep_round():
    return fault_round("lockstep-jobs", trials=3)


def planted(records, index, **changes):
    out = copy.deepcopy(records)
    out[index].update(changes)
    return out


def first(records, outcome):
    return next(i for i, r in enumerate(records) if r["outcome"] == outcome)


def test_detection_checks(detection_round, ref):
    workload, trials, records = detection_round
    check = lambda recs: checks.check_faults(  # noqa: E731
        workload.scheme, trials, recs, ref)
    assert check(records) == []
    detected = first(records, "detected")
    quiet = first(records, "not_activated")
    for index, changes in (
            (detected, {"outcome": "not_activated", "activated": False}),
            (detected, {"outcome": "escaped"}),
            (detected, {"outcome": "masked"}),   # not masked on reference
            (detected, {"detect_latency_us": 0.0}),
            (detected, {"first_error_segment": None}),
            (quiet, {"activated": True}),
            (quiet, {"seq": records[quiet]["seq"] + 1})):
        assert check(planted(records, index, **changes)) == [index], changes
    assert check(records[:-1]) == [len(records) - 1]


def test_lockstep_checks(lockstep_round, ref):
    workload, trials, records = lockstep_round
    check = lambda recs: checks.check_faults(  # noqa: E731
        workload.scheme, trials, recs, ref)
    assert check(records) == []
    detected = first(records, "detected")
    quiet = first(records, "not_activated")
    latency = records[detected]["detect_latency_us"]
    for index, changes in (
            (detected, {"outcome": "not_activated", "activated": False}),
            (detected, {"detect_latency_us": latency * 2}),
            (quiet, {"outcome": "detected", "activated": True,
                     "detect_latency_us": latency})):
        assert check(planted(records, index, **changes)) == [index], changes


def test_differential_sample_flags_planted_record(lockstep_round,
                                                  tmp_path):
    import run
    workload, _trials, records = lockstep_round
    deadline = time.monotonic() + 120
    # the sample (40 jobs) covers this whole 27-job grid
    assert run.differential(workload, 0, records, tmp_path, deadline,
                            3) == set()
    detected = first(records, "detected")
    bad = planted(records, detected,
                  detect_latency_us=records[detected]["detect_latency_us"]
                  + 1e-3)
    assert run.differential(workload, 0, bad, tmp_path, deadline,
                            3) == {detected}


def test_recovery_checks(ref):
    workload, trials, records = fault_round("recovery", trials=2)
    check = lambda recs: checks.check_recovery(trials, recs, ref)  # noqa
    named = len(records) - 1
    # only the named swaptions fault may fail (it does until resume_from
    # is mended)
    base = check(records)
    assert set(base) <= {named}
    good = next(i for i, r in enumerate(records)
                if r["activated"] and r["recovered"])
    rollback = records[good]["rollback_seq"]
    for changes in ({"rollback_seq": rollback + 1},
                    {"rollback_seq": records[good]["seq"] + 1},
                    {"replayed_instructions":
                     records[good]["replayed_instructions"] - 1},
                    {"detected": False},
                    {"recovered": False},
                    {"state_correct": False},
                    {"activated": False}):
        assert check(planted(records, good, **changes)) == \
            sorted({good, *base}), changes


def test_figure_checks(ref):
    specs = campaigns.figure_specs(("fig7", "fig11"))
    specs = [s for s in specs if s.benchmark == "stream"]
    records = [execute_job(spec) for spec in specs]
    check = lambda recs: checks.check_figure_runs(specs, recs, ref)  # noqa
    assert check(records) == []
    run = 1   # the default-config detection run
    for changes in ({"instructions": records[run]["instructions"] + 1},
                    {"entries_checked": records[run]["entries_checked"] + 1},
                    {"main_cycles": records[0]["cycles"] - 1},
                    {"system_cycles": records[run]["main_cycles"] - 1}):
        assert check(planted(records, run, **changes)) == [run], changes
    # Figure 11: swap the slowest and fastest checker's delays
    freqs = [i for i, s in enumerate(specs) if s.kind == "detection"]
    by_mhz = sorted(freqs, key=lambda i: specs[i].config.checker.freq_mhz)
    slow, fast = by_mhz[0], by_mhz[-1]
    swapped = planted(records, fast, delays_ns=records[slow]["delays_ns"])
    assert fast in check(swapped)
