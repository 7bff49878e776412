"""Correctness checks of a round's records.

Every check compares a record against a computation made apart from the
campaign's fast paths, or against a property the method must have —
never against a stored copy of earlier output:

* fault trials: ``activated`` must equal what an independent full
  ``execute_program(program, fault_injector=FaultInjector([fault]))``
  sees (no fork, no splice);
* lockstep: ``detected`` ⇔ activated, at one constant latency > 0;
* detection: nothing ``escaped``, every ``masked`` verdict confirmed by
  ``architecturally_masked`` on the reference faulty trace, every
  ``detected`` one with latency > 0 and a first-error position;
* recovery: activated ⇒ detected, recovered and ``state_correct``;
  ``rollback_seq`` ≤ the fault's seq; ``replayed_instructions`` =
  ``trace_len − rollback_seq``;
* figure runs: instruction count = golden trace length, cycles ordered
  baseline ≤ main ≤ system, ``entries_checked`` = the golden trace's
  memory entries (0 under ideal checkers), and Figure 11's delays not
  rising as checker frequency rises.

Each function returns the indices of the operations (fault trials or
runs) that fail; a failing operation is counted, never raised.
"""

from __future__ import annotations

from collections import Counter

from repro.common.config import default_config
from repro.detection.faults import FaultInjector
from repro.harness import figures
from repro.harness.campaign import config_fingerprint
from repro.isa.executor import execute_program
from repro.schemes.base import architecturally_masked
from repro.workloads.suite import build_benchmark


class Reference:
    """Independent full executions, memoised per (benchmark, fault).

    Programs and golden traces are built here from scratch, apart from
    the suite registry's memo and golden-trace store."""

    def __init__(self, scale: str) -> None:
        self.scale = scale
        self._programs: dict = {}
        self._goldens: dict = {}
        self._runs: dict = {}

    def program(self, benchmark: str):
        program = self._programs.get(benchmark)
        if program is None:
            program = self._programs[benchmark] = build_benchmark(
                benchmark, self.scale)
        return program

    def golden(self, benchmark: str):
        trace = self._goldens.get(benchmark)
        if trace is None:
            trace = self._goldens[benchmark] = execute_program(
                self.program(benchmark))
        return trace

    def faulty(self, benchmark: str, fault) -> tuple[bool, bool]:
        """(activated, architecturally masked) of a full run with
        ``fault``; only the two verdicts are kept, not the trace."""
        key = (benchmark, fault)
        run = self._runs.get(key)
        if run is None:
            injector = FaultInjector([fault])
            trace = execute_program(self.program(benchmark),
                                    fault_injector=injector)
            run = self._runs[key] = (
                bool(injector.activations),
                architecturally_masked(self.golden(benchmark), trace))
        return run


def _same_trial(record: dict, benchmark: str, fault) -> bool:
    return (record.get("benchmark") == benchmark
            and record.get("site") == fault.site.value
            and record.get("seq") == fault.seq
            and record.get("bit") == fault.bit)


def check_faults(scheme: str, trials, records, ref: Reference) -> list[int]:
    """Failing trial indices of a ``fault``/``fault-batch`` round.

    ``trials`` is the grid's (benchmark, fault) list and ``records`` the
    flattened per-trial records, in the same order."""
    failed = []
    # lockstep detects every activation at one constant latency: the
    # most common one, which every detected trial must share
    latencies = Counter(r.get("detect_latency_us") for r in records
                        if r.get("outcome") == "detected")
    lockstep_latency = (latencies.most_common(1)[0][0]
                        if latencies else None)
    for i, ((benchmark, fault), record) in enumerate(zip(trials, records)):
        if not _same_trial(record, benchmark, fault) \
                or record.get("scheme") != scheme:
            failed.append(i)
            continue
        activated, masked = ref.faulty(benchmark, fault)
        outcome = record["outcome"]
        ok = (record["activated"] == activated
              and (outcome == "not_activated") == (not activated))
        if outcome == "detected":
            ok = ok and (record["detect_latency_us"] or 0) > 0
        if scheme == "lockstep":
            ok = ok and outcome in ("not_activated", "detected")
            if outcome == "detected":
                ok = ok and record["detect_latency_us"] == lockstep_latency
        else:
            ok = ok and outcome != "escaped"
            if outcome == "detected":
                ok = ok and record["first_error_segment"] is not None
            if outcome == "masked":
                ok = ok and masked
        if not ok:
            failed.append(i)
    if len(records) != len(trials):
        failed.extend(range(min(len(records), len(trials)),
                            max(len(records), len(trials))))
    return failed


def check_recovery(trials, records, ref: Reference) -> list[int]:
    """Failing trial indices of a recovery round."""
    failed = []
    for i, ((benchmark, fault), record) in enumerate(zip(trials, records)):
        if not _same_trial(record, benchmark, fault):
            failed.append(i)
            continue
        activated, _masked = ref.faulty(benchmark, fault)
        ok = (record["activated"] == activated
              and record["trace_len"] == len(ref.golden(benchmark)))
        if activated:
            rollback = record["rollback_seq"]
            ok = (ok and record["detected"]
                  and rollback is not None and rollback <= fault.seq
                  and record["replayed_instructions"]
                  == record["trace_len"] - rollback
                  and record["recovered"] and record["state_correct"])
        if not ok:
            failed.append(i)
    if len(records) != len(trials):
        failed.extend(range(min(len(records), len(trials)),
                            max(len(records), len(trials))))
    return failed


def check_figure_runs(specs, records, ref: Reference) -> list[int]:
    """Failing run indices of a figure-sweep round.

    ``specs`` are the runs' job specs (baselines first), ``records``
    their records in the same order."""
    failed = set()
    baselines = {}
    for spec, record in zip(specs, records):
        if spec.kind == "baseline":
            baselines[spec.benchmark] = record
    delays = {}
    for i, (spec, record) in enumerate(zip(specs, records)):
        golden = ref.golden(spec.benchmark)
        base = baselines.get(spec.benchmark)
        ok = (record.get("benchmark") == spec.benchmark
              and record.get("config_key") == config_fingerprint(spec.config)
              and record["instructions"] == len(golden)
              and base is not None)
        if ok and spec.kind == "baseline":
            ok = 0 < record["cycles"] <= record["system_cycles"]
        elif ok:
            entries = (0 if spec.config.detection.ideal_checkers
                       else golden.mem_off[len(golden)])
            ok = (record["main_cycles"] >= base["cycles"]
                  and record["system_cycles"] >= record["main_cycles"]
                  and record["entries_checked"] == entries)
            delays[(spec.benchmark, spec.config)] = (i, record["delays_ns"])
        if not ok:
            failed.add(i)
    # Figure 11: mean and max delay must not rise with checker frequency
    base_cfg = default_config()
    freqs = [base_cfg.with_checker_freq(mhz)
             for mhz in sorted(figures.FREQUENCIES_MHZ)]
    for benchmark in {spec.benchmark for spec in specs}:
        previous = None
        for cfg in freqs:
            entry = delays.get((benchmark, cfg))
            if entry is None:
                continue
            index, values = entry
            stats = ((sum(values) / len(values), max(values))
                     if values else (0.0, 0.0))
            if previous is not None and (stats[0] > previous[0]
                                         or stats[1] > previous[1]):
                failed.add(index)
            previous = stats
    if len(records) != len(specs):
        failed.update(range(min(len(records), len(specs)),
                            max(len(records), len(specs))))
    return sorted(failed)
