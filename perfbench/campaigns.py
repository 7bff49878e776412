"""What one round of each benchmark workload runs.

A *round* is one paper-shaped experiment, run from an empty store in a
fresh process through the front doors a user drives:

* fault workloads (``detect-uniform``, ``lockstep-jobs``, ``recovery``)
  build their grid with the CLI's own constructor
  (:func:`repro.service.wire.build_grid`), materialise it as a
  :class:`~repro.harness.manifest.CampaignManifest` (what ``repro
  campaign --manifest`` does), drain it with one in-process
  :class:`~repro.harness.orchestrator.CampaignWorker` and merge it with
  :func:`~repro.harness.orchestrator.collect`;
* ``figure-sweep`` regenerates Figures 7 and 9–13 through an
  :class:`~repro.harness.experiment.ExperimentRunner` with a run cache,
  exactly as ``repro figures --cache-dir`` does.

Set-up (timed apart from the measured phase) is the work done once per
store: golden traces, grid build and manifest materialisation.  The
measured phase is the drain plus ``collect`` (fault workloads) or the
figure regeneration (``figure-sweep``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from repro.common.config import default_config
from repro.detection.faults import FaultSite, TransientFault
from repro.harness.campaign import (
    TRACE_STORE_DIRNAME,
    CampaignEngine,
    CampaignGrid,
    JobSpec,
)
from repro.harness.experiment import ExperimentRunner
from repro.harness import figures
from repro.harness.manifest import CampaignManifest
from repro.harness.orchestrator import CampaignWorker, collect
from repro.service.wire import build_grid
from repro.workloads.suite import (
    BENCHMARK_ORDER,
    benchmark_trace,
    configure_trace_store,
)

SCALE = "small"

#: The figures ``figure-sweep`` regenerates (``repro figures`` names).
FIGURE_NAMES = ("fig7", "fig9", "fig10", "fig11", "fig12", "fig13")

#: The recovery fault that fails on today's code, every time.
#: ``repro.recovery.rollback.resume_from`` restarts ``instr_count`` at 0,
#: and the default RDRAND stream is a function of ``instr_count``, so
#: swaptions re-executed from its snapshot at seq 1365 draws another
#: random stream than the run it replaces and ends with
#: ``recovered=False``.  It does not depend on ``--seed``.
NAMED_RECOVERY_BENCHMARK = "swaptions"
NAMED_RECOVERY_FAULT = TransientFault(FaultSite.STORE_VALUE, seq=1497, bit=5)


@dataclass(frozen=True)
class Workload:
    name: str
    #: campaign job kind (``figures`` for the figure sweep)
    kind: str
    scheme: str = "detection"
    #: fault trials per benchmark in one round
    trials: int = 0
    #: benchmarks of the seeded draw
    benchmarks: tuple[str, ...] = tuple(BENCHMARK_ORDER)


#: Recovery trials that roll back past seq 0 fail in swaptions whenever
#: the seeded draw activates one, so the seeded draw leaves swaptions
#: out and the failure is carried by the one named fault instead.
RECOVERY_BENCHMARKS = tuple(
    name for name in BENCHMARK_ORDER if name != NAMED_RECOVERY_BENCHMARK)

WORKLOADS = {
    w.name: w for w in (
        Workload("detect-uniform", "fault-batch", "detection", trials=30),
        Workload("lockstep-jobs", "fault", "lockstep", trials=60),
        Workload("figure-sweep", "figures"),
        Workload("recovery", "recovery", "detection", trials=160,
                 benchmarks=RECOVERY_BENCHMARKS),
    )
}


def fault_grid_of(workload: Workload, seed: int,
                  trials: int | None = None) -> CampaignGrid:
    """The round's campaign grid, built by the CLI's constructor."""
    grid, _meta = build_grid({
        "kind": workload.kind, "scheme": workload.scheme, "scale": SCALE,
        "benchmarks": list(workload.benchmarks),
        "trials": workload.trials if trials is None else trials,
        "seed": seed, "timing": "cycle",
    })
    if workload.kind == "recovery":
        named = JobSpec("recovery", NAMED_RECOVERY_BENCHMARK, SCALE,
                        default_config(), fault=NAMED_RECOVERY_FAULT,
                        scheme=workload.scheme)
        grid = CampaignGrid(grid.jobs + (named,))
    return grid


def grid_faults(grid: CampaignGrid) -> list[tuple[str, TransientFault]]:
    """(benchmark, fault) per trial, in flattened record order."""
    out = []
    for spec in grid:
        faults = spec.faults if spec.kind == "fault-batch" else (spec.fault,)
        out.extend((spec.benchmark, fault) for fault in faults)
    return out


def flatten(records) -> list[dict]:
    """Per-trial records: batch records expand into their cells."""
    out = []
    for record in records:
        if record.get("record_type") == "FaultBatchRecord":
            out.extend(record["records"])
        else:
            out.append(record)
    return out


def figure_configs() -> dict[str, list]:
    """The configurations each regenerated figure sweeps, by figure."""
    base = default_config()
    freq = [base.with_checker_freq(mhz) for mhz in figures.FREQUENCIES_MHZ]
    return {
        "fig7": [base],
        "fig9": freq,
        "fig10": [base.with_log(size, timeout).with_ideal_checkers()
                  for _label, size, timeout in figures.LOG_SWEEP],
        "fig11": freq,
        "fig12": [base.with_log(size, timeout)
                  for _label, size, timeout in figures.LOG_SWEEP_FIG12],
        "fig13": [base.with_checker_cores(cores).with_checker_freq(mhz)
                  for _label, cores, mhz in figures.CORE_SWEEP],
    }


def figure_specs(names=FIGURE_NAMES) -> list[JobSpec]:
    """The unique runs behind the figures ``names``: one unprotected
    baseline per benchmark, then every (benchmark, config) detection
    run, in first-use order."""
    specs = [JobSpec("baseline", name, SCALE, default_config())
             for name in BENCHMARK_ORDER]
    seen = set()
    sweeps = figure_configs()
    for figure in names:
        for cfg in sweeps[figure]:
            for name in BENCHMARK_ORDER:
                if (name, cfg) not in seen:
                    seen.add((name, cfg))
                    specs.append(JobSpec("detection", name, SCALE, cfg))
    return specs


@dataclass
class RoundResult:
    setup_s: float
    phase_s: float
    #: operations the measured phase completed (fault trials or runs)
    ops: int
    records: list
    #: jobs that failed in the worker (fault workloads), or that the
    #: figures left unrun and the record replay had to execute
    #: (``figure-sweep``); either makes the run incorrect
    failed_jobs: int = 0


def _setup_store(store_root: Path) -> None:
    configure_trace_store(store_root)
    for name in BENCHMARK_ORDER:
        benchmark_trace(name, SCALE)


def run_round(workload: Workload, seed: int, state: Path,
              trials: int | None = None, mark=None) -> RoundResult:
    """One round of ``workload`` from an empty store under ``state``.

    ``mark(stage)`` is called, untimed, between set-up and the measured
    phase (``"ready"``) and right after the phase (``"done"``)."""
    mark = mark or (lambda stage: None)
    if workload.kind == "figures":
        names = FIGURE_NAMES if trials is None else FIGURE_NAMES[:trials]
        return _figure_round(state, names, mark)
    root = state / "manifest"
    start = time.perf_counter()
    _setup_store(root / TRACE_STORE_DIRNAME)
    grid = fault_grid_of(workload, seed, trials)
    manifest = CampaignManifest.create(
        root, grid, kind=workload.kind, scheme=workload.scheme,
        scale=SCALE, benchmarks=list(workload.benchmarks))
    setup_s = time.perf_counter() - start
    mark("ready")
    ready = time.perf_counter()
    stats = CampaignWorker(manifest, worker_id="perfbench").run()
    result = collect(manifest)
    done = time.perf_counter()
    mark("done")
    records = list(result.records)
    return RoundResult(setup_s=setup_s, phase_s=done - ready,
                       ops=len(grid_faults(grid)), records=records,
                       failed_jobs=stats.failed)


def _figure_round(state: Path, names, mark) -> RoundResult:
    from repro.__main__ import FIGURE_COMMANDS

    cache = state / "cache"
    start = time.perf_counter()
    _setup_store(cache / TRACE_STORE_DIRNAME)
    setup_s = time.perf_counter() - start
    mark("ready")
    ready = time.perf_counter()
    runner = ExperimentRunner(scale=SCALE, workers=1, cache_dir=str(cache))
    for name in names:
        FIGURE_COMMANDS[name](runner)
    done = time.perf_counter()
    mark("done")
    ops = runner.engine.cache.writes
    # the records are read back from the run cache after the measured
    # phase; a replay that executes anything means the figures did not
    # run exactly the expected grid
    replay = CampaignEngine(cache_dir=str(cache)).run(figure_specs(names))
    return RoundResult(setup_s=setup_s, phase_s=done - ready,
                       ops=ops, records=list(replay.records),
                       failed_jobs=replay.executed)
