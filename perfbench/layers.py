"""Per-layer tracing: wrap each layer's public entry points, count self time.

:func:`install` replaces the entry points it lists with timing
wrappers, in every loaded module that bound them, and returns the
:class:`Tracer` that accumulates into the per-layer metrics.  A span's
*self* time is its wall time minus the wall time of the traced spans it
called, so the self times of one round partition the traced part of its
wall time and never sum to more than it.

The per-verdict times (``schemes.fault_s.*``) are inclusive instead: the
``execute_forked`` call that produced a faulty trace plus the scheme's
``classify`` of it, attributed to the verdict ``classify`` returned.
They overlap the self times and are not part of that sum.
"""

from __future__ import annotations

import functools
import sys
import time

#: Every per-layer metric a traced round reports, with its unit.
METRICS = {
    "isa.forked_s": "s", "isa.forked_rows": "count",
    "isa.program_s": "s", "isa.program_rows": "count",
    "core.timing_s": "s", "core.timed_rows": "count",
    "detection.checker_s": "s", "detection.segments_checked": "count",
    "detection.system_s": "s",
    "schemes.fault_s.not_activated": "s",
    "schemes.fault_s.detected": "s",
    "schemes.fault_s.masked": "s",
    "recovery.recover_s": "s", "recovery.replayed_rows": "count",
    "workloads.store_s": "s",
    "harness.spec_key_s": "s", "harness.spec_key_calls": "count",
    "harness.cache_io_s": "s", "harness.cache_puts": "count",
    "harness.lease_s": "s", "harness.collect_s": "s",
    "harness.job_s": "s",
}

class Tracer:
    """Accumulates self times and counts of the wrapped spans."""

    def __init__(self) -> None:
        self.values = {name: 0.0 if unit == "s" else 0
                       for name, unit in METRICS.items()}
        #: children's wall time of each open span, innermost last
        self._stack: list[list[float]] = []
        #: wall time of the last execute_forked, for the verdict split
        self._forked_s = 0.0

    def self_seconds(self) -> float:
        """Sum of the self times (the verdict split overlaps them)."""
        return sum(value for name, value in self.values.items()
                   if METRICS[name] == "s"
                   and not name.startswith("schemes."))

    def span(self, metric: str, fn, count=None, before=None):
        """``fn`` wrapped so its self time adds to ``metric``.

        ``count(values, token, args, result)`` may add to counters;
        ``token`` is ``before(args)``, taken before the call."""
        values = self.values
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                values[metric] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
            if count is not None:
                count(values, token, args, result)
            return result

        return wrapper

    def forked_span(self, fn):
        """``execute_forked``: a self-time span that also remembers its
        wall time for the verdict split."""
        tracer = self

        def count(values, token, args, result):
            live = len(result) - (result.fork_seq
                                  if result.fork_of is not None else 0)
            values["isa.forked_rows"] += live

        inner = self.span("isa.forked_s", fn, count=count)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = inner(*args, **kwargs)
            tracer._forked_s = time.perf_counter() - start
            return result

        return wrapper

    def verdict_span(self, fn):
        """A scheme's ``classify``: no self-time frame of its own (its
        own time stays with the job); its wall time plus the preceding
        ``execute_forked`` goes to the verdict it returns."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            verdict = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start + tracer._forked_s
            tracer._forked_s = 0.0
            name = f"schemes.fault_s.{verdict.outcome}"
            if name in tracer.values:
                tracer.values[name] += elapsed
            return verdict

        return wrapper


def _rebind(original, replacement) -> int:
    """Point every loaded module's binding of ``original`` at
    ``replacement``; returns how many bindings changed."""
    name = original.__name__
    changed = 0
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if namespace is not None and namespace.get(name) is original:
            namespace[name] = replacement
            changed += 1
    return changed


def install() -> Tracer:
    """Wrap every traced entry point; returns the live tracer."""
    from repro.core.ooo_core import OoOCore
    from repro.detection import system
    from repro.detection.checker import SegmentChecker
    from repro.harness import campaign, orchestrator
    from repro.harness.campaign import JobSpec, RunCache
    from repro.harness.manifest import CampaignManifest
    from repro.isa import executor
    from repro.recovery import rollback
    from repro.schemes import iter_schemes
    from repro.workloads.trace_store import TraceStore

    tracer = Tracer()

    def rows_of_program(values, token, args, result):
        values["isa.program_rows"] += len(result)

    def next_row(args):
        return args[3].next_row  # run_rows(self, trace, hook, state, stop)

    def rows_timed(values, token, args, result):
        values["core.timed_rows"] += args[3].next_row - token

    def one(metric):
        def count(values, token, args, result):
            values[metric] += 1
        return count

    def replayed(values, token, args, result):
        values["recovery.replayed_rows"] += result.replayed_instructions

    functions = (
        (executor.execute_forked, tracer.forked_span(executor.execute_forked)),
        (executor.execute_program, tracer.span(
            "isa.program_s", executor.execute_program,
            count=rows_of_program)),
        (system.run_with_detection, tracer.span(
            "detection.system_s", system.run_with_detection)),
        (system.prime_splice_cursor, tracer.span(
            "detection.system_s", system.prime_splice_cursor)),
        (rollback.detect_and_recover, tracer.span(
            "recovery.recover_s", rollback.detect_and_recover,
            count=replayed)),
        (campaign.execute_job, tracer.span(
            "harness.job_s", campaign.execute_job)),
        (orchestrator.collect, tracer.span(
            "harness.collect_s", orchestrator.collect)),
    )
    for original, replacement in functions:
        if not _rebind(original, replacement):
            raise RuntimeError(f"no module binds {original.__name__}")

    methods = (
        (OoOCore, "run_rows", "core.timing_s",
         dict(before=next_row, count=rows_timed)),
        (SegmentChecker, "check", "detection.checker_s",
         dict(count=one("detection.segments_checked"))),
        (TraceStore, "get", "workloads.store_s", {}),
        (TraceStore, "put", "workloads.store_s", {}),
        (TraceStore, "put_timing", "workloads.store_s", {}),
        (JobSpec, "key", "harness.spec_key_s",
         dict(count=one("harness.spec_key_calls"))),
        (RunCache, "get", "harness.cache_io_s", {}),
        (RunCache, "has", "harness.cache_io_s", {}),
        (RunCache, "put", "harness.cache_io_s",
         dict(count=one("harness.cache_puts"))),
        (CampaignManifest, "lease_batch", "harness.lease_s", {}),
        (CampaignManifest, "release", "harness.lease_s", {}),
    )
    for cls, attr, metric, hooks in methods:
        setattr(cls, attr, tracer.span(metric, getattr(cls, attr), **hooks))
    for scheme in iter_schemes():
        cls = type(scheme)
        if "classify" in cls.__dict__:
            cls.classify = tracer.verdict_span(cls.classify)
    return tracer
