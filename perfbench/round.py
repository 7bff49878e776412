"""Child-process entry points of the benchmark (one fresh process each).

``round``
    One round of a workload from an empty store under ``--state``:
    set-up, measured phase, records written to ``<state>/records.json``,
    and one JSON summary line on stdout.  ``--trace`` wraps the layers'
    entry points first (see :mod:`layers`).
``replay``
    Execute the job descriptions in a JSON file through
    :func:`repro.harness.campaign.execute_job` and print their records —
    the differential sample, run with the fast paths switched off by the
    parent through the environment.

Both are started by ``run.py`` with ``PYTHONPATH`` naming the checkout's
``src`` and this directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path


def cmd_round(args: argparse.Namespace) -> int:
    tracer = None
    if args.trace:
        import layers
        tracer = layers.install()
    import campaigns
    from repro.common.records import canonical_json

    state = Path(args.state)
    workload = campaigns.WORKLOADS[args.workload]
    #: tracer readings at the end of set-up and of the phase
    marks = {}

    def mark(stage):
        if tracer is not None:
            marks[stage] = (tracer.self_seconds(), dict(tracer.values))

    result = campaigns.run_round(workload, args.seed, state,
                                 trials=args.trials, mark=mark)
    (state / "records.json").write_text(canonical_json(result.records))
    summary = {
        "setup_s": result.setup_s,
        "phase_s": result.phase_s,
        "ops": result.ops,
        "failed_jobs": result.failed_jobs,
        # ru_maxrss is in KiB on Linux
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        # set-up plus phase; what ran after the phase is left out
        summary["setup_self_s"] = marks["ready"][0]
        summary["self_s"], summary["layers"] = marks["done"]
    print(json.dumps(summary))
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    from repro.common.records import canonical_json
    from repro.harness.campaign import execute_job
    from repro.harness.manifest import spec_from_description

    descriptions = json.loads(Path(args.jobs).read_text())
    records = [execute_job(spec_from_description(desc))
               for desc in descriptions]
    print(canonical_json(records))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="round.py")
    sub = parser.add_subparsers(dest="command", required=True)
    p_round = sub.add_parser("round")
    p_round.add_argument("--workload", required=True)
    p_round.add_argument("--seed", type=int, required=True)
    p_round.add_argument("--state", required=True)
    p_round.add_argument("--trials", type=int, default=None)
    p_round.add_argument("--trace", action="store_true")
    p_round.set_defaults(func=cmd_round)
    p_replay = sub.add_parser("replay")
    p_replay.add_argument("--jobs", required=True)
    p_replay.set_defaults(func=cmd_replay)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
