"""One pass of one workload in a fresh interpreter.

Set-up (interpreter start, ``import luk3``, input generation) is timed from
the moment the parent spawned this process, read on the system-wide
monotonic clock.  Then every query of the workload runs once, in its fixed
order, each timed on its own, and the outcomes are checked against the
references outside the timed phase.  Set-up and query times are also given
on the fixed scale of speed.py.  The record goes to ``--out`` as JSON.

Running each pass in a fresh process means the library's module-level caches
start cold and fill the same way in every pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402

SETUP_PROBES = 5  # probe samples taken right after set-up, to scale it


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    trace_dir = None
    if args.workload == "cli":
        trace_dir = os.path.join(args.workdir, "trace") if args.trace else None
        if trace_dir:
            os.makedirs(trace_dir, exist_ok=True)
        workload = workloads.Cli(args.seed, args.workdir, trace_dir)
    else:
        workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    probe = speed.Probe()
    for _ in range(SETUP_PROBES):
        probe.sample()
    now = time.perf_counter_ns()
    record: dict = {"setup_s": setup_s, "setup_scaled_s": setup_s * probe.scale(now, now)}

    if not args.setup_only:
        spent = probe.spent_ns
        start = time.perf_counter()
        latencies, scaled, outcomes = workload.timed_phase(
            probe, tracer if trace_dir is None else None)
        record["timed_s"] = time.perf_counter() - start - (probe.spent_ns - spent) / 1e9
        record["latencies_ns"] = latencies
        record["scaled_ns"] = scaled
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        record["maxrss_kb"] = resource.getrusage(who).ru_maxrss
        record.update(workload.check(outcomes))
        if tracer is not None:
            spans = tracer.spans
            if trace_dir is not None:
                for i in range(len(latencies)):
                    with open(os.path.join(trace_dir, f"{i}.json"), encoding="utf-8") as fh:
                        child = json.load(fh)
                    tracer.raw.update(child["raw"])
                    spans.extend([i] + span[1:] for span in child["spans"])
            record["raw"] = dict(tracer.raw)
            tracer.dump(os.path.join(args.workdir, "spans.jsonl.gz"))

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
