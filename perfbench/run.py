"""luk3 benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload {calculus,defaults,audit,cli} \\
        --seed N --seconds S --trace {0,1}

One client, closed loop: queries run one at a time, each after the previous
one answered.  A pass runs every query of the workload once, in a fresh
worker process (see worker.py); passes repeat while the next one would end
within ``--seconds`` of the start.  Timings are scaled by a probe of the
machine's speed (see speed.py).  Every outcome is checked against truth-table
references, and the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run makes one untraced pass and two traced passes (the tracer wraps the
library's public functions from outside, see tracer.py); it reports the
per-layer metrics of the first traced pass, the tracing overhead, and every
count that differs between the two traced passes.

A result file with the full record (Python version, git SHA, nproc, seed,
query counts, verdict mix, failures) goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("calculus", "defaults", "audit", "cli")
# Set-up samples per run: each pass gives one, and set-up-only workers add
# more until there are at least MIN_SETUPS and SETUP_SPAN seconds of them.
MIN_SETUPS, MAX_SETUPS, SETUP_SPAN = 3, 15, 2.0
PASS_TIMEOUT = 170

sys.path.insert(0, HERE)

from metrics import CLI_LAYER, END_TO_END, EXACT, LAYER_METRICS, WRONG, layer_metrics  # noqa: E402


class BenchError(Exception):
    pass


def environment() -> dict:
    """Worker environment.  A fixed hash seed fixes set iteration order, which
    decides where early exits fall, so work counts repeat exactly.  It is 0
    because CPython starts about 20 ms slower under any other fixed seed."""
    return dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")


def spawn(workload: str, seed: int, workdir: str, *flags: str) -> dict:
    """Run one worker process and return its record."""
    os.makedirs(workdir, exist_ok=True)
    out = os.path.join(workdir, "record.json")
    env = environment()
    start = time.monotonic_ns()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
         "--seed", str(seed), "--spawned-ns", str(start), "--out", out,
         "--workdir", workdir, *flags],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=PASS_TIMEOUT)
    if done.returncode != 0:
        raise BenchError(f"{workload} worker failed:\n{done.stderr[-3000:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def tail(latencies_ms: list[float]) -> tuple[float, str]:
    """The highest of p90, p99 and p99.9 with at least ten samples beyond
    it, by nearest rank."""
    n = len(latencies_ms)
    chosen = next((p for p in (99.9, 99.0, 90.0) if n * (100 - p) / 100 >= 10), None)
    if chosen is None:
        raise BenchError(f"{n} queries per pass are too few for a tail percentile")
    ordered = sorted(latencies_ms)
    return ordered[math.ceil(chosen / 100 * n) - 1], f"p{chosen:g}"


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def failures_summary(record: dict) -> list[dict]:
    return [{"query": i, "label": label, "kind": kind} for i, label, kind in record["failures"]]


def repeat_mismatches(records: list[dict], keys) -> list[str]:
    """Keys whose value differs between records that did the same work."""
    return sorted({k for r in records[1:] for k in keys if r.get(k) != records[0].get(k)})


def pass_metrics(passes: list[dict], setups: list[float], key: str) -> tuple[dict, str]:
    """End-to-end metrics from the passes' latencies under ``key`` (raw or
    scaled ns) and the set-up samples; also the tail percentile used.  The
    tail is the median of the passes' tails, so that it does not depend on
    how many passes ran."""
    latencies = [ns / 1e6 for p in passes for ns in p[key]]
    tails = [tail([ns / 1e6 for ns in p[key]]) for p in passes]
    percentile = tails[0][1]
    metrics = {
        "setup_s": statistics.median(setups),
        "query_p50_ms": statistics.median(latencies),
        "query_tail_ms": statistics.median(t for t, _ in tails),
        "queries_per_s": len(latencies) / (sum(latencies) / 1e3),
        "peak_rss_mb": max(p["maxrss_kb"] for p in passes) / 1024,
        "cert_kb": passes[0]["cert_bytes"] / 1024,
    }
    return metrics, percentile


def end_to_end(workload: str, seed: int, seconds: float, work: str) -> tuple[dict, dict]:
    """Passes while the next one would still end within ``seconds`` (there
    is always one), then set-up-only workers: at least up to MIN_SETUPS
    samples, and more up to SETUP_SPAN while time is left."""
    deadline = time.monotonic() + seconds
    passes, walls = [], []
    while not passes or time.monotonic() + statistics.mean(walls) + max(
            0, MIN_SETUPS - len(passes) - 1) * max(p["setup_s"] for p in passes) <= deadline:
        start = time.monotonic()
        passes.append(spawn(workload, seed, os.path.join(work, f"pass{len(passes)}")))
        walls.append(time.monotonic() - start)
    setups = [(p["setup_s"], p["setup_scaled_s"]) for p in passes]
    wall = 0.0
    while len(setups) < MIN_SETUPS or (sum(s for s, _ in setups) < SETUP_SPAN
                                       and len(setups) < MAX_SETUPS
                                       and time.monotonic() + wall <= deadline):
        start = time.monotonic()
        only = spawn(workload, seed, os.path.join(work, "setup"), "--setup-only")
        wall = time.monotonic() - start
        setups.append((only["setup_s"], only["setup_scaled_s"]))

    metrics, percentile = pass_metrics(passes, [s for _, s in setups], "scaled_ns")
    raw, _ = pass_metrics(passes, [s for s, _ in setups], "latencies_ns")
    per_pass = len(passes[0]["latencies_ns"])
    detail = {
        "passes": len(passes), "queries_per_pass": per_pass,
        "tail_percentile": percentile, "tail_samples_per_pass": per_pass,
        "setup_samples_s": [s for s, _ in setups],
        "setup_samples_scaled_s": [s for _, s in setups],
        "timed_s": [p["timed_s"] for p in passes], "raw_metrics": raw,
        "mix": passes[0]["mix"], "failures": failures_summary(passes[0]),
        "attempted": per_pass * len(passes),
        "failed": sum(len(p["failures"]) for p in passes),
        "not_repeated": repeat_mismatches(passes, ("cert_bytes", "failures", "mix")),
        "wrong": any(kind in WRONG for p in passes for _, _, kind in p["failures"]),
    }
    return {k: (metrics[k], unit) for k, unit in END_TO_END}, detail


def startup_probes(walls: dict[str, list[float]], rounds: int = 10) -> None:
    """Wall times (ms) of ``python -c pass`` and of importing ``luk3.cli``,
    measured in alternation and appended to ``walls``.  No timeout: with one,
    ``subprocess`` polls for the exit in growing sleeps, which rounds these
    short runs up by tens of milliseconds."""
    env = environment()
    for _ in range(rounds):
        for code in ("pass", "import luk3.cli"):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            walls.setdefault(code, []).append((time.perf_counter() - start) * 1e3)


def per_layer(workload: str, seed: int, work: str) -> tuple[dict, dict]:
    probes: dict[str, list[float]] = {}
    if workload == "cli":  # before and after the untraced pass, to even out drift
        startup_probes(probes)
    untraced = spawn(workload, seed, os.path.join(work, "untraced"))
    if workload == "cli":
        startup_probes(probes)
    traced = [spawn(workload, seed, os.path.join(work, f"traced{k}"), "--trace") for k in (0, 1)]
    layers = [layer_metrics(Counter(t["raw"])) for t in traced]
    metrics = {name: (layers[0][name], unit) for name, unit in LAYER_METRICS}
    cli = {name: 0.0 for name, _ in CLI_LAYER}
    if workload == "cli":
        startup = statistics.median(probes["pass"])
        imported = statistics.median(probes["import luk3.cli"])
        command = statistics.median(untraced["latencies_ns"]) / 1e6
        cli = {"cli.python_startup_ms": startup, "cli.import_ms": imported - startup,
               "cli.command_ms": command - imported}
    metrics.update({name: (cli[name], unit) for name, unit in CLI_LAYER})
    overhead = traced[0]["timed_s"] - untraced["timed_s"]
    metrics["trace.overhead_s"] = (overhead, "s")
    not_repeated = repeat_mismatches(traced, ("cert_bytes", "failures", "mix"))
    not_repeated += [name for name in EXACT if layers[0][name] != layers[1][name]]
    detail = {
        "queries_per_pass": len(untraced["latencies_ns"]),
        "untraced_timed_s": untraced["timed_s"], "traced_timed_s": [t["timed_s"] for t in traced],
        "mix": traced[0]["mix"], "failures": failures_summary(traced[0]),
        "attempted": len(traced[0]["latencies_ns"]), "failed": len(traced[0]["failures"]),
        "not_repeated": not_repeated,
        "wrong": any(kind in WRONG for t in traced for _, _, kind in t["failures"]),
        "spans_file": os.path.relpath(os.path.join(work, "traced0", "spans.jsonl.gz"), ROOT),
    }
    return metrics, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "luk3", "__init__.py")):
        print(f"error: no luk3 sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    work = os.path.join(RESULTS, "work", f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    # Bytecode is compiled once per checkout, before anything is timed.
    compileall.compile_dir(os.path.join(SRC, "luk3"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    try:
        if args.trace:
            metrics, detail = per_layer(args.workload, args.seed, work)
        else:
            metrics, detail = end_to_end(args.workload, args.seed, args.seconds, work)
    except (BenchError, subprocess.TimeoutExpired, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    result = {
        "correct": not detail.pop("wrong"),
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "git_sha": git_sha(),
        "nproc": os.cpu_count(), "failed_frac": detail["failed"] / detail["attempted"],
        **detail, **result,
    }
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    for item in detail["failures"]:
        print(f"failure: {args.workload} query {item['query']} ({item['label']}): {item['kind']}",
              file=sys.stderr)
    if detail["not_repeated"]:
        print(f"not repeated across passes: {', '.join(detail['not_repeated'])}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
