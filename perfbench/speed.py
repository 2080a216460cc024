"""The machine's speed, probed beside the queries, to put timings on a fixed
scale.

The benchmark runs on a few cores of a shared host, whose speed drifts by a
third or more over tens of seconds as other tenants come and go; the drift
moves all timings together and dwarfs most changes to the program.  A probe is
a fixed piece of pure-Python work (no luk3 code), timed every ``EVERY_S``
seconds in the process that runs the queries.  A query's latency is scaled
by ``(REF_NS / probe) ** EXPONENT``, where ``probe`` is the median probe
time within ``WINDOW_NS`` of the query: the result estimates the query's
time on a machine that runs the probe in ``REF_NS``.  The exponent is below
1 because the workloads' times move less than the probe's when the host's
load changes: in log terms about half as much, as fitted over runs on a
2-vCPU VM, where the square root cut the run-to-run spread of most timing
metrics to half or less of the raw spread, and full scaling did less well.
The raw times stay in the result file.

Queries can run for seconds, so in a library workload the probe samples from
an interval timer's signal handler, which runs between the bytecodes of the
query itself; the time the handler takes is taken out of the query's
latency.  In the cli workload the queries are other processes, and the
probe samples between them instead.  The garbage collector is off while a
probe runs, so the library's live objects do not enter its time.
"""

from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter_ns

# Probe time, in ns, at the reference speed: about the median on a 2-vCPU
# VM with Python 3.11.  It only fixes the unit of the scale.
REF_NS = 300_000
EVERY_S = 0.05  # between probe samples
REPS = 3  # probe runs per sample; the sample is their median
WINDOW_NS = 500_000_000  # probes this close to a query set its scale
EXPONENT = 0.5  # share of the probe's speed change that the scale applies


def _work() -> int:
    table: dict[tuple[int, int], int] = {}
    total = 0
    for i in range(600):
        key = (i % 37, i % 11)
        table[key] = table.get(key, 0) + i
        total += len(str(i)) * (i & 7)
    return total + len(table)


class Probe:
    def __init__(self):
        self.times: list[int] = []  # sample midpoints, perf_counter_ns
        self.values: list[int] = []  # sample probe times, ns
        self.spent_ns = 0  # time spent sampling
        self.next_ns = 0

    def start_timer(self) -> None:
        """Sample every ``EVERY_S`` seconds, from a SIGALRM handler."""
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sample(self) -> None:
        begin = perf_counter_ns()
        enabled = gc.isenabled()
        gc.disable()
        try:
            runs = []
            for _ in range(REPS):
                start = perf_counter_ns()
                _work()
                runs.append(perf_counter_ns() - start)
        finally:
            if enabled:
                gc.enable()
        now = perf_counter_ns()
        self.times.append((begin + now) // 2)
        self.values.append(int(statistics.median(runs)))
        self.spent_ns += now - begin
        self.next_ns = now + int(EVERY_S * 1e9)

    def maybe_sample(self) -> None:
        """Sample if ``EVERY_S`` has passed since the last sample."""
        if perf_counter_ns() >= self.next_ns:
            self.sample()

    def scale(self, start_ns: int, end_ns: int) -> float:
        """``REF_NS`` over the median probe near [start_ns, end_ns] (the
        nearest sample when none is within the window), to ``EXPONENT``."""
        lo = bisect_left(self.times, start_ns - WINDOW_NS)
        hi = bisect_right(self.times, end_ns + WINDOW_NS)
        near = self.values[lo:hi]
        if not near:
            k = min(range(len(self.times)), key=lambda j: abs(self.times[j] - start_ns))
            near = [self.values[k]]
        return (REF_NS / statistics.median(near)) ** EXPONENT
