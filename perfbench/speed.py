"""Host-speed reference of the benchmark.

A shared host may run the machine at different speeds, both for minutes
at a time and from one tenth of a second to the next: a fixed pure-Python
loop has been seen to take from 0.22 to 0.36 s over 40 consecutive
repeats, and whole 30-s runs of the same work moved by the same factor.
A run's median cannot average over a phase that outlasts the run.  So a
child times a fixed reference loop right before and right after each
pass, and, from a timer signal, every ``INTERVAL_S`` of wall time while
the pass runs.  The time spent in the signal handler is taken out of the
pass's time, and the pass's time is rescaled to the speed at which one
iteration of the loop takes ``REFERENCE_ITERATION_S``:

    normalized = raw * mean(reference iteration time / sampled iteration time)

Samples taken at even steps of wall time make this mean the pass's
average speed.  The loop does what darbouxkit's hot paths do (small
``Fraction`` arithmetic, tuple keys, dict updates, calls) and uses
nothing of darbouxkit, so a change of the program cannot change it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# Wall (and CPU) seconds of one loop iteration at the reference speed: a
# loop of 3500 iterations takes 25 ms, about its median on a 2-vCPU VM with
# Python 3.11.7 when it was first timed.  The shorter loop below runs at
# 16 to 20 ms per 3500 iterations there, so normalized times read about a
# third above raw ones.
REFERENCE_ITERATION_S = 0.025 / 3500
LOOP_SIZE = 1500
REPEATS = 3
# Timer period and loop size of the samples taken while a pass runs: about
# 4% of the pass.
INTERVAL_S = 0.1
SAMPLE_SIZE = 700


def reference_loop(n: int = LOOP_SIZE) -> int:
    table: dict = {}
    f = Fraction(0)
    acc = 0
    for i in range(n):
        key = (i & 255, i % 7)
        table[key] = table.get(key, 0) + 1
        f = Fraction(i % 13 + 1, i % 11 + 1) * Fraction(3, 7) + (i & 3)
        acc += f.numerator
    return acc + len(table)


def _timed(n: int) -> tuple[float, float]:
    w0, c0 = time.perf_counter(), time.thread_time()
    reference_loop(n)
    return time.perf_counter() - w0, time.thread_time() - c0


def measure() -> dict:
    """Median wall and CPU seconds per iteration of ``REPEATS`` full loops.

    CPU time is this thread's: once numpy is imported, its own threads may
    add CPU time to the process while the loop runs."""
    walls, cpus = zip(*(_timed(LOOP_SIZE) for _ in range(REPEATS)))
    return {"wall": statistics.median(walls) / LOOP_SIZE,
            "cpu": statistics.median(cpus) / LOOP_SIZE}


def factor(samples: list[dict], kind: str) -> float:
    """Scale from raw to normalized seconds, given per-iteration samples."""
    return statistics.fmean(REFERENCE_ITERATION_S / s[kind] for s in samples)


def rescale(passes: list[dict], samples: list[dict]) -> None:
    """Add the normalized wall and CPU times to pass records that ran
    while ``samples`` were taken."""
    for p in passes:
        p["norm_wall_s"] = p["wall_s"] * factor(samples, "wall")
        p["norm_cpu_s"] = p["cpu_s"] * factor(samples, "cpu")


class Sampler:
    """Times a short reference loop from ``SIGALRM`` every ``INTERVAL_S``.

    ``spent_wall`` and ``spent_cpu`` add up the handler's own time, so a
    caller can take it out of what it measures; ``samples`` holds the
    per-iteration times.
    """

    def __init__(self):
        self.samples: list[dict] = []
        self.spent_wall = self.spent_cpu = 0.0
        self._previous = None

    def take(self) -> list[dict]:
        """The samples taken so far, which are then forgotten."""
        samples, self.samples = self.samples, []
        return samples

    def _handler(self, _signum, _frame):
        w0 = time.perf_counter()
        wall, cpu = _timed(SAMPLE_SIZE)
        self.samples.append({"wall": wall / SAMPLE_SIZE, "cpu": cpu / SAMPLE_SIZE})
        self.spent_wall += time.perf_counter() - w0
        self.spent_cpu += cpu

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
