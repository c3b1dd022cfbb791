"""Host-speed calibration: scale timings to a fixed reference host speed.

The benchmark runs on shared virtual machines whose vCPUs alternate,
every few hundred milliseconds to tens of seconds, between full speed
and a state about 1.4 times slower (another tenant on the same cores).
The slowdown hits Python and numpy code alike, so it moves every timing
by the same factor, and on such a host no choice of median or
percentile over raw timings is steady from run to run.

So a fixed kernel of Python and numpy work is timed next to the program.
Its time at any moment, divided by ``REFERENCE_KERNEL_S``, is the host's
slowdown factor then; each timing is divided by the factor around it.
The raw figures are printed beside the scaled ones.

The kernel runs on the same vCPUs as the program, so a program that
loads them harder could slow the kernel too, and the scaling would then
hide part of the program's own slowdown.  ``selftest.py`` checks that it
does not: a server made slower by a fixed spin per request reads slower
after scaling by the same ratio as before it, to within 10%.

Engine workloads time the kernel before and after every call, on the
calling thread.  The service workload runs on both vCPUs at once, so a
sampler process (``python3 perfbench/calibration.py``) times the kernel
on each vCPU in turn every ``SAMPLE_PERIOD_S`` until its standard input
closes, then prints ``[[time, kernel seconds], ...]`` as JSON.  The
sampler also times the set-up probes, which run in other processes.
"""

from __future__ import annotations

import bisect
import json
import os
import select
import statistics
import subprocess
import sys
import time
from typing import List, Sequence, Tuple

import numpy as np

_GENERATOR = np.random.Generator(np.random.PCG64(0))
_BLOCK = np.empty(50_000)
SAMPLE_PERIOD_S = 0.05
REPEATS = 3

#: The kernel's time at full speed on the 2-vCPU host the benchmark was
#: built on.  Timings are reported as if the kernel had taken this long.
#: A fixed reference, not the fastest kernel time of each run, because
#: how often a run catches the host at full speed varies from run to run.
REFERENCE_KERNEL_S = 0.00075


def kernel_s() -> float:
    """The fastest of ``REPEATS`` timings of a fixed Python + numpy kernel.

    The numpy half draws and clips normals, the engine's own kind of
    work, because the slow state slows memory-heavy numpy code more than
    a pure Python loop.
    """
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        total = 0
        for value in range(3_000):
            total += value * value
        _GENERATOR.standard_normal(out=_BLOCK)
        np.clip(_BLOCK, -1.0, 1.0, out=_BLOCK)
        best = min(best, time.perf_counter() - start)
    return best


Sample = Tuple[float, float]  # (perf_counter time, kernel seconds)


class Slowdown:
    """The host's slowdown factor over time, from kernel samples."""

    def __init__(self, samples: Sequence[Sample],
                 reference_s: float = REFERENCE_KERNEL_S) -> None:
        if not samples:
            raise ValueError("no calibration samples")
        self.samples = sorted(samples)
        self.times = [t for t, _ in self.samples]
        self.reference_s = reference_s

    def factor(self, start: float, end: float, margin: float = 0.5) -> float:
        """Median kernel time over ``[start - margin, end + margin]``, over the reference."""
        low = bisect.bisect_left(self.times, start - margin)
        high = bisect.bisect_right(self.times, end + margin)
        window = [dt for _, dt in self.samples[low:high]]
        if not window:  # no sample that close: take the nearest one
            index = min(bisect.bisect_left(self.times, start), len(self.times) - 1)
            window = [self.samples[index][1]]
        return statistics.median(window) / self.reference_s

    def scaled_time(self, start: float, end: float, step: float = 0.5) -> float:
        """``end - start`` in reference-speed seconds (each step divided by its factor)."""
        total = 0.0
        at = start
        while at < end:
            upto = min(at + step, end)
            total += (upto - at) / self.factor(at, upto, margin=0.0)
            at = upto
        return total


class Sampler:
    """This file run as a sampler process, for as long as the ``with`` block."""

    def __enter__(self) -> "Sampler":
        self.process = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()

    def samples(self) -> List[Sample]:
        """Stop sampling and return every sample taken."""
        output, _ = self.process.communicate("", timeout=60)
        return [(t, dt) for t, dt in json.loads(output)]


def sample_until_stdin_closes() -> List[Sample]:
    """Time the kernel on each vCPU in turn until standard input closes.

    The sampler asks for a higher scheduling priority where the system
    allows it, so that a busy benchmark does not delay the kernel and
    pass for a slow host.
    """
    try:
        os.nice(-10)
    except OSError as error:
        print(f"note: calibration sampler runs at normal priority ({error})",
              file=sys.stderr)
    cpus = sorted(os.sched_getaffinity(0))
    samples: List[Sample] = []
    while True:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            samples.append((time.perf_counter(), kernel_s()))
        readable, _, _ = select.select([sys.stdin], [], [], SAMPLE_PERIOD_S)
        if readable and not sys.stdin.read(1):
            return samples


if __name__ == "__main__":
    print(json.dumps(sample_until_stdin_closes()))
