"""The machine's speed, from a fixed pure-Python kernel timed next to each measurement.

The shared machine the benchmark runs on changes speed by up to 1.8x over
spells of seconds to minutes, for every process on it alike: a 150 s probe
that timed this kernel and a 3 x 1024 wide-ket operation in turn saw both
move together, their ratio staying within 10% over 10 s windows while each
moved by 80%. So every timed measurement is taken between two kernel
samples and reported at the reference speed:

    scaled = measured * REFERENCE_S / mean(sample before, sample after)

The kernel is benchmark code, so no change to the program moves it; it
allocates one container, so it does not drive the garbage collector over
the program's objects.
"""

from __future__ import annotations

import time

# Kernel time at the reference speed, a round value inside the range of its
# per-run medians (3.0 to 4.6 ms) on a 2-vCPU x86_64 VM with Python 3.11.
# Scaled times are in seconds at that speed.
REFERENCE_S = 0.004


def _kernel() -> None:
    acc = 0j
    step = 0.5 + 0.25j
    for i in range(20000):
        acc = acc * 0.999 + step * (i & 7)
    table = {}
    for i in range(5000):
        table[str(i)] = i


def sample() -> float:
    """Seconds the kernel takes now: the faster of two runs, so one preemption does not count."""
    times = []
    for _ in range(2):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return min(times)


def scale(measured: list[float], samples: list[float]) -> list[float]:
    """``measured[i]`` at the reference speed, from the samples either side of it.

    ``samples`` holds one more value than ``measured``: ``samples[i]`` was
    taken just before ``measured[i]`` and ``samples[i + 1]`` just after.
    """
    return [t * 2.0 * REFERENCE_S / (before + after)
            for t, before, after in zip(measured, samples, samples[1:])]
