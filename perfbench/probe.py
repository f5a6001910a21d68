"""Measure the host's speed, in a process of its own.

usage: python3 perfbench/probe.py

For every line read from standard input, which holds a CPU number, moves
onto that CPU, runs one fixed piece of benchmark-owned work there and
writes its wall time in seconds as one line.  Exits at the end of input.

The shared hosts this runs on drift in speed by 25 % within a minute, and
their vCPUs need not run at the same speed.  The work mixes the kinds a capture does (NumPy FFTs and
exponentials, and a Python loop of small fancy-indexed adds) so that its
time follows both.  It imports nothing from the library and runs in another
process than the captures, so neither the library's code nor anything a
capture leaves behind in its process (heap, garbage, caches) can change it.
"""

import os
import sys
import time

import numpy as np


def main() -> None:
    rng = np.random.default_rng(0)
    field = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
    index = rng.integers(0, 96, (300, 9))

    def work():
        for _ in range(8):
            spectrum = np.fft.ifft2(np.fft.fft2(field) * np.exp(1j * field.real))
            acc = np.zeros_like(spectrum)
            for r in index:
                acc[np.ix_(r[:3], r[3:6])] += spectrum[np.ix_(r[3:6], r[6:9])]

    work()  # the first run pays one-time set-up inside NumPy
    for line in sys.stdin:
        os.sched_setaffinity(0, {int(line)})
        start = time.perf_counter()
        work()
        print(time.perf_counter() - start, flush=True)


if __name__ == "__main__":
    main()
