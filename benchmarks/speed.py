"""Machine-speed samples, taken while a timed run works.

The benchmark's machine is shared, and its speed drifts: the same fixed
work takes up to 1.6 times as long from one stretch of seconds to the next,
in CPU time as much as in wall time. A single timing per run cannot tell a
slower program from a slower machine.

So every timed run is sampled: once when it starts, then whenever a
SIGALRM interval timer interrupts it, every ``PERIOD_S`` seconds of wall
time. A sample times one ``probe()``: a fixed piece of work, about a
millisecond long, made of the three kinds of work the program does. Those
are small matrix products through numpy, a tape of small Python objects
with closures, and chains of numpy operations on short vectors. Each kind
alone tracked one workload worse than the mix (README.md, Steadiness).
Forked pool workers start their own timer, so the samples follow the work
into the pool. Each process appends its durations to one file.

``speed(durations)`` is the run's mean speed relative to a machine on which
the probe takes ``PROBE_REF_S``. A run's wall time times that speed is its
time at the reference speed: the work the run needed, in seconds. The
probes cost about 1% of each process's time, the same share on every
commit.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path
from statistics import mean

import numpy as np

PERIOD_S = 0.1
PROBE_REF_S = 1e-3  # the reference machine: one probe takes exactly this

_RNG = np.random.default_rng(0)
_W = _RNG.standard_normal((32, 32)) / 6
_X0 = _RNG.standard_normal((32, 32))


class _Node:
    def __init__(self, value, parents, backward):
        self.value = value
        self.parents = parents
        self.backward = backward


def probe() -> float:
    """Time one fixed piece of work; returns its wall time in seconds."""
    t0 = time.perf_counter()
    x = _X0
    for _ in range(20):
        x = np.tanh(x @ _W)
        table = {i: i * 3 for i in range(60)}
        sum(table.values())
    row = _X0[0]
    tape = []
    for i in range(300):
        tape.append(_Node(row, tape[-1:], lambda grad, i=i: grad))
    for node in reversed(tape):
        node.backward(node.value)
    for _ in range(50):
        row = (row * 0.5 + 1.0).clip(-2.0, 2.0)
    return time.perf_counter() - t0


def speed(durations: list[float]) -> float:
    """Mean speed over the samples, relative to the reference machine."""
    if not durations:
        raise ValueError("no speed samples were taken")
    return mean(PROBE_REF_S / d for d in durations)


class SpeedSampler:
    """Samples the speed of this process and of every process forked from it."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fd: int | None = None

    def _tick(self, signum, frame) -> None:
        if self._fd is not None:
            os.write(self._fd, b"%.9f\n" % probe())

    def _arm(self) -> None:
        if self._fd is not None:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def start(self) -> None:
        self._fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND)
        signal.signal(signal.SIGALRM, self._tick)
        # a forked child keeps the handler and the file but not the timer
        os.register_at_fork(after_in_child=self._arm)
        self._tick(None, None)  # so that a run shorter than PERIOD_S has a sample
        self._arm()

    def stop(self) -> list[float]:
        """Stop sampling this process; returns every sample written so far."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        os.close(self._fd)
        self._fd = None
        return [float(line) for line in self.path.read_text().split()]
