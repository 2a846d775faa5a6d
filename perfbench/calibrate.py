"""Reference work that tracks the machine's current speed.

On a shared machine the CPU runs faster or slower for spells of seconds to
minutes, by up to a third, as other tenants come and go; CPU time does not
remove this.  The benchmark runs this fixed piece of work between ops and
reports each op's time scaled by the reference work's time next to it:

    reference time = op CPU time * REF_S / (reference work CPU time nearby)

The work mirrors what the ops spend their time on (numpy calls on tiny
matrices from Python) and does not touch quadcone, so a change to the
program changes the scaled times and a change of machine speed does not.
Measured on a shared 2-core virtual machine, 50 s of one repeated decide
op ranged over 3.1-5.3 ms raw and 2.80-2.96 ms at reference speed.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Median CPU time of reference_work() on the machine the benchmark was
# defined on, at its usual speed; it only sets the scale of reported times.
REF_S = 1.0e-3
_RNG = np.random.default_rng(20071006)
_A = _RNG.standard_normal((4, 4))
_A = _A + _A.T
_B = _RNG.standard_normal((2, 2)) + 1j * _RNG.standard_normal((2, 2))


def reference_work() -> None:
    for _ in range(35):
        np.linalg.eigvalsh(_A)
        np.linalg.norm(_B, 2)
        _B.T @ _B @ _B.conj().T
        np.zeros((2, 2), dtype=complex)


def measure() -> float:
    """CPU seconds of one reference_work() on this thread."""
    t0 = time.thread_time()
    reference_work()
    return time.thread_time() - t0


class SpeedLog:
    """Reference-work times interleaved with ops, indexed by op sequence number."""

    WINDOW = 4  # reference samples taken on each side of an op

    def __init__(self, every_s: float = 0.02):
        self.every_s = every_s
        self.at: list[int] = []
        self.cost: list[float] = []
        self._since = every_s

    def after_op(self, seq: int, op_s: float) -> None:
        """Take a reference sample after op seq once every_s of op time has passed."""
        self._since += op_s
        if self._since >= self.every_s:
            self._since = 0.0
            self.at.append(seq)
            self.cost.append(measure())

    def scale(self, seq: int) -> float:
        """REF_S over the median reference time around op seq."""
        j = bisect.bisect_left(self.at, seq)
        near = self.cost[max(0, j - self.WINDOW): j + self.WINDOW]
        return REF_S / statistics.median(near)
