"""Reference-speed scaling of the timed metrics.

The shared VMs this benchmark runs on change speed by a third or more for
minutes at a time, and CPU time moves with wall time, so the processor itself
runs slower, not only less often.  Such a step moves every timing taken
during it by about the same share.  To keep it out of the metrics, the
worker runs a fixed reference kernel (see KERNELS) in short slices between
ops, and scales each measured time by

    (the kernel's reference time) / (its mean slice time measured around it)

which gives the time the work would have taken at the reference speed.  The
kernel is the benchmark's own code, so a change to the library moves the
scaled metrics as it moves the raw ones; the raw values are kept in the
results file beside them.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

SHARE = 0.03          # reference time run after an op, as a share of the op
SETUP_SLICES = 60     # `objects` slices run after a set-up, to scale it


def _objects():
    x = Fraction(1, 3)
    for i in range(1, 300):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i)


_LARGE = np.random.default_rng(1).standard_normal((160, 160))


def _dense():
    np.linalg.svd(_LARGE)


# Reference kernels: the work of one slice, and its mean time on the
# reference machine (a 2-vCPU Intel Xeon VM, OpenBLAS 0.3.31 on one thread),
# which only fixes the scale of the metrics.  `objects` is Fraction
# arithmetic (interpreter dispatch, small-object allocation, big integers):
# in rounds of line-splitting, fiber-sweep and exact-certify, op time went as
# the 1.0 to 1.15th power of its time, against up to the 1.4th power of an
# integer loop with a 48 x 48 SVD.  `dense`, a 160 x 160 SVD, follows the
# large dense SVDs of bow-dirac, which `objects` does not: scaled by it,
# bow-dirac spread about twice as much over five seeds.
KERNELS = {"objects": (_objects, 2.5e-3), "dense": (_dense, 6.1e-3)}


class Meter:
    """Reference slices run between ops; `factor()` is the kernel's
    reference time over its mean slice time since the last `reset()`."""

    def __init__(self, kernel: str):
        self._work, self._ref_s = KERNELS[kernel]
        self.reset()

    def reset(self):
        self.spent = 0.0
        self.slices = 0

    def _slice(self) -> float:
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start

    def after_op(self, op_s: float):
        """At least one slice, and enough to cover SHARE of the op's time,
        so every stretch of the round is sampled in proportion to its
        length."""
        spent = 0.0
        while True:
            spent += self._slice()
            self.slices += 1
            if spent >= SHARE * op_s:
                break
        self.spent += spent

    def run(self, n: int):
        for _ in range(n):
            self.spent += self._slice()
            self.slices += 1

    def factor(self) -> float:
        return self._ref_s / (self.spent / self.slices)
