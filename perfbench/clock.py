"""A clock calibrated against the speed of the machine it runs on.

On a shared host the speed of one core can drop by half for seconds at a
time, as other tenants come and go, and it moves pure-Python loops and
small numpy calls together. The clock cancels that: it splits the measured work into
segments, times a fixed reference kernel between them, and scales each
segment's wall time by REF_NOMINAL_S over the mean of the reference times
on either side of it. A calibrated second is a second on a machine that runs
the reference kernel in REF_NOMINAL_S. The kernel is frozen here, outside
the program, so a change to the program moves only the segments.
"""

import bisect
import time

import numpy as np

REF_NOMINAL_S = 0.010       # the reference kernel's time on the machine a calibrated second means


class Reference:
    """The fixed kernel: a loop of numpy slice sums and argmax, then a loop of
    bisections into a sorted list, the two kinds of work the solvers do."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a, self.b = rng.random(2001), rng.random(2001)
        self.sorted = sorted(rng.random(5000).tolist())
        self.samples = []

    def sample(self) -> float:
        t = time.perf_counter()
        acc = 0
        for level in range(0, 2001, 2):
            acc += int(np.argmax(self.a[level::-1][:level + 1] + self.b[:level + 1]))
        for i in range(20000):
            acc += bisect.bisect_left(self.sorted, i / 20000.0)
        seconds = time.perf_counter() - t
        self.samples.append(seconds)
        return seconds


class Clock:
    """Calibrated time of the segments between `mark` calls since `start`.

    `wall` and `total` sum the raw and calibrated segment times; the
    reference's own time is in neither. `factors` holds each segment's scale.
    """

    def __init__(self, reference: Reference):
        self.reference = reference

    def start(self) -> None:
        self.wall = self.total = 0.0
        self.factors = []
        self.before = self.reference.sample()
        self.t = time.perf_counter()

    def mark(self) -> float:
        """Close the running segment; its calibrated seconds."""
        wall = time.perf_counter() - self.t
        after = self.reference.sample()
        factor = REF_NOMINAL_S / (0.5 * (self.before + after))
        self.wall += wall
        self.total += wall * factor
        self.factors.append(factor)
        self.before = after
        self.t = time.perf_counter()
        return wall * factor
