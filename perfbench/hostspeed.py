"""Host-speed sampling, so that times measured on a shared host compare.

On a shared host the CPU speed one process gets changes by tens of percent
within seconds (other tenants on the same cores), which swamps the
differences the benchmark exists to show. While the benchmark runs, a
SIGALRM handler on its one thread times a fixed pure-Python probe loop
(no hpavsim code) every ``PERIOD_S``. An interval's reference seconds are
its wall seconds minus the probes run inside it, scaled by ``NOMINAL_S``
over the mean probe time inside it: the seconds it would take on a host
that runs the probe in ``NOMINAL_S``, about an uncontended core of the
machine the benchmark was written on.
"""

import signal
import statistics
from time import perf_counter

PERIOD_S = 0.01
NOMINAL_S = 0.0002


def _probe_loop():
    acc = {}
    for i in range(1500):
        k = i % 97
        acc[k] = acc.get(k, 0) + (i * 3) // 7


class SpeedSampler:
    """Context manager that samples the probe loop's time every ``PERIOD_S``."""

    def __init__(self):
        self.samples = []  # wall seconds of each probe run, in order
        self._previous = None

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_signal_args):
        t0 = perf_counter()
        _probe_loop()
        self.samples.append(perf_counter() - t0)

    def mark(self) -> int:
        return len(self.samples)

    def scaled(self, wall_s: float, mark: int) -> float:
        """Reference seconds of an interval of ``wall_s`` that began at ``mark``."""
        probes = self.samples[mark:]
        if not probes:  # shorter than one period: use the latest sample
            return wall_s * NOMINAL_S / self.samples[-1]
        return (wall_s - sum(probes)) * NOMINAL_S / statistics.mean(probes)
