"""Times at a reference machine speed, from a calibration loop run alongside.

The shared host this benchmark was made on changes speed by up to a factor
of two, in phases of 5-10 s, and drifts over minutes; process time tracks
wall time, so the loss is not scheduling (NOTES.md, "Noise").  A run of
40 s cannot average that away: the raw wall time of one workload spread by
0.15-0.27 of its median over ten runs, more than a bound can allow.

So a worker measures the machine's speed while it works.  ``Clock.start``
sets a ``SIGALRM`` interval timer; every ``PERIOD_S`` the handler times a
fixed pure-Python loop of ``KERNEL_N`` iterations (about 3 ms).  Each
stretch of the worker's own work between two samples is then scaled by
``REF_KERNEL_S`` over the median duration of the samples around it, and
the samples' own time is left out.  A time reported this way is the time
the work would take on a machine on which the loop takes ``REF_KERNEL_S``,
the median it took on the machine measured in NOTES.md, so values read
close to wall time there.  The loop is benchmark code, identical on every
commit measured, and touches a few kilobytes, so it does not evict the
program's data.  Over five runs of each workload the scaling narrowed the
quartile spread of one worker's wall time from 0.19-0.22 to 0.04-0.11.

``Clock.raw`` gives the same interval in plain seconds, calibration time
left out; a clock that was never started has no samples, and both
methods then give plain seconds.
"""

import signal
import statistics
import time

PERIOD_S = 0.125       # time between calibration samples
KERNEL_N = 40_000      # iterations of the calibration loop
REF_KERNEL_S = 3.0e-3  # reference duration of the loop
SMOOTH = 2             # samples on each side in a factor's median


def kernel():
    """The calibration loop: fixed interpreter work, no memory traffic."""
    x = 0
    for i in range(KERNEL_N):
        x += i * i
    return x


class Clock:
    """Calibration samples ``(start, duration)`` taken while a worker runs."""

    def __init__(self):
        self.samples = []
        self._factors = None

    def _sample(self, *_):
        t = time.perf_counter()
        kernel()
        self.samples.append((t, time.perf_counter() - t))

    def start(self):
        """Take one sample now, then one every ``PERIOD_S``."""
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _factor(self, j):
        """Speed factor around sample ``j``, smoothed over its neighbours."""
        if self._factors is None:
            d = [s[1] for s in self.samples]
            self._factors = [
                REF_KERNEL_S / statistics.median(
                    d[max(0, k - SMOOTH):k + SMOOTH + 1])
                for k in range(len(d))]
        return self._factors[j]

    def raw(self, a, b):
        """Seconds of work in ``[a, b]``, calibration time left out."""
        return (b - a) - sum(d for t, d in self.samples if a <= t < b)

    def scaled(self, a, b):
        """Reference-speed seconds of the work in ``[a, b]``.

        Each stretch of work is scaled by the factor of the sample that
        ends it; the stretch after the last sample inside ``[a, b]`` by
        that of the next sample, or of the last one taken.  Samples do not
        straddle ``a`` or ``b``: both are read outside the handler.
        """
        if not self.samples:
            return b - a
        total, prev = 0.0, a
        for j, (t, d) in enumerate(self.samples):
            if t < a:
                continue
            if t >= b:
                return total + (b - prev) * self._factor(j)
            total += (t - prev) * self._factor(j)
            prev = t + d
        return total + (b - prev) * self._factor(len(self.samples) - 1)
