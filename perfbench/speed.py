"""Machine-speed probe, so that run-to-run drift of the host does not read
as a change of the program.

On a shared 2-CPU sandbox the speed one process sees drifts by up to 2x
over a few seconds, and CPU time tracks wall time, so the same code spreads
by 10-40 % between runs.  The probe runs a fixed reference computation
(`fractions.Fraction` arithmetic from the standard library, which slows
down with the host the way the package's exact arithmetic does) every
INTERVAL_S in the timed process, and a timed interval is rescaled by how
slowly the reference ran around it:

    normalized = raw * NOMINAL_S / mean(reference times within WINDOW_S)

Reported times are therefore in reference seconds: how long the interval
would take on a host where the reference takes NOMINAL_S.  Work done in
child processes uses a bare interpreter start as its reference instead
(StartupProbe).  Run records keep the raw times as well.

    python perfbench/speed.py import-probe

prints the time of `import greenquadrics.cli` in this fresh interpreter
and the reference time measured right after it (used for `setup_s`).
"""

import time

NOMINAL_S = 3.5e-4  # the reference on the 2-CPU sandbox, Python 3.11
INTERVAL_S = 0.05
WINDOW_S = 0.25
STARTUP_NOMINAL_S = 0.065  # a bare interpreter start on the same sandbox
STARTUP_EVERY = 2


def reference(n: int = 60):
    # imported here so that the import probe does not load `fractions`
    # before it times the package import
    from fractions import Fraction

    ratio, acc = Fraction(3, 7), Fraction(0)
    for i in range(n):
        acc = acc + ratio * Fraction(i, i + 1)
    return acc


def reference_time(repeat: int = 5) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return sum(times) / repeat


def bare_start_s(env=None) -> float:
    """Wall time of a bare `python -c pass`."""
    import subprocess
    import sys

    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the reference on a SIGALRM timer while it is entered.

    `spent` is the probe's own time, to be subtracted from intervals that
    ran in this process.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0
        self._previous = None

    def __enter__(self):
        import signal

        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def between_units(self) -> None:
        """Nothing to do: the timer samples on its own."""

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference()
        d = time.perf_counter() - t0
        self.starts.append(t0)
        self.durations.append(d)
        self.spent += d

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean reference time around [t0, t1] over NOMINAL_S."""
        from bisect import bisect_left, bisect_right

        lo = bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect_right(self.starts, t1 + WINDOW_S)
        window = self.durations[lo:hi] or self.durations[-5:] or [NOMINAL_S]
        return sum(window) / len(window) / NOMINAL_S

    def mean_slowdown(self) -> float:
        return sum(self.durations) / len(self.durations) / NOMINAL_S if self.durations else 1.0


class StartupProbe:
    """The reference for work done in child processes: a bare
    `python -c pass`, started and awaited before every STARTUP_EVERY-th
    unit.  Most of a one-shot command's time is this same interpreter
    start, and it slows down with the host the way the command does, which
    a timer in the waiting parent does not see.  A unit is rescaled by the
    two samples nearest to it.
    """

    def __init__(self):
        self.starts: list[float] = []  # midpoint of each sample
        self.durations: list[float] = []
        self.spent = 0.0  # samples run between units, never inside one
        self._units = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def between_units(self) -> None:
        if self._units % STARTUP_EVERY == 0:
            t0 = time.perf_counter()
            d = bare_start_s()
            self.starts.append(t0 + d / 2)
            self.durations.append(d)
        self._units += 1

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean of the samples just before and after [t0, t1] over STARTUP_NOMINAL_S."""
        from bisect import bisect_left

        i = bisect_left(self.starts, (t0 + t1) / 2)
        near = self.durations[max(0, i - 1):i + 1]
        return sum(near) / len(near) / STARTUP_NOMINAL_S

    def mean_slowdown(self) -> float:
        return sum(self.durations) / len(self.durations) / STARTUP_NOMINAL_S if self.durations else 1.0


def import_probe() -> None:
    t0 = time.perf_counter()
    import greenquadrics.cli  # noqa: F401

    elapsed = time.perf_counter() - t0
    print(elapsed, reference_time())


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["import-probe"]:
        raise SystemExit("usage: python perfbench/speed.py import-probe")
    import_probe()
