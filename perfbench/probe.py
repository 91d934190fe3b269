"""Machine-speed sampling, so timings taken minutes apart stay comparable.

The machine this benchmark was built on (a 2-vCPU x86-64 VM) runs the
same code up to about 1.8x slower for stretches of seconds to minutes,
because of load outside the process. Wall times taken in different runs
therefore differ by more than the benchmark's bounds allow.

A `SpeedSampler` times a fixed probe task every PERIOD_S of wall time,
from a SIGALRM handler, while the benchmark measures. The probe mixes the
kinds of work the engine does: interpreter-bound small numpy calls,
row-wise array arithmetic and JSON encoding. It uses no code from
`chunkattn`, so a change to the engine cannot change it. A measured
interval is reported twice: as wall time less the probes that ran inside
it, and that time scaled by REFERENCE_S over the mean duration of the
probes during and around it. The second is the time the same work takes
when the machine runs the probe in REFERENCE_S.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import signal
import time

import numpy as np

# Probe duration on the reference machine at full speed (2-vCPU x86-64 VM,
# Python 3.11, numpy 2.4, OpenBLAS 0.3.31).
REFERENCE_S = 0.004
PERIOD_S = 0.2


class Probe:
    """The fixed task whose duration measures the machine's current speed."""

    def __init__(self):
        rng = np.random.default_rng(20240216)
        self.query = rng.normal(size=16)
        self.vectors = [rng.normal(size=16) for _ in range(256)]
        self.rows = rng.normal(size=(4096, 16))
        angles = np.outer(np.arange(1024), 10000.0 ** (-np.arange(0, 16, 2) / 16))
        self.cos = np.concatenate([np.cos(angles)] * 2, axis=1)
        self.sin = np.concatenate([np.sin(angles)] * 2, axis=1)
        self.positions = rng.integers(0, 1024, size=4096)
        self.records = [[i, i % 2, i % 4, [(i * 7 + j) % 97 for j in range(8)]] for i in range(1000)]

    def run(self) -> float:
        acc = 0.0
        for _ in range(6):
            picked = [np.asarray(v, dtype=np.float64) for v in self.vectors]
            order = np.argsort(-(np.stack(picked) @ self.query), kind="stable")[:6]
            acc += float(sorted(set(int(i) for i in order))[0])
        x = self.rows
        cos, sin = self.cos[self.positions], self.sin[self.positions]
        rot = x * cos + np.concatenate([-x[:, 8:], x[:, :8]], axis=1) * sin
        acc += float(np.einsum("td,td->t", rot, x)[0])
        acc += len(json.dumps(self.records, separators=(",", ":")))
        return acc


class SpeedSampler:
    """Runs the probe periodically while started and keeps each probe's
    (start, duration) in nanoseconds of `time.perf_counter_ns`.

    Inside `between_calls()`, a due probe waits for the next `poll()`, so
    that it runs between short timed calls, such as decode steps, rather
    than inside one.
    """

    def __init__(self):
        self.probe = Probe()
        self.samples: list[tuple] = []
        self._previous_handler = None
        self._deferring = False
        self._due = False

    def sample(self) -> None:
        t0 = time.perf_counter_ns()
        self.probe.run()
        self.samples.append((t0, time.perf_counter_ns() - t0))

    def _on_alarm(self, *_signal_args) -> None:
        if self._deferring:
            self._due = True
        else:
            self.sample()

    def poll(self) -> None:
        if self._due:
            self._due = False
            self.sample()

    @contextlib.contextmanager
    def between_calls(self):
        self._deferring = True
        try:
            yield self
        finally:
            self._deferring = False
            self.poll()

    def start(self) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)
        self.sample()

    def measured(self, t0: int, t1: int) -> tuple:
        """(wall s, reference s) of the interval [t0, t1] in ns. Wall time
        excludes probes that ran inside it; the reference time scales it by
        the probes inside plus the nearest one on each side."""
        starts = [start for start, _ in self.samples]
        durations = [duration for _, duration in self.samples]
        i = bisect.bisect_left(starts, t0)
        j = bisect.bisect_left(starts, t1)
        wall = (t1 - t0 - sum(durations[i:j])) / 1e9
        around = durations[max(0, i - 1) : j + 1]
        if not around:
            raise ValueError("no speed probe near the interval")
        return wall, wall * REFERENCE_S / (sum(around) / len(around) / 1e9)
