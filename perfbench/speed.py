"""Machine-speed sampling: the benchmark's times in seconds at a reference speed.

On a shared host the speed of a core drifts by tens of percent, both from
one tenth of a second to the next and over minutes; CPU time tracks wall
time, so the drift is the machine's, not the scheduler's.  So while the
benchmark runs, a sampler thread times a fixed piece of pure-Python work
(`probe_unit`, independent of ckpoints) every PROBE_INTERVAL seconds, and
each timed call is scaled by how much slower than the reference the probes
taken during it ran:

    t_ref = t_wall * PROBE_REF / (trimmed mean probe time during the call)

A t_ref is the time the call would have taken on a machine where one probe
unit takes PROBE_REF seconds.  A change to ckpoints does not change the
probe, so it moves t_ref exactly as it moves the wall time.

A unit takes about a millisecond, well under the interpreter's 5 ms switch
interval, so once the sampler holds the GIL it finishes the unit before the
main thread can take the GIL back: a sample is the core's speed at that
moment, not a share of the main thread's work.  Before each unit the
sampler moves itself to the CPU the main thread last ran on, because the
two vCPUs of a shared host can run at different speeds, and a probe on the
idle one would time the wrong core.  The garbage collector is off during a
unit, so that a collection of the main thread's heap does not land in it.
The sampler costs the timed code about 2% of its time, the same in every
run.
"""

from __future__ import annotations

import gc
import math
import os
import statistics
import threading
import time
from fractions import Fraction

# seconds one probe unit takes at the reference speed (a round value near the
# median of CPython 3.11 on the 2-vCPU host the bounds were set on)
PROBE_REF = 0.001
PROBE_INTERVAL = 0.05
# a window with fewer samples than this borrows the nearest ones
MIN_SAMPLES = 5
# share of a window's probes dropped at each end before averaging
TRIM = 0.1

_M = 7**20

# a pool worker forked while a probe runs must not inherit the collector off
os.register_at_fork(after_in_child=gc.enable)


def _pmul(a: list[int], b: list[int], m: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % m for c in out]


def probe_unit() -> int:
    """A fixed mix of the work ckpoints does: p-adic polynomial products
    (Frobenius, Coleman) and small Fraction and isqrt arithmetic (the point
    search).  Returns a checksum so the work cannot be skipped."""
    a = [(i * 7919 + 11) % _M for i in range(12)]
    b = [(i * 104729 + 3) % _M for i in range(12)]
    for _ in range(10):
        a = _pmul(a, b, _M)[:12]
    s = Fraction(0)
    roots = {}
    for k in range(1, 100):
        q = Fraction(k * k + 1, 2 * k + 3)
        s += q if k % 7 else -q
        s = Fraction(s.numerator % 1_000_003, s.denominator % 997 + 1)
        roots[k % 97] = math.isqrt(k * 12345 + 1)
    return (a[0] + s.numerator + sum(roots.values())) % 1_000_003


class SpeedSampler:
    """Times `probe_unit` every PROBE_INTERVAL seconds on a daemon thread.

    Use it as a context manager around the timed code; `samples` holds
    (start, seconds) pairs.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._main = threading.get_native_id()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        me = threading.get_native_id()
        while not self._stop.wait(PROBE_INTERVAL):
            _follow(me, self._main)
            # a collection would walk the main thread's heap inside the probe
            gc.disable()
            try:
                t0 = time.perf_counter()
                probe_unit()
                t1 = time.perf_counter()
            finally:
                gc.enable()
            self.samples.append((t0, t1 - t0))

    def to_ref(self, t0: float, t1: float) -> float:
        """The wall time from t0 to t1, in seconds at the reference speed."""
        return to_ref(t1 - t0, window(list(self.samples), t0, t1))


def _follow(tid: int, target: int) -> None:
    """Pin thread `tid` to the CPU thread `target` last ran on; where Linux's
    /proc or per-thread affinity is not there, leave it where it is."""
    try:
        with open(f"/proc/self/task/{target}/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(tid, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        pass


def window(samples: list[tuple[float, float]], t0: float, t1: float) -> list[float]:
    """The probe times of the samples started in [t0, t1]; at least MIN_SAMPLES,
    the nearest to the window's middle, when it holds fewer."""
    inside = [s for ts, s in samples if t0 <= ts <= t1]
    if len(inside) >= MIN_SAMPLES:
        return inside
    mid = (t0 + t1) / 2
    return [s for _, s in sorted(samples, key=lambda p: abs(p[0] - mid))[:MIN_SAMPLES]]


def to_ref(seconds: float, probes: list[float]) -> float:
    """A wall time, scaled by the probe times taken during it to the reference
    speed.  The probes are averaged with the slowest and fastest TRIM of them
    left out, so that one preempted probe cannot swing the scale."""
    probes = sorted(probes)
    k = int(len(probes) * TRIM)
    return seconds * PROBE_REF / statistics.fmean(probes[k : len(probes) - k])
