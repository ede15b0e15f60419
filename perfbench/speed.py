"""A CPU-speed reference, sampled inside the measured process.

On a shared virtual machine the same operation on the same input can take
50% longer a minute later: the host runs other tenants' vCPUs on the same
cores, and that shows as a slower vCPU, not as steal time.  A second
process sampling the speed does not track it (it runs on the other vCPU),
so the samples are taken in the measured process itself.

`Sampler` runs two fixed reference chunks, one pure Python and one small
numpy loop, in turn from a SIGALRM handler every INTERVAL_S.  Neither
allocates: the Python loop stays within the cached small ints and the numpy
loop writes into a preallocated buffer, so the chunks time the vCPU and not
the state of the program's heap.  An interval
of the measured work is then rescaled to the reference speed:

    scaled = (wall time - time spent in chunks) * NOMINAL_S / chunk time

where the chunk time is the geometric mean of the two chunk kinds' median
durations inside the interval.  NOMINAL_S is a fixed constant, about the
chunk time on the 2-vCPU machine where this was written, so scaled times
read as seconds on that machine at its usual speed.  The chunks never
touch the program's state, so outputs do not change.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

INTERVAL_S = 0.025
NOMINAL_S = 0.4e-3
MIN_SAMPLES = 3          # per chunk kind, below which the whole run's samples are used

_numpy = None           # imported by _prepare, after the measured set-up
_ARRAY = _BUFFER = None


def _python_chunk() -> None:
    acc = 0
    for _ in range(4000):
        acc = (acc * 31 + 7) & 255


def _numpy_chunk() -> None:
    for _ in range(40):
        _numpy.exp(_ARRAY, out=_BUFFER)
        _BUFFER.sum()


def _prepare() -> None:
    global _numpy, _ARRAY, _BUFFER
    if _ARRAY is None:
        import numpy
        _numpy, _ARRAY = numpy, numpy.linspace(0.0, 1.0, 4096)
        _BUFFER = numpy.empty_like(_ARRAY)


CHUNKS = (_python_chunk, _numpy_chunk)


def _timed(kind: int) -> tuple[float, float]:
    t0 = time.perf_counter()
    CHUNKS[kind]()
    return t0, time.perf_counter() - t0


def _chunk_s(durations: tuple[list, list]) -> float:
    return math.sqrt(statistics.median(durations[0]) * statistics.median(durations[1]))


def reference_s(repeats: int = 15) -> float:
    """The chunk time measured now, without a timer (for short intervals such as set-up)."""
    _prepare()
    durations = ([], [])
    for _ in range(repeats):
        for kind in (0, 1):
            durations[kind].append(_timed(kind)[1])
    return _chunk_s(durations)


class Sampler:
    """Samples the chunk time every INTERVAL_S while started."""

    def __init__(self) -> None:
        self.samples: tuple[list, list] = ([], [])   # (start, seconds) per chunk kind
        self._next = 0

    def _sample(self, signum, frame) -> None:
        kind, self._next = self._next, 1 - self._next
        self.samples[kind].append(_timed(kind))

    def start(self) -> None:
        _prepare()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def chunk_s(self) -> float:
        """The chunk time over everything sampled so far."""
        return _chunk_s(tuple([d for _, d in kind] for kind in self.samples))

    def scaled(self, start: float, seconds: float) -> float:
        """`seconds` of work from `start`, less the chunks run inside, at the reference speed."""
        inside = tuple([d for t, d in kind if start <= t < start + seconds]
                       for kind in self.samples)
        spent = sum(map(sum, inside))
        if min(map(len, inside)) >= MIN_SAMPLES:
            chunk = _chunk_s(inside)
        else:
            chunk = self.chunk_s()
        return (seconds - spent) * NOMINAL_S / chunk
