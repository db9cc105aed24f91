"""Host-speed probe: scales measured times to a fixed reference speed.

The shared host this benchmark was sized on switches between a fast and a
slow state many times a second, and the share of slow time drifts from
minute to minute, so raw wall times of the same code spread by 30% from
run to run.  `HostProbe` runs small fixed kernels on a wall-clock timer
(SIGALRM), in the same thread as the program, and records when each run
started and how long it took.  `Scaler` turns a measured interval into the
time it would have taken at the reference speed, at which each kernel run
takes the kernel's reference time:

    scaled = (interval - probe time inside it) * prod_k (reference_k / mean_k) ** weight_k

where mean_k is the mean time of kernel k's runs near the interval.
Interpreter-bound code and big-integer code slow down by different
factors, and which one suffers more changes with what else runs on the
host, so each workload weights the kernels by the kind of work its ops
do: `small` steps a rational recurrence on small operands, and `big`
multiplies two integers of about 8000 digits.  The kernels do not call the
program, so a faster program still gives a smaller scaled time.
"""

from __future__ import annotations

import bisect
import math
import signal
import time
from fractions import Fraction

TICK_S = 0.01
_STEP = (Fraction(1, 2), Fraction(-3, 4))
_BIG = (3**16000 + 1, 7**9500 + 5)


def small_kernel() -> Fraction:
    """Eight steps of the rational recurrence w(n+1) = a w(n) + b w(n-1)."""
    a, b = _STEP
    w, w_prev = Fraction(1), Fraction(0)
    for _ in range(8):
        w, w_prev = a * w + b * w_prev, w
    return w


def big_kernel() -> int:
    a, b = _BIG
    return a * b


# kernel name -> (kernel, its reference time, ticks between its runs).  A
# reference time is about the kernel's mean on the 2-core sizing box, so
# scaled times read close to that box's wall times.  Each kernel takes
# about 1% of the run.
KERNELS = {"small": (small_kernel, 60e-6, 1), "big": (big_kernel, 550e-6, 5)}
# Runs of a kernel within this many of its intervals of a measured
# interval also describe it, so a short op is judged by about ten runs.
PAD_RUNS = 5


class HostProbe:
    """Runs every kernel on the timer while started; `runs[name]` holds
    each run's (perf_counter start, length)."""

    def __init__(self) -> None:
        self.runs: dict[str, list[tuple[float, float]]] = {name: [] for name in KERNELS}
        self.ticks = 0

    def _fire(self, signum, frame) -> None:
        self.ticks += 1
        for name, runs in self.runs.items():
            kernel, _, every = KERNELS[name]
            if self.ticks % every == 0:
                start = time.perf_counter()
                kernel()
                runs.append((start, time.perf_counter() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Scaler:
    """Scales the intervals of one pass by the probe runs it recorded
    ({kernel name: [(start, length), ...]}, each sorted by start), with
    the kernels weighted by `weights`; no weights leave times unscaled."""

    def __init__(self, weights: dict[str, float], runs: dict[str, list]) -> None:
        self.weights = weights
        self.starts = {name: [r[0] for r in kernel_runs] for name, kernel_runs in runs.items()}
        self.lengths = {name: [r[1] for r in kernel_runs] for name, kernel_runs in runs.items()}

    def scaled(self, begin: float, end: float) -> float:
        """Seconds of [begin, end], less the probe runs inside it, at the
        reference speed.  Raises ValueError if a weighted kernel never ran
        near it."""
        own = end - begin
        for name, starts in self.starts.items():
            inside = self.lengths[name][bisect.bisect_left(starts, begin):
                                        bisect.bisect_right(starts, end)]
            own -= sum(inside)
        log_factor = 0.0
        for name, weight in self.weights.items():
            _, reference, every = KERNELS[name]
            starts, lengths = self.starts[name], self.lengths[name]
            pad = PAD_RUNS * every * TICK_S
            near = lengths[bisect.bisect_left(starts, begin - pad):
                           bisect.bisect_right(starts, end + pad)]
            if not near:
                raise ValueError(f"no {name} probe ran within {pad} s of [{begin}, {end}]")
            log_factor += weight * math.log(reference * len(near) / sum(near))
        return own * math.exp(log_factor)
