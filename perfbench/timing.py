"""Op timing that holds still on a box whose speed swings.

The box this benchmark was built on runs a fixed pure-Python loop in 0.11 s
or 0.17 s depending on its neighbours' load, in phases of seconds to a
minute, so a 30 s run can be 20% slower than the next one.  A run therefore
times a short calibration loop before every op (and after the last) and
scales each op's wall time by ``REFERENCE_S`` over the median of the
calibration samples around it.  After a long op the loop runs for a share
of the op's time, so the few seconds-long ops that carry a run's total are
scaled by many samples, not by one.  A scaled time is what the op would take on
the box at its reference speed; a change to the program moves it, a change
of the neighbours' load does not.

Percentiles are Harrell–Davis estimates: a Beta-weighted mean of all order
statistics.  A single order statistic jumps between far-apart neighbours
when costs near the percentile are sparse (the census cost grows like
(2D+1)^rank); the weighted mean moves smoothly.
"""

from __future__ import annotations

import gc
import math
from time import perf_counter

# ``statistics`` is imported where it is used: a cold set-up imports this
# module first, and ``statistics`` would pull in modules the package under
# test imports too (``fractions``), which the set-up must load itself.

# iterations of the three parts of the calibration loop, about 0.6 ms each
CALIBRATION_ARITHMETIC = 7_000
CALIBRATION_CALLS = 4_000
CALIBRATION_OBJECTS = 700
# the calibration loop's time at the reference speed; any fixed value works,
# since only ratios between runs matter
REFERENCE_S = 1.5e-3
# after an op, calibration runs for this share of the op's time
BURST_SHARE = 0.02


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y


def _step(a: int, b: int) -> int:
    return (a * 3 + b) % 101


def calibration_sample() -> float:
    """Time a fixed mix of interpreter work: small-integer arithmetic,
    function calls, and building objects, tuples, a set and a dict.

    The box's load slows these three kinds of work by different amounts,
    and the program's ops mix them, so one kind alone mis-scales.  The
    collector is off while it runs, so a collection of the program's
    objects never lands in a sample.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    acc = 0
    for i in range(CALIBRATION_ARITHMETIC):
        acc += i * i % 7
    for i in range(CALIBRATION_CALLS):
        acc = _step(acc, i)
    seen, table = set(), {}
    for i in range(CALIBRATION_OBJECTS):
        p = _Point(i % 37, i % 41)
        key = (p.x, p.y, i & 7)
        if key not in seen:
            seen.add(key)
            table[key] = [p.x * p.y]
    elapsed = perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def calibration_burst(after_s: float) -> list[float]:
    """Calibration samples for ``BURST_SHARE`` of ``after_s``, at least one."""
    out = [calibration_sample()]
    spent = out[0]
    while spent < BURST_SHARE * after_s:
        out.append(calibration_sample())
        spent += out[-1]
    return out


def scale(latencies: list[float], bursts: list[list[float]]) -> list[float]:
    """Scale op i by the calibration samples taken around it.

    ``bursts[i]`` was taken just before op i and ``bursts[i + 1]`` just
    after it; the median of the samples of those two bursts and of one more
    on each side sets the factor, so one disturbed sample does not.
    """
    import statistics

    return [
        lat * REFERENCE_S / statistics.median([x for b in bursts[max(0, i - 1): i + 3] for x in b])
        for i, lat in enumerate(latencies)
    ]


def timed_scaled(fn):
    """Run ``fn`` between calibration samples; return (result, scaled s, wall s)."""
    before = [calibration_sample() for _ in range(3)]
    t0 = perf_counter()
    out = fn()
    wall = perf_counter() - t0
    after = [calibration_sample() for _ in range(3)]
    import statistics

    return out, wall * REFERENCE_S / statistics.median(before + after), wall


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell–Davis estimate of the p-quantile of ``values``."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    per = 32  # midpoint-rule steps per order statistic
    h = 1.0 / (n * per)
    weights = []
    for i in range(n):
        w = 0.0
        for k in range(per):
            x = (i * per + k + 0.5) * h
            w += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights.append(w * h)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)
