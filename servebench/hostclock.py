"""Host-speed-corrected timing: the clock the end-to-end figures use.

The benchmark's host is a shared VM whose speed drifts by 20-30% over
seconds to minutes, and by up to 2x between the busiest and the quietest
minutes, while its other tenants come and go.  Nothing the program does
causes that drift, yet it moves every raw host-clock figure by more than
a regression worth catching.  Most of the drift is common-mode, though:
code with the same mix of work slows down together.

So the run times a fixed reference kernel, owned by the benchmark and
independent of the program, in short slices interleaved with serving.
Each slice measures how slow the host is at that moment relative to
the kernel's nominal duration (:data:`REF_SLICE_S`).  Afterwards every
raw timestamp is mapped onto *reference seconds*: the host time between
two slices is divided by the local slowdown (the median over the
nearest slices), and the slices themselves take no reference time.  A
change that makes the program faster or slower moves reference seconds
as it moves host seconds; host drift largely cancels.  The unit is
pinned by :data:`REF_SLICE_S`, so reference seconds read roughly as the
seconds of the host the README names, at its typical speed.
"""

from __future__ import annotations

import bisect
import time
from statistics import median
from typing import Callable, List, Tuple

import numpy as np

clock = time.perf_counter

#: Nominal duration of one slice, in seconds, by the kernel's row count.
#: The 16-row value is the median slice of the first runs on the host the
#: README names; the others were timed beside it and scaled to the same
#: host speed.  They only fix the unit; they never change during a run or
#: between runs.
REF_SLICE_S = {1: 0.00026, 8: 0.00077, 16: 0.00136}

#: Minimum host time between two slices during serving.  A slice costs
#: two kernel calls, so at this spacing slices take at most about 5% of
#: the run.
SLICE_PERIOD_S = 0.05

#: Slices on each side of a gap whose durations set the gap's slowdown.
NEIGHBOURS = 4

#: Slices in a burst (the start and end of a phase, around a stack build).
BURST = 2 * NEIGHBOURS

_D, _HEADS, _CONTEXT, _LAYERS, _MAX_ROWS = 48, 4, 32, 3, 16


def _weights():
    rng = np.random.default_rng(0)
    shapes = (("qkv", (_D, 3 * _D)), ("out", (_D, _D)),
              ("up", (_D, 4 * _D)), ("down", (4 * _D, _D)))
    layers = [{name: rng.standard_normal(shape) / np.sqrt(shape[0])
               for name, shape in shapes} for _ in range(_LAYERS)]
    kv = rng.standard_normal((2, _MAX_ROWS, _HEADS, _CONTEXT, _D // _HEADS))
    return layers, kv, rng.standard_normal((_MAX_ROWS, _D))


_LAYERS_W, _KV, _X = _weights()


def _norm(x):
    centred = x - x.mean(axis=-1, keepdims=True)
    return centred / np.sqrt((centred ** 2).mean(axis=-1, keepdims=True)
                             + 1e-5)


def reference_kernel(rows: int) -> np.ndarray:
    """One decode step of a small pre-norm transformer written here, not
    taken from the program: ``rows`` rows, width 48, 3 layers, 4 heads
    over a 32-position cache.  It has the serving stack's mix of many
    small NumPy calls, which is what makes it slow down with the host as
    the program does.  A kernel of bare matrix products or of pure-Python
    dictionary work swung twice as far as the program did when the host's
    speed changed; this one tracks it when its rows match the requests
    the workload keeps in flight (README.md, "Reference seconds")."""
    keys, values = _KV[:, :rows]
    head = _D // _HEADS
    x = _X[:rows]
    for w in _LAYERS_W:
        q = (_norm(x) @ w["qkv"])[:, :_D].reshape(rows, _HEADS, 1, head)
        scores = np.matmul(q, keys.transpose(0, 1, 3, 2)) / np.sqrt(head)
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights /= weights.sum(axis=-1, keepdims=True)
        x = x + np.matmul(weights, values).reshape(rows, _D) @ w["out"]
        up = _norm(x) @ w["up"]
        up = 0.5 * up * (1.0 + np.tanh(0.79788456 * (up + 0.044715 * up ** 3)))
        x = x + up @ w["down"]
    return x


class HostClock:
    """Records reference slices while the run serves; converts host
    timestamps to reference seconds afterwards."""

    def __init__(self, rows: int):
        self.rows = rows
        self.nominal = REF_SLICE_S[rows]
        self.slices: List[Tuple[float, float]] = []

    def slice(self) -> None:
        """Time one kernel call.  An untimed call first warms the caches
        that the program's work evicted, so the slice measures the host,
        not what ran before it."""
        reference_kernel(self.rows)
        start = clock()
        reference_kernel(self.rows)
        self.slices.append((start, clock()))

    def burst(self) -> None:
        for _ in range(BURST):
            self.slice()

    def maybe_slice(self) -> None:
        """Take a slice if :data:`SLICE_PERIOD_S` has passed since the
        last one; serving calls this between iterations or requests."""
        if not self.slices or clock() - self.slices[-1][1] >= SLICE_PERIOD_S:
            self.slice()

    def slowdowns(self) -> List[float]:
        """Each slice's duration over its nominal duration."""
        return [(end - start) / self.nominal for start, end in self.slices]

    def converter(self) -> Callable[[float], float]:
        """A map from host timestamps to reference seconds.

        Time inside a slice maps to the slice's start.  The gap between
        slices ``j`` and ``j + 1`` advances at ``1 / slowdown``, the
        median over slices ``j - NEIGHBOURS + 1 .. j + NEIGHBOURS``.
        Stamps before the first slice or after the last use the nearest
        gap's slowdown.
        """
        if len(self.slices) < 2:
            raise ValueError("need at least two reference slices")
        slow = self.slowdowns()
        n = len(self.slices)
        rates = [median(slow[max(0, j - NEIGHBOURS + 1):j + NEIGHBOURS + 1])
                 for j in range(n - 1)]
        bounds, refs = [], []
        ref = 0.0
        for j, (start, end) in enumerate(self.slices):
            if j:
                ref += (start - self.slices[j - 1][1]) / rates[j - 1]
            bounds += [start, end]
            refs += [ref, ref]
        first, last = bounds[0], bounds[-1]

        def convert(t: float) -> float:
            if t < first:
                return (t - first) / rates[0]
            if t > last:
                return refs[-1] + (t - last) / rates[-1]
            # Bounds rise strictly: a warm-up call separates every slice
            # from the one before it.
            i = bisect.bisect_right(bounds, t)
            if i >= len(bounds):
                return refs[-1]
            lo, hi = bounds[i - 1], bounds[i]
            return refs[i - 1] + (refs[i] - refs[i - 1]) * (t - lo) / (hi - lo)

        return convert

    def elapsed(self, start: float, end: float) -> float:
        """Reference seconds between two host timestamps."""
        convert = self.converter()
        return convert(end) - convert(start)
