"""Host speed, measured with a fixed kernel between the benchmark's timings.

On a shared host the same repetition runs up to twice as slow for minutes
at a time while other tenants load the machine; the slowdown is in the
execution itself (CPU time rises with wall time), so it survives any
statistic taken inside one run.  ``Speed.rescale`` divides each timing by
the slowdown that a fixed kernel, timed right before and right after it,
shows against ``REFERENCE_S``.  The kernel does what the package's hot
loops do (per-polygon numpy calls on small arrays, tuple-keyed dict
updates) and never calls the package, so a change to the program cannot
change the yardstick.
"""

import time

import numpy as np

# the kernel's time on an unloaded 2-vCPU Xeon host (the machine the
# benchmark was made on); only ratios of rescaled timings matter
REFERENCE_S = 0.067

_rng = np.random.default_rng(0)
_POLYGONS = [_rng.random((n, 2)) for n in _rng.integers(4, 10, size=400)]


def _kernel():
    seen = {}
    total = 0.0
    for _ in range(2):
        for coords in _POLYGONS:
            nxt = np.roll(coords, -1, axis=0)
            tangents = nxt - coords
            lengths = np.linalg.norm(tangents, axis=1)
            normals = np.column_stack((tangents[:, 1], -tangents[:, 0])) / lengths[:, None]
            grad = normals.T * lengths
            local = grad.T @ grad + np.eye(len(coords))
            ids = np.arange(len(coords))
            grid = np.meshgrid(ids, ids, indexing="ij")
            total += float(local.sum()) + grid[0].size
            for x, y in coords:
                key = (round(x, 10), round(y, 10))
                seen[key] = seen.get(key, 0) + 1
    return total


def kernel_s() -> float:
    """Fastest of three kernel runs: a stall shorter than one run, which a
    repetition of seconds hardly feels, does not count as a slowdown."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Speed:
    """Rescales timings to the host's reference speed."""

    def __init__(self):
        _kernel()                     # warm-up, not measured
        self.last = kernel_s()
        self.kernel_samples = [self.last]

    def rescale(self, seconds: float) -> float:
        """Rescale a timing that ended just now, by the mean of the kernel
        times right before it and right after it."""
        after = kernel_s()
        self.kernel_samples.append(after)
        factor = REFERENCE_S / (0.5 * (self.last + after))
        self.last = after
        return seconds * factor
