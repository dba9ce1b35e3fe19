"""Host-speed probe for the timed metrics.

On a shared host the speed of one core drifts by up to about 1.6x from one
half-minute to the next, the same for every op, so wall times of identical
work differ more between runs than a regression worth catching.  The
benchmark therefore times a fixed kernel of interpreter and small numpy
work (the mix the package itself runs) next to every timed interval and
rescales the interval by ``REFERENCE_S / kernel time``: the result is the
interval on a host that runs the kernel in ``REFERENCE_S``.  The kernel
lives here, not in the package, so a change to the package cannot move it;
a change that makes the package slower shows in full.  Raw wall times are
printed next to the rescaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# A typical kernel time on the 2-core VM the first baseline was measured on
# (its medians over half-minute runs ranged 0.36-0.44 ms).  Fixed for good:
# changing it would rescale every timed metric.
REFERENCE_S = 4.0e-4

WINDOW = 3

_A = np.random.default_rng(0).normal(size=(30, 12))
_B = _A[:, :3].copy()


def _kernel_s() -> float:
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(400):
        d[i % 41] = d.get(i % 41, 0) + 2 * i
    sorted(d.values(), reverse=True)
    for _ in range(3):
        np.linalg.lstsq(_A, _B, rcond=None)
        np.linalg.svd(_A.T @ _A)
    return time.perf_counter() - t0


def probe() -> list[float]:
    """Kernel times of three back-to-back runs, in seconds."""
    return [_kernel_s() for _ in range(3)]


def warm_up() -> None:
    """Run the kernel for 0.2 s, so that the first probes are not cold."""
    end = time.perf_counter() + 0.2
    while time.perf_counter() < end:
        _kernel_s()


def scales(probes: list[list[float]]) -> list[float]:
    """Factors taking wall times to reference host speed.

    Interval ``i`` lies between ``probes[i]`` and ``probes[i + 1]``; its
    factor comes from the median kernel time of the ``WINDOW`` probes on
    each side of it, which follows the host's drift over seconds without
    the jitter of a single probe.
    """
    out = []
    for i in range(len(probes) - 1):
        near = [t for p in probes[max(0, i + 1 - WINDOW):i + 1 + WINDOW] for t in p]
        out.append(REFERENCE_S / statistics.median(near))
    return out
