"""Work-depth model simulation substrate.

Meters the parallel steps the paper assumes (Section 2): a
:class:`WorkDepthTracker` that accounts work and depth of simulated
parallel computations (``add`` for a step, ``parallel()`` /
``flat_parfor`` for parallel composition), the :func:`log2_ceil` depth
helper and the :func:`parallel_semisort` of Algorithm 6, and a
Brent-bound scheduler for simulating multiprocessor running times.
Batched hash-table steps and the other primitives are charged inline
by the algorithms that use them (``docs/cost_model.md``).
"""

from .engine import Cost, WorkDepthTracker
from .primitives import log2_ceil, parallel_semisort
from .scheduler import BrentScheduler, speedup_curve

__all__ = [
    "Cost",
    "WorkDepthTracker",
    "log2_ceil",
    "parallel_semisort",
    "BrentScheduler",
    "speedup_curve",
]
