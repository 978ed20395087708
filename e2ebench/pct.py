"""Percentile guard and epoch-interval extraction for the benchmark.

Every percentile the benchmark reports goes through :func:`tail_rank`,
which reuses :func:`repro.analysis.stats.min_samples_for` and
:func:`~repro.analysis.stats.guarded_rank` with a stricter floor: at
least :data:`BEYOND` samples must lie beyond the reported rank (p99
needs 1000 samples, p99.9 needs 10000), so a tail figure is never one
outlier wearing a percentile's name.
"""

from __future__ import annotations

import math

from repro.analysis.stats import guarded_rank, min_samples_for

#: samples a reported percentile needs strictly beyond its rank.
BEYOND = 10


def samples_needed(q: float, beyond: int = BEYOND) -> int:
    """Smallest sample size with ``beyond`` samples past percentile ``q``."""
    return beyond * min_samples_for(q)


def tail_rank(values, q: float, beyond: int = BEYOND) -> "float | None":
    """Nearest-rank ``q`` percentile, or ``None`` on too small a sample."""
    vals = list(values)
    n = len(vals)
    # The second test counts positions past the rank exactly as
    # nearest_rank places it (float rounding can cost one position).
    if (n < samples_needed(q, beyond)
            or n - math.ceil(q / 100.0 * n) < beyond):
        return None
    return guarded_rank(vals, q)


def epoch_intervals(takes, epoch_length: int) -> "list[float]":
    """Wall seconds of each planning epoch.

    ``takes`` is the ``(step, wall_time)`` record of every
    ``arrivals.take(step)`` call of one run, in call order.  Both serve
    drivers call ``take`` at each epoch-boundary step (1-based steps
    ``1, 1 + e, 1 + 2e, ...``) before doing that epoch's work, so the
    gaps between consecutive boundary calls are the epochs' wall times.
    """
    marks = [ts for step, ts in takes if (step - 1) % epoch_length == 0]
    return [b - a for a, b in zip(marks, marks[1:])]
