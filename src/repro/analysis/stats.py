"""Completion-time statistics and policy comparison helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.worms import WORMSInstance
from repro.dam.validator import validate_valid


def nearest_rank(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample value ``x`` such that
    at least ``q`` percent of the samples are ``<= x``.

    Unlike ``np.percentile``'s default linear interpolation, the result is
    always an observed sample, which is the standard convention for tail
    latency (a reported p99 latency actually happened).  A single-sample
    input returns that sample for every ``q``; an empty input raises
    ``ValueError`` (callers decide what an undefined percentile means).
    """
    _check_percentile(q)
    arr = sort_sample(values)
    if arr.size == 0:
        raise ValueError("nearest_rank of an empty sample is undefined")
    return sorted_rank(arr, q)


def sort_sample(values) -> np.ndarray:
    """``values`` as an ascending float64 array, ready for
    :func:`sorted_rank` (sort once, read any number of ranks)."""
    return np.sort(np.asarray(list(values), dtype=np.float64))


def sorted_rank(arr: np.ndarray, q: float) -> float:
    """The nearest-rank rule of :func:`nearest_rank`, read from a
    non-empty ascending array (:func:`sort_sample`)."""
    _check_percentile(q)
    return float(arr[max(0, math.ceil(q / 100.0 * arr.size) - 1)])


def _check_percentile(q: float) -> None:
    if not (0.0 < q <= 100.0):
        raise ValueError(f"percentile q must be in (0, 100], got {q}")


def min_samples_for(q: float) -> int:
    """Smallest sample size at which a nearest-rank ``q`` is meaningful.

    A tail percentile needs at least one sample *above* the rank it
    reports, i.e. ``n * (100 - q) / 100 >= 1``: p99 needs 100 samples,
    p99.9 needs 1000.  ``q == 100`` (the max) is meaningful at any n.
    """
    _check_percentile(q)
    if q == 100.0:
        return 1
    # Round before ceil: 100 - 99.9 is not exact in binary, and the
    # raw quotient 1000.0000000000057 would demand 1001 samples.
    return math.ceil(round(100.0 / (100.0 - q), 9))


def guarded_rank(values, q: float) -> "float | None":
    """Nearest-rank percentile with an explicit minimum-sample guard.

    Returns ``None`` instead of a silently meaningless rank when the
    sample is too small to resolve ``q`` (fewer than
    :func:`min_samples_for` observations — e.g. a "p99.9" of 40 samples
    is just the max wearing a costume).  Callers render ``None`` as
    "n/a"; an empty sample is also ``None``.
    """
    return guarded_sorted_rank(sort_sample(values), q)


def guarded_sorted_rank(arr: np.ndarray, q: float) -> "float | None":
    """:func:`guarded_rank` read from an ascending array
    (:func:`sort_sample`)."""
    if arr.size < min_samples_for(q):
        return None
    return sorted_rank(arr, q)


@dataclass(frozen=True)
class CompletionStats:
    """Summary of a completion-time distribution (1-based steps)."""

    n: int
    total: int
    mean: float
    median: float
    p95: float
    p99: float
    max: int
    n_steps: int

    @property
    def throughput(self) -> float:
        """Messages completed per time step over the whole schedule."""
        return self.n / self.n_steps if self.n_steps else 0.0

    def row(self) -> dict[str, float]:
        """Flat dict for bench tables."""
        return {
            "n": self.n,
            "total": self.total,
            "mean": round(self.mean, 2),
            "median": self.median,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max,
            "steps": self.n_steps,
            "throughput": round(self.throughput, 3),
        }


def summarize(completion_times: np.ndarray, n_steps: int) -> CompletionStats:
    """Build :class:`CompletionStats` from a completion-time array.

    Tail percentiles are nearest-rank: every reported p95/p99 is an
    observed completion time.  (``np.percentile``'s default linear
    interpolation invents values for small samples — the p95 of
    ``[1, 2]`` came out 1.95, a latency no message ever had.)  The
    median keeps the conventional midpoint-of-two definition.
    """
    c = np.asarray(completion_times, dtype=np.float64)
    if c.size == 0:
        return CompletionStats(0, 0, 0.0, 0.0, 0.0, 0.0, 0, n_steps)
    return CompletionStats(
        n=int(c.size),
        total=int(c.sum()),
        mean=float(c.mean()),
        median=float(np.median(c)),
        p95=nearest_rank(c, 95),
        p99=nearest_rank(c, 99),
        max=int(c.max()),
        n_steps=n_steps,
    )


def weighted_total_completion(instance: WORMSInstance, completion_times) -> float:
    """Weighted objective ``sum_m w_m c_m`` for a simulation result."""
    c = np.asarray(completion_times, dtype=np.float64)
    return float(instance.message_weights @ c)


def compare_policies(
    instance: WORMSInstance, policies: Iterable
) -> dict[str, CompletionStats]:
    """Run each policy on ``instance``; validate; return stats by name.

    Raises if any policy emits an invalid schedule — baselines are held to
    the same rules as the paper's scheduler.
    """
    results: dict[str, CompletionStats] = {}
    for policy in policies:
        schedule = policy.schedule(instance)
        sim = validate_valid(instance, schedule)
        results[policy.name] = summarize(sim.completion_times, schedule.n_steps)
    return results
