"""Performance-stability subsystem: long-run stall analysis.

Fast average-case numbers can hide a service that periodically goes
dark: write-optimized trees amortize their maintenance, and the bill —
a burst of flush work that starves foreground progress — arrives as a
*stall window*.  This package measures that failure mode:

* :mod:`~repro.stability.windows` — pure stall-window detection over a
  per-window throughput series: trailing-mean comparison, contiguous
  stall intervals, length/gap distributions;
* :mod:`~repro.stability.harness` — the long-run bench harness: seeded
  MMPP scenarios (``diurnal`` / ``flash-crowd``) driven through an
  instrumented :class:`~repro.serve.loop.ServiceLoop`, per-window
  counter attribution (interference vs arrival lull vs backlog), and a
  schema-versioned, byte-deterministic result document
  (``BENCH_stability.json``).

Everything here is a pure function of the seed: running the same
config twice must produce byte-identical JSON (CI diffs it).
"""

from repro.stability.harness import (
    SCENARIOS,
    SCHEMA,
    StabilityConfig,
    format_stability_report,
    run_stability,
)
from repro.stability.windows import (
    StallInterval,
    detect_stalls,
    stall_gaps,
    stall_intervals,
    window_sums,
)

__all__ = [
    "SCENARIOS",
    "SCHEMA",
    "StabilityConfig",
    "StallInterval",
    "detect_stalls",
    "format_stability_report",
    "run_stability",
    "stall_gaps",
    "stall_intervals",
    "window_sums",
]
