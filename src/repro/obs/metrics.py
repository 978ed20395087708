"""Process-wide metrics registry: counters, gauges, histograms.

The registry is the quantitative half of :mod:`repro.obs` (spans are the
qualitative half): named monotone counters (flushes issued, retries,
sheds, stall-holds, journal bytes), point-in-time gauges, and histograms
summarized with the same nearest-rank percentiles the analysis layer
uses everywhere else.

Two conventions keep snapshots diffable across runs:

* **Determinism.**  Instrumented code only records *deterministic*
  quantities in the registry (counts, sizes, steps) — wall-clock timing
  lives in the tracer and the phase profiler, never here.  Two runs of
  the same seeded workload therefore produce byte-identical snapshots,
  which is exactly what the CI ``trace-smoke`` job diffs.
* **Stable naming.**  Metrics follow ``<layer>_<what>_total`` for
  counters; labeled children render as ``name{k=v,k2=v2}`` with keys
  sorted, so the JSON snapshot is one flat, ordered map per section.

Labeled children::

    shed = registry.counter("serve_shed_total")
    shed.labels(shard=3).inc()        # child serve_shed_total{shard=3}
    shed.inc()                        # the unlabeled parent still works

The registry is plain Python with no locks: the execution layers are
single-threaded, and the obs context owns exactly one registry per run.
The shard-per-process driver keeps that true across processes by
construction: workers never touch the parent's registry — they report
counter deltas over the result pipe and the parent folds them in — so
the **process-supervisor family** below is recorded parent-side only
and stays deterministic for seeded drills (real pids never enter the
registry; they live in the report's ``worker_log``):

* ``serve_worker_deaths_total{shard}`` — worker processes lost
  (SIGKILL chaos, crashes, watchdog escalation), per hosted shard;
* ``serve_worker_respawns_total{shard}`` — fresh processes spawned to
  restart a quarantined shard from its journal;
* ``serve_watchdog_escalations_total{stage}`` — escalation-ladder
  outcomes (``cancel`` -> ``terminate`` -> ``kill``);
* ``serve_diversions_total{shard}`` / ``serve_merge_backs_total{shard}``
  — breaker-open key-range diversions and their merge-backs.
"""

from __future__ import annotations

import json

from repro.util.errors import InvalidInstanceError


def _label_key(labels: dict) -> str:
    """Canonical ``k=v,k2=v2`` rendering (keys sorted)."""
    return ",".join(f"{k}={labels[k]}" for k in sorted(labels))


class _Metric:
    """Shared naming/labeling machinery for all metric kinds."""

    __slots__ = ("name", "help", "_children")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        #: label-key -> child metric (same kind, created on demand).
        self._children: "dict[str, _Metric] | None" = None

    def labels(self, **labels):
        """The child metric for this label set (created on first use)."""
        if not labels:
            return self
        key = _label_key(labels)
        if self._children is None:
            self._children = {}
        child = self._children.get(key)
        if child is None:
            child = type(self)(f"{self.name}{{{key}}}", self.help)
            self._children[key] = child
        return child

    def _iter_children(self):
        # Snapshot the child map first: the /metrics endpoint thread may
        # iterate while the serving loop creates a new labeled child.
        children = self._children
        if children:
            children = dict(children)
            for key in sorted(children):
                yield key, children[key]


class Counter(_Metric):
    """Monotone event count.  ``inc`` only; negative increments raise."""

    __slots__ = ("value",)

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise InvalidInstanceError(
                f"counter {self.name} cannot decrease (inc({n}))"
            )
        self.value += n

    def snapshot_value(self):
        return self.value


class Gauge(_Metric):
    """Point-in-time value; also tracks the maximum it ever held."""

    __slots__ = ("value", "max_value")

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self.value = 0
        self.max_value = 0

    def set(self, v) -> None:
        self.value = v
        if v > self.max_value:
            self.max_value = v

    def snapshot_value(self):
        return {"value": self.value, "max": self.max_value}


class Histogram(_Metric):
    """Sample accumulator summarized with nearest-rank percentiles.

    Observed values are kept (these are opt-in diagnostics, not a
    resident production sink), so the summary reports exact observed
    p50/p95/p99 — the same convention as
    :func:`repro.analysis.stats.nearest_rank`.
    """

    __slots__ = ("values",)

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self.values: list = []

    def observe(self, v) -> None:
        self.values.append(v)

    def snapshot_value(self):
        # Imported here: analysis.stats reaches the DAM layer, which the
        # obs hooks instrument — a module-level import would be circular.
        from repro.analysis.stats import nearest_rank

        # Copy: the /metrics endpoint thread may summarize mid-observe.
        vals = list(self.values)
        if not vals:
            return {"count": 0, "sum": 0, "p50": 0, "p95": 0, "p99": 0,
                    "max": 0}
        return {
            "count": len(vals),
            "sum": sum(vals),
            "p50": nearest_rank(vals, 50),
            "p95": nearest_rank(vals, 95),
            "p99": nearest_rank(vals, 99),
            "max": max(vals),
        }


class MetricsRegistry:
    """Name -> metric map with typed get-or-create accessors."""

    def __init__(self) -> None:
        self._metrics: "dict[str, _Metric]" = {}

    def _get_or_create(self, kind, name: str, help: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name, help)
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise InvalidInstanceError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"requested as {kind.__name__}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter ``name``."""
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        """Get or create the histogram ``name``."""
        return self._get_or_create(Histogram, name, help)

    def get(self, name: str) -> "_Metric | None":
        """The registered metric, or None (never creates)."""
        return self._metrics.get(name)

    def reset(self) -> None:
        """Drop every registered metric."""
        self._metrics.clear()

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """All metrics as one JSON-ready dict, keys sorted, labels flat."""
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        sections = {Counter: "counters", Gauge: "gauges",
                    Histogram: "histograms"}
        # Copy the name map first: the /metrics endpoint thread snapshots
        # while the serving loop may register new metrics.
        metrics = dict(self._metrics)
        for name in sorted(metrics):
            metric = metrics[name]
            section = out[sections[type(metric)]]
            section[metric.name] = metric.snapshot_value()
            for _key, child in metric._iter_children():
                section[child.name] = child.snapshot_value()
        return out

    def to_json(self, **extra) -> str:
        """Snapshot (plus ``extra`` top-level keys) as a JSON string."""
        snap = self.snapshot()
        snap.update(extra)
        return json.dumps(snap, indent=2, sort_keys=True)
