"""Long-run stall bench harness over the serving loop.

The harness drives an instrumented :class:`~repro.serve.loop.ServiceLoop`
through a seeded MMPP scenario, samples cumulative counters every step,
folds them into per-window series, runs the stall detector, and emits a
schema-versioned result document.  Two scenario shapes cover the
regimes the stability literature cares about:

* ``diurnal`` — long calm/busy sojourns (day/night): both MMPP states
  last many windows, so the detector's trailing baseline must adapt
  without calling the nightly lull an outage;
* ``flash-crowd`` — rare, intense bursts: short burst sojourns at many
  times the calm rate, the classic trigger for backlog-driven stalls.

Compaction interference comes in two flavors.  Simulated: the serve
fault pipeline (``fault_rate``) stalls flushes through a faulted node
exactly the way a background compaction steals the IO budget.  Native:
under ``engine='lsm'`` the durable store's *real* leveled compactions
run inline with serving, and the harness samples the store's cumulative
compaction counter per step.  Attribution then reads these counters as
per-window deltas and classifies each stall interval:

* ``compaction`` — the disk engine ran compaction tasks during the
  interval: real background storage work stole the foreground budget
  (``engine='lsm'`` only; takes precedence over ``interference``);
* ``interference`` — fault/stall counters moved during the interval:
  background work blocked foreground flushes;
* ``arrival-lull`` — nothing arrived and nothing was admitted: the
  workload went quiet (expected under ``diurnal``);
* ``backlog`` — work was available but throughput collapsed anyway: an
  amortization spike.

Determinism contract: the result document is a pure function of
:class:`StabilityConfig` — no wall-clock, no unseeded RNG — so CI runs
the same config twice and byte-diffs the JSON.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from dataclasses import fields as dataclass_fields

from repro.obs.hooks import current_obs
from repro.serve.loop import ServeConfig, ServiceLoop
from repro.stability.windows import (
    detect_stalls,
    stall_gaps,
    stall_intervals,
    window_sums,
)
from repro.util.errors import InvalidInstanceError

#: Result-document schema tag; bump on any shape change.
SCHEMA = "stability/v2"

#: Scenario name -> MMPP arrival parameters (rates are per step).
SCENARIOS: "dict[str, dict[str, float]]" = {
    "diurnal": {
        "rate": 4.0, "burst_rate": 12.0, "p_burst": 0.02, "p_calm": 0.02,
    },
    "flash-crowd": {
        "rate": 6.0, "burst_rate": 96.0, "p_burst": 0.02, "p_calm": 0.08,
    },
}


_SERVE_FIELDS = {f.name: f for f in dataclass_fields(ServeConfig)}


def _serve_field(name: str, **metadata):
    """A field with ``ServeConfig``'s default and metadata for ``name``;
    keyword ``default`` or any metadata key (``help``) overrides."""
    serve = _SERVE_FIELDS[name]
    default = metadata.pop("default", serve.default)
    return field(default=default, metadata={**serve.metadata, **metadata})


@dataclass(frozen=True)
class StabilityConfig:
    """One stability run, fully determined by its fields.

    Each field's ``help`` metadata documents it; ``stability`` derives
    one flag per field.  The fields named like ``ServeConfig``'s pass
    through to the serving run and share its defaults.
    """

    scenario: str = field(default="flash-crowd", metadata={
        "choices": tuple(SCENARIOS),
        "help": "MMPP arrival shape: long calm/busy sojourns (diurnal) or "
                "rare, intense bursts (flash-crowd)"})
    messages: int = _serve_field("messages", default=20_000)
    seed: int = _serve_field("seed")
    shards: int = _serve_field("shards")
    P: int = _serve_field("P")
    B: int = _serve_field("B")
    height: int = _serve_field("height")
    leaves: int = _serve_field("leaves")
    epoch: int = _serve_field("epoch")
    fault_rate: float = _serve_field(
        "fault_rate", help="compaction-interference injection rate")
    fault_seed: int = _serve_field("fault_seed")
    engine: str = _serve_field(
        "engine",
        help="'lsm' runs the real disk store inline and attributes stalls "
             "overlapping its compactions natively (needs --data-dir)")
    data_dir: str = _serve_field("data_dir")
    window: int = field(default=16, metadata={
        "help": "DAM steps per detector window"})
    stall_frac: float = field(default=0.5, metadata={
        "help": "stalled when throughput < frac * trailing healthy mean"})
    trailing: int = field(default=8, metadata={
        "help": "healthy windows in the trailing mean"})

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise InvalidInstanceError(
                f"unknown scenario {self.scenario!r}; "
                f"pick one of {sorted(SCENARIOS)}"
            )
        if self.window < 1:
            raise InvalidInstanceError(
                f"window must be >= 1, got {self.window}"
            )
        # The serving run checks its own fields.
        object.__setattr__(self, "_serve", ServeConfig(
            arrivals="mmpp",
            **SCENARIOS[self.scenario],
            **{
                f.name: getattr(self, f.name)
                for f in dataclass_fields(self) if f.name in _SERVE_FIELDS
            },
        ))

    def to_serve_config(self) -> ServeConfig:
        """The serving-loop config this scenario maps to."""
        return self._serve


class _MeteredLoop(ServiceLoop):
    """A :class:`ServiceLoop` that samples cumulative counters per step.

    Sampling rides the existing per-step metering phase, reading only
    counters the loop already maintains — the run itself is untouched
    (same schedules, same journal bytes as an unmetered run).
    """

    def __init__(self, config: ServeConfig, **kwargs) -> None:
        super().__init__(config, **kwargs)
        #: one row per step: (completed, admitted, arrived, stall_skips,
        #: failed_attempts, planned_flushes, compactions) — cumulative.
        self.samples: "list[tuple[int, ...]]" = []

    def _meter(self, t: int) -> None:
        super()._meter(t)
        self.samples.append((
            len(self.metrics.completion_step),
            self.admission.stats.admitted,
            self._next_gid,
            sum(e.stats.stalled_skips for e in self.engines),
            sum(e.stats.failed_attempts for e in self.engines),
            self.planner.stats.planned_flushes,
            self.store.compactions if self.store is not None else 0,
        ))


def _attribute(
    interval, series: "dict[str, list[int]]",
) -> str:
    """Classify one stall interval (see module docstring)."""
    lo, hi = interval.start, interval.end
    if sum(series["compactions"][lo:hi]) > 0:
        return "compaction"
    interference = sum(series["stall_skips"][lo:hi]) \
        + sum(series["failed_attempts"][lo:hi])
    if interference > 0:
        return "interference"
    offered = sum(series["arrived"][lo:hi]) \
        + sum(series["admitted"][lo:hi])
    if offered == 0:
        return "arrival-lull"
    return "backlog"


def run_stability(config: StabilityConfig, *, journal=None) -> dict:
    """Execute one stability run; returns the ``stability/v2`` document.

    The document is byte-deterministic given ``config`` (dump it with
    ``json.dump(..., sort_keys=True)`` and diff).  When observability
    is enabled (:func:`repro.obs.hooks.enable_obs`), the run also
    publishes the ``stability_*`` metric family.
    """
    loop = _MeteredLoop(config.to_serve_config(), journal=journal)
    report = loop.run()

    cols = list(zip(*loop.samples)) if loop.samples else [[]] * 7
    names = ("completed", "admitted", "arrived", "stall_skips",
             "failed_attempts", "planned_flushes", "compactions")
    series = {
        name: window_sums(list(col), config.window)
        for name, col in zip(names, cols)
    }
    throughput = series["completed"]
    flags = detect_stalls(
        [float(x) for x in throughput],
        frac=config.stall_frac, trailing=config.trailing,
    )
    intervals = stall_intervals(flags)
    gaps = stall_gaps(intervals)
    causes = [_attribute(iv, series) for iv in intervals]
    attribution: "dict[str, int]" = {
        "compaction": 0, "interference": 0, "arrival-lull": 0,
        "backlog": 0,
    }
    for cause in causes:
        attribution[cause] += 1

    snapshot = report.snapshot
    doc = {
        "schema": SCHEMA,
        "config": asdict(config),
        "steps": report.n_steps,
        "totals": {
            "arrived": snapshot["arrived"],
            "admitted": snapshot["admitted"],
            "completed": snapshot["completed"],
            "shed": snapshot["shed"],
            "throughput": snapshot["throughput"],
        },
        "windows": {
            "window_steps": config.window,
            "n": len(throughput),
            **series,
        },
        "stalls": {
            "frac": config.stall_frac,
            "trailing": config.trailing,
            "count": len(intervals),
            "stalled_windows": sum(iv.length for iv in intervals),
            "max_len": max((iv.length for iv in intervals), default=0),
            "lengths": [iv.length for iv in intervals],
            "gaps": gaps,
            "intervals": [
                {"start": iv.start, "len": iv.length, "cause": cause}
                for iv, cause in zip(intervals, causes)
            ],
            "attribution": attribution,
        },
        "sojourn": dict(snapshot["sojourn"]),
    }
    obs = current_obs()
    if obs.enabled:
        reg = obs.metrics
        reg.counter(
            "stability_runs_total", "stability harness runs completed"
        ).inc()
        reg.counter(
            "stability_windows_total", "detector windows examined"
        ).inc(len(throughput))
        reg.counter(
            "stability_stall_windows_total", "windows flagged stalled"
        ).inc(sum(iv.length for iv in intervals))
        events = reg.counter(
            "stability_stall_events_total",
            "contiguous stall intervals detected",
        )
        events.inc(len(intervals))
        for cause, n in sorted(attribution.items()):
            events.labels(cause=cause).inc(n)
        reg.gauge(
            "stability_stall_len_max",
            "longest contiguous stall interval (windows)",
        ).set(doc["stalls"]["max_len"])
    return doc


def format_stability_report(doc: dict) -> str:
    """The result document as a short fixed-width text block."""
    stalls = doc["stalls"]
    soj = doc["sojourn"]
    totals = doc["totals"]
    p999 = f"{soj['p999']:.0f}" if soj.get("p999") is not None else "n/a"
    lines = [
        f"== stability: {doc['config']['scenario']} "
        f"(seed {doc['config']['seed']}) ==",
        f"steps {doc['steps']}  windows {doc['windows']['n']} "
        f"x {doc['windows']['window_steps']}  "
        f"completed {totals['completed']}/{totals['arrived']}  "
        f"throughput {totals['throughput']:.2f}/step",
        f"stalls: {stalls['count']} interval(s), "
        f"{stalls['stalled_windows']} window(s), "
        f"max len {stalls['max_len']}  "
        f"[compaction {stalls['attribution'].get('compaction', 0)}, "
        f"interference {stalls['attribution']['interference']}, "
        f"lull {stalls['attribution']['arrival-lull']}, "
        f"backlog {stalls['attribution']['backlog']}]",
        f"sojourn: p50 {soj['p50']:.0f}  p99 {soj['p99']:.0f}  "
        f"p99.9 {p999}  max {soj['max']:.0f}  mean {soj['mean']:.2f}",
    ]
    return "\n".join(lines)
