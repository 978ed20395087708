"""Per-message sojourn-time accounting for serving runs.

Batch experiments score *completion time* (steps since the single start
of time).  A service scores **sojourn time**: how long each message was
in the system, from arrival to delivery at its target leaf —

* ``sojourn(m) = completion_step - arrival_step + 1`` (a message that
  arrives at the start of step ``t`` and is delivered by a flush at step
  ``t`` has sojourn 1);
* ``wait(m) = admit_step - arrival_step`` (steps spent queued by
  admission control before reaching the shard root; 0 when admitted on
  arrival).

With every arrival stamped at step 1, sojourn equals the offline
completion time — the bridge the online/offline equivalence tests use.

Percentiles are nearest-rank (:func:`repro.analysis.stats.nearest_rank`):
a reported p99 is an observed sample, and a single-sample distribution
reports that sample at every percentile instead of interpolation
artifacts.  Everything snapshots to plain dicts / JSON for the analysis
layer and CI artifacts.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from repro.analysis.stats import guarded_sorted_rank, sort_sample, sorted_rank


@dataclass(frozen=True)
class LatencyStats:
    """Nearest-rank summary of a latency sample (all values observed).

    ``p999`` carries the minimum-sample guard from
    :func:`repro.analysis.stats.guarded_rank`: it is ``None`` (rendered
    "n/a") until the sample has at least 1000 observations, because a
    "p99.9" of fewer samples is just the max in disguise.
    """

    n: int
    p50: float
    p95: float
    p99: float
    p999: "float | None"
    max: float
    mean: float

    @classmethod
    def of(cls, values: "list[int] | list[float]") -> "LatencyStats":
        """Summarize a sample; an empty sample reports all-zero (n=0)."""
        vals = list(values)
        if not vals:
            return cls(0, 0.0, 0.0, 0.0, None, 0.0, 0.0)
        arr = sort_sample(vals)  # one sort serves every rank
        return cls(
            n=len(vals),
            p50=sorted_rank(arr, 50),
            p95=sorted_rank(arr, 95),
            p99=sorted_rank(arr, 99),
            p999=guarded_sorted_rank(arr, 99.9),
            max=float(arr[-1]),
            mean=float(sum(vals)) / len(vals),
        )

    def row(self) -> "dict[str, float]":
        return {
            "n": self.n,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "p999": self.p999,
            "max": self.max,
            "mean": round(self.mean, 3),
        }


@dataclass
class ShardTimeline:
    """Per-step queue/backlog depths for one shard."""

    queue_depth: "list[int]" = field(default_factory=list)
    root_backlog: "list[int]" = field(default_factory=list)
    in_flight: "list[int]" = field(default_factory=list)


class ServeMetrics:
    """Accumulates the full latency/throughput picture of a serving run."""

    def __init__(self, n_shards: int,
                 tenant_names: "tuple[str, ...] | None" = None) -> None:
        self.n_shards = int(n_shards)
        self.arrival_step: "dict[int, int]" = {}
        self.admit_step: "dict[int, int]" = {}
        self.completion_step: "dict[int, int]" = {}
        self.shard_of: "dict[int, int]" = {}
        self.shed_ids: "set[int]" = set()
        #: messages held in their shard's lanes while its circuit breaker
        #: was open (never dropped).
        self.spilled_ids: "set[int]" = set()
        self.timelines = [ShardTimeline() for _ in range(self.n_shards)]
        #: tenant display names when the run is multi-tenant (else None).
        self.tenant_names = tenant_names
        #: message id -> tenant index (only populated under tenancy).
        self.tenant_of: "dict[int, int]" = {}

    # ------------------------------------------------------------------
    def note_arrival(self, msg_id: int, shard_id: int, step: int,
                     tenant: "int | None" = None) -> None:
        self.arrival_step[msg_id] = step
        self.shard_of[msg_id] = shard_id
        if tenant is not None:
            self.tenant_of[msg_id] = tenant

    def note_shed(self, msg_id: int, step: int) -> None:
        self.shed_ids.add(msg_id)

    def note_spill(self, msg_id: int, step: int) -> None:
        """``msg_id`` was held for a quarantined shard at ``step``."""
        self.spilled_ids.add(msg_id)

    def note_admit(self, msg_id: int, step: int) -> None:
        self.admit_step[msg_id] = step

    def note_completion(self, msg_id: int, step: int) -> None:
        self.completion_step[msg_id] = step

    def note_step(self, queue_depths, root_backlogs, in_flight) -> None:
        """Record one step's per-shard depths (parallel sequences)."""
        for s in range(self.n_shards):
            tl = self.timelines[s]
            tl.queue_depth.append(queue_depths[s])
            tl.root_backlog.append(root_backlogs[s])
            tl.in_flight.append(in_flight[s])

    @property
    def outstanding(self) -> int:
        """Arrived messages neither completed nor shed: queued (held ones
        included), in a shard, or lost with a killed one until its
        restart."""
        return (
            len(self.arrival_step) - len(self.completion_step)
            - len(self.shed_ids)
        )

    # ------------------------------------------------------------------
    def sojourns(self) -> "list[int]":
        """Sojourn times of all completed messages (arrival order)."""
        return [
            step - self.arrival_step[m] + 1
            for m, step in sorted(self.completion_step.items())
        ]

    def completion_times(self) -> "list[tuple[int, int]]":
        """``(msg_id, completion_step)`` for completed messages, by id."""
        return sorted(self.completion_step.items())

    def snapshot(self, n_steps: int) -> dict:
        """The run's full metrics as one JSON-ready dict."""
        arrival, shard_of = self.arrival_step, self.shard_of
        # One walk per message set, grouped by shard.
        done_by = [[] for _ in range(self.n_shards)]
        for m, step in self.completion_step.items():
            done_by[shard_of[m]].append(step - arrival[m] + 1)
        arrived_by = Counter(shard_of.values())
        shed_by = Counter(shard_of[m] for m in self.shed_ids)
        spilled_by = Counter(shard_of[m] for m in self.spilled_ids)
        sojourn = LatencyStats.of([x for done in done_by for x in done])
        waits = [
            self.admit_step[m] - arrival[m] for m in self.admit_step
        ]
        per_shard = []
        for s, done in enumerate(done_by):
            completed = len(done)
            tl = self.timelines[s]
            per_shard.append({
                "shard": s,
                "arrived": arrived_by[s],
                "completed": completed,
                "shed": shed_by[s],
                "spilled": spilled_by[s],
                "throughput": round(completed / n_steps, 4) if n_steps else 0.0,
                "sojourn": LatencyStats.of(done).row(),
                "max_queue_depth": max(tl.queue_depth, default=0),
                "max_root_backlog": max(tl.root_backlog, default=0),
            })
        arrived = len(self.arrival_step)
        completed = len(self.completion_step)
        return {
            "n_steps": n_steps,
            "arrived": arrived,
            "admitted": len(self.admit_step),
            "completed": completed,
            "shed": len(self.shed_ids),
            "spilled": len(self.spilled_ids),
            "in_flight": self.outstanding,
            "throughput": round(completed / n_steps, 4) if n_steps else 0.0,
            "sojourn": sojourn.row(),
            "admission_wait": LatencyStats.of(waits).row(),
            "shards": per_shard,
        }

    def to_json(self, n_steps: int, **extra) -> str:
        """Snapshot (plus any ``extra`` top-level keys) as a JSON string."""
        snap = self.snapshot(n_steps)
        snap.update(extra)
        return json.dumps(snap, indent=2, sort_keys=True)


def format_serve_report(snapshot: dict, *, title: str = "serving run") -> str:
    """Render a metrics snapshot as the CLI's plain-text report."""
    s = snapshot["sojourn"]
    w = snapshot["admission_wait"]
    lines = [
        f"== {title} ==",
        f"steps {snapshot['n_steps']}, arrived {snapshot['arrived']}, "
        f"admitted {snapshot['admitted']}, completed {snapshot['completed']}, "
        f"shed {snapshot['shed']}, in flight {snapshot['in_flight']}",
        f"throughput {snapshot['throughput']} msgs/step",
        f"sojourn   p50 {s['p50']:.0f}  p95 {s['p95']:.0f}  "
        f"p99 {s['p99']:.0f}  p99.9 "
        + (f"{s['p999']:.0f}" if s.get("p999") is not None else "n/a")
        + f"  max {s['max']:.0f}  mean {s['mean']:.2f}",
        f"adm. wait p50 {w['p50']:.0f}  p95 {w['p95']:.0f}  "
        f"p99 {w['p99']:.0f}  max {w['max']:.0f}  mean {w['mean']:.2f}",
    ]
    header = (f"{'shard':>6} {'arrived':>8} {'completed':>10} {'shed':>6} "
              f"{'thruput':>8} {'p50':>6} {'p99':>6} {'maxQ':>6}")
    lines.append(header)
    for row in snapshot["shards"]:
        sj = row["sojourn"]
        lines.append(
            f"{row['shard']:>6} {row['arrived']:>8} {row['completed']:>10} "
            f"{row['shed']:>6} {row['throughput']:>8.3f} {sj['p50']:>6.0f} "
            f"{sj['p99']:>6.0f} {row['max_queue_depth']:>6}"
        )
    return "\n".join(lines)
