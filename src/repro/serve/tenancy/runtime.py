"""Tenancy runtime: the loop-facing façade of the QoS subsystem.

One :class:`TenancyRuntime` per serving loop bundles the tenant specs,
the SLO tracker, and the per-epoch conservation ledger, and knows how to
annotate a :class:`~repro.serve.metrics.ServeMetrics` snapshot with the
per-tenant view.  The serving loop only talks to this object (plus the
per-tenant lanes, doors and purges of its one
:class:`~repro.serve.admission.AdmissionController`), which keeps the
tenancy surface in ``loop.py`` down to a handful of guarded calls.
"""

from __future__ import annotations

from repro.serve.metrics import LatencyStats
from repro.serve.tenancy.slo import SLOTracker


class TenancyRuntime:
    """Tenant specs + SLO state + per-epoch conservation ledger."""

    def __init__(self, specs) -> None:
        self.specs = tuple(specs)
        self.names = tuple(t.name for t in self.specs)
        self.tracker = SLOTracker(self.specs)
        #: per-epoch conservation rows (epoch -> tenant -> counters);
        #: appended at every epoch boundary for the conservation tests.
        self.epoch_ledger: "list[dict]" = []

    # ------------------------------------------------------------------
    def tenant_counts(self, metrics) -> "list[dict]":
        """Current per-tenant arrived/completed/shed/in-flight counters."""
        n = len(self.specs)
        arrived = [0] * n
        completed = [0] * n
        shed = [0] * n
        tenant_of = metrics.tenant_of
        for gid in metrics.arrival_step:
            tid = tenant_of.get(gid)
            if tid is not None:
                arrived[tid] += 1
        for gid in metrics.completion_step:
            tid = tenant_of.get(gid)
            if tid is not None:
                completed[tid] += 1
        for gid in metrics.shed_ids:
            tid = tenant_of.get(gid)
            if tid is not None:
                shed[tid] += 1
        return [
            {
                "tenant": self.names[tid],
                "arrived": arrived[tid],
                "completed": completed[tid],
                "shed": shed[tid],
                "in_flight": arrived[tid] - completed[tid] - shed[tid],
            }
            for tid in range(n)
        ]

    def close_epoch(self, epoch: int, metrics) -> None:
        """Record the conservation ledger row for a finished epoch."""
        self.epoch_ledger.append(
            {"epoch": epoch, "tenants": self.tenant_counts(metrics)}
        )

    # ------------------------------------------------------------------
    def tenant_rows(self, metrics, n_steps: int) -> "list[dict]":
        """Full per-tenant snapshot rows (counters + sojourn + SLO)."""
        counts = self.tenant_counts(metrics)
        tenant_of = metrics.tenant_of
        sojourns: "dict[int, list[int]]" = {}
        for gid, step in metrics.completion_step.items():
            tid = tenant_of.get(gid)
            if tid is not None:
                sojourns.setdefault(tid, []).append(
                    step - metrics.arrival_step[gid] + 1
                )
        rows = []
        for tid, row in enumerate(counts):
            row = dict(row)
            row["weight"] = self.specs[tid].weight
            row["throughput"] = (
                round(row["completed"] / n_steps, 4) if n_steps else 0.0
            )
            row["sojourn"] = LatencyStats.of(sojourns.get(tid, [])).row()
            row.update(self.tracker.row(tid))
            rows.append(row)
        return rows

    def annotate(self, snapshot: dict, metrics) -> dict:
        """Add the ``tenants`` section to a metrics snapshot (in place)."""
        snapshot["tenants"] = self.tenant_rows(metrics, snapshot["n_steps"])
        return snapshot


def format_tenant_report(snapshot: dict) -> str:
    """Render the per-tenant table of an annotated snapshot."""
    lines = [
        f"{'tenant':>8} {'weight':>7} {'arrived':>8} {'completed':>10} "
        f"{'shed':>6} {'inflt':>6} {'thruput':>8} {'p50':>6} {'p99':>6} "
        f"{'slo':>14}"
    ]
    for row in snapshot.get("tenants", []):
        sj = row["sojourn"]
        slo = row.get("slo")
        if slo is None:
            slo_txt = "-"
        else:
            slo_txt = (
                f"{slo['attained']:.0f}/{slo['target']}"
                f"@p{slo['percentile']:g}"
            )
            if slo["trips"]:
                slo_txt += f" ({slo['trips']} trips)"
        lines.append(
            f"{row['tenant']:>8} {row['weight']:>7.2f} {row['arrived']:>8} "
            f"{row['completed']:>10} {row['shed']:>6} {row['in_flight']:>6} "
            f"{row['throughput']:>8.3f} {sj['p50']:>6.0f} {sj['p99']:>6.0f} "
            f"{slo_txt:>14}"
        )
    return "\n".join(lines)
