#!/usr/bin/env python
"""The serving layer end to end: ingest, plan, execute, shed, recover.

Four scenes, each one facet of ``repro.serve``:

1. **Steady state** — an open Poisson stream over 4 B^ε-tree shards,
   re-planned every epoch with the paper pipeline (reduction → MPHTF →
   Lemma 8).  The report is sojourn time: completion − arrival + 1.
2. **Overload** — the same machine at 16× the rate with bounded queues.
   Admission control sheds the excess; the accounting always conserves
   messages (completed + shed + in-flight == arrived).
3. **Closed loop** — clients that wait for their previous message before
   issuing the next: the stream self-paces, nothing is shed.
4. **Crash + recovery** — a journaled run, a simulated kill (truncation
   at an arbitrary byte), and ``recover_serve`` re-deriving the exact
   run from the journal's own config and verifying the newest
   checkpoint's per-shard flush digests against it.

Everything is seeded: rerunning this script prints identical numbers.

Run:  python examples/serving.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.faults import truncate_at
from repro.serve import (
    ServeConfig,
    ServiceLoop,
    format_serve_report,
    recover_serve,
)


def scene(title: str) -> None:
    print(f"\n--- {title} " + "-" * max(0, 60 - len(title)))


def main() -> None:
    # --- 1: steady state ----------------------------------------------
    scene("steady state: poisson arrivals, 4 shards")
    cfg = ServeConfig(arrivals="poisson", rate=8.0, messages=2000,
                      shards=4, P=4, B=16, seed=42)
    report = ServiceLoop(cfg).run()
    print(format_serve_report(report.snapshot, title="serve poisson"))
    ps = report.planner_stats
    print(f"planner: {ps.noop_epochs} noop epochs, "
          f"{ps.full_replans} full re-plans")
    assert report.snapshot["completed"] == 2000
    assert report.snapshot["shed"] == 0

    # --- 2: overload --------------------------------------------------
    scene("overload: 16x the rate, bounded queues")
    over = ServiceLoop(ServeConfig(
        arrivals="poisson", rate=128.0, messages=2000, shards=4, P=4,
        B=16, max_queue=64, max_root_backlog=32, seed=42,
    )).run()
    snap = over.snapshot
    print(f"arrived {snap['arrived']}, completed {snap['completed']}, "
          f"shed {snap['shed']} "
          f"({100.0 * snap['shed'] / snap['arrived']:.0f}%)")
    s = snap["sojourn"]
    print(f"surviving sojourn: p50 {s['p50']:.0f}, p99 {s['p99']:.0f} "
          "(bounded — the queue sheds instead of growing)")
    assert snap["shed"] > 0
    assert snap["completed"] + snap["shed"] == snap["arrived"]

    # --- 3: closed loop -----------------------------------------------
    scene("closed loop: 16 clients, think time 2")
    closed = ServiceLoop(ServeConfig(
        arrivals="closed", n_clients=16, think_time=2, messages=600,
        shards=4, seed=42,
    )).run()
    print(f"completed {closed.snapshot['completed']} in "
          f"{closed.n_steps} steps, shed {closed.snapshot['shed']} "
          "(a closed loop never overruns the machine)")
    assert closed.snapshot["shed"] == 0

    # --- 4: crash + recovery ------------------------------------------
    scene("crash + recovery: journaled run, kill, re-derive")
    workdir = Path(tempfile.mkdtemp(prefix="worms-serve-"))
    journal = workdir / "serve.journal"
    cfg = ServeConfig(arrivals="poisson", rate=8.0, messages=1000,
                      shards=2, seed=7, checkpoint_every=8)
    original = ServiceLoop(cfg, journal=journal).run()
    size = journal.stat().st_size
    print(f"journaled run: {original.n_steps} steps, {size} bytes")

    truncate_at(journal, size * 3 // 5, in_place=True)
    print(f"simulated kill: journal truncated to {size * 3 // 5} bytes")

    rec = recover_serve(journal)
    print(f"recovered: {rec.torn_bytes} torn byte(s) dropped, "
          f"checkpoint digests of {rec.replayed_flushes} flushes verified, "
          f"last durable step {rec.resumed_from_step}")
    assert rec.report.completions == original.completions
    print("re-derived completion times identical to the uninterrupted "
          "run — nothing durable was lost")


if __name__ == "__main__":
    main()
