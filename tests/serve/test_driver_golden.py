"""Golden digests of every serving driver, chaos included.

The parity tests pin that a *fault-free* ``ProcPoolLoop`` journal equals
``ServiceLoop``'s.  Under chaos the process driver has documented
divergences from the in-process one (a mid-chunk deadlock is quarantined
at the next barrier, depth timelines meter a spill one barrier late),
so those runs can only be compared against themselves.  These digests
pin each driver's exact output on a seeded scenario grid, so a
refactor of the drivers must reproduce every byte:

* drivers: the in-process ``ServiceLoop`` (labelled ``supervised``: the
  digests predate supervision becoming the loop's only mode and are
  unchanged by it), ``ProcPoolLoop(processes=1)`` and
  ``ProcPoolLoop(processes=2)``;
* scenarios: fault-free; a chaos kill plus a stall window; a
  ``kill-worker`` with breaker-aware diversion; a disk-fault window
  over the ``lsm`` engine; the breaker-tripping ``--fault-rate 0.5``
  config CI runs; two tenants with an SLO trip; closed-loop arrivals;
  a poisoned planner that exhausts every shard's forced re-plans
  mid-chunk (the process driver's barrier-quarantine path).

Each case pins the sha256 of the journal bytes, of its scanned records
(``records``: the same for any encoding of the same records), the
completions, the metrics snapshot and the health log.  ``worker_log``
is left out: it holds real pids.

Regenerate ``driver_golden.json`` (only when behaviour is *meant* to
change) with ``PYTHONPATH=src python -m tests.serve.test_driver_golden``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest

import repro.serve.loop as serve_loop
from repro.faults import (
    CHAOS_DISK_FAULT,
    CHAOS_KILL,
    CHAOS_KILL_WORKER,
    CHAOS_STALL,
    ChaosEvent,
    ChaosPlan,
)
from repro.serve import (
    ProcPoolLoop,
    ServeConfig,
    ServiceLoop,
    SupervisorConfig,
    TenantSpec,
)
from tests.journal_sweep import records_digest
from tests.serve.test_forced_replan import PoisonPlanner

GOLDEN = Path(__file__).with_name("data") / "driver_golden.json"

BASE = dict(arrivals="poisson", rate=8.0, messages=200, shards=4, seed=3,
            P=3, B=8, epoch=4, checkpoint_every=4)

#: scenario -> (config overrides, chaos plan, supervisor config).
SCENARIOS = {
    "fault-free": ({}, None, None),
    "kill-stall": (
        dict(messages=250),
        ChaosPlan((
            ChaosEvent(9, CHAOS_STALL, 1, duration=12),
            ChaosEvent(13, CHAOS_KILL, 2),
        )),
        None,
    ),
    "kill-worker-divert": (
        dict(messages=150, seed=7),
        ChaosPlan((ChaosEvent(13, CHAOS_KILL_WORKER, 2),)),
        SupervisorConfig(divert=True),
    ),
    "disk-fault-lsm": (
        # Relative, so the journal meta is the same in every temp dir.
        dict(engine="lsm", data_dir="kv"),
        ChaosPlan((
            ChaosEvent(13, CHAOS_DISK_FAULT, 1, duration=6,
                       spec="write:wal:enospc"),
        )),
        None,
    ),
    "breaker-trip": (
        dict(fault_rate=0.5, fault_seed=1, seed=1, shards=2, rate=6.0,
             messages=400, P=4, B=16, epoch=8, checkpoint_every=32),
        None,
        None,
    ),
    "tenants-slo": (
        dict(messages=340, shards=2, seed=5, P=4, B=8, max_root_backlog=16,
             max_queue=60, epoch=2,
             tenants=(
                 TenantSpec(name="light", rate=1.0, messages=40),
                 TenantSpec(name="hot", rate=40.0, messages=300,
                            slo_sojourn=4, buffer_quota=2),
             )),
        None,
        None,
    ),
    "closed": (
        dict(arrivals="closed", n_clients=8, think_time=2, messages=80,
             shards=3),
        None,
        None,
    ),
    "replan-exhausted": (
        dict(messages=300, shards=2, epoch=8),
        None,
        # Trip on stalled epochs later than the re-plan budget runs out.
        SupervisorConfig(trip_after=6),
    ),
}

#: scenario -> plans poisoned (forced ones too) by every planner built.
POISONED = {"replan-exhausted": 12}

DRIVERS = ("supervised", "procpool-1", "procpool-2")


def _sha(payload: "str | bytes") -> str:
    if isinstance(payload, str):
        payload = payload.encode()
    return hashlib.sha256(payload).hexdigest()


def cases():
    for scenario in SCENARIOS:
        for driver in DRIVERS:
            yield f"{scenario}/{driver}"


def run_case(case: str, workdir: Path) -> dict:
    """Run one grid point inside ``workdir``; its digests."""
    scenario, driver = case.split("/")
    overrides, chaos, supervisor = SCENARIOS[scenario]
    config = ServeConfig(**{**BASE, **overrides})
    journal = workdir / "run.woj"
    kwargs = dict(chaos=chaos, supervisor=supervisor, journal=journal)
    cwd = os.getcwd()
    os.chdir(workdir)
    original = serve_loop.EpochPlanner
    if scenario in POISONED:
        def poisoned(epoch_length):
            return PoisonPlanner(epoch_length, poison=POISONED[scenario],
                                 poison_forced=True)
        # Every driver's ShardStep builds its planner from this name;
        # forked workers inherit the patch with the parent's memory.
        serve_loop.EpochPlanner = poisoned
    try:
        if driver == "supervised":
            report = ServiceLoop(config, **kwargs).run()
        else:
            processes = int(driver.split("-")[1])
            report = ProcPoolLoop(config, processes=processes,
                                  **kwargs).run()
    finally:
        os.chdir(cwd)
        serve_loop.EpochPlanner = original
    return {
        "journal": _sha(journal.read_bytes()),
        "records": records_digest(journal),
        "completions": _sha(json.dumps(sorted(report.completions.items()))),
        "snapshot": _sha(json.dumps(report.snapshot, sort_keys=True)),
        "health_log": _sha(json.dumps(
            [asdict(hb) for hb in report.health_log], sort_keys=True
        )),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", list(cases()))
def test_driver_golden(case, golden, tmp_path):
    assert run_case(case, tmp_path) == golden[case]


def main() -> None:
    doc = {}
    for case in cases():
        with tempfile.TemporaryDirectory() as tmp:
            doc[case] = run_case(case, Path(tmp))
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} driver digests to {GOLDEN}")


if __name__ == "__main__":
    main()
