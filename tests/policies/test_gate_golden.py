"""Golden digests of the flush gate, batch and serve, under faults.

The DAM gate (readiness, occupancy against ``B``, the ``P`` slots,
retry/backoff, stall skips, completions-first triage, pace splits) is
shared by the batch executors and the serving engine.  These digests pin
what each caller realizes on a seeded grid, so a change to how the gate
is written must reproduce every schedule, stat and journal byte.

Batch side: :class:`GatedExecutor` and :class:`ResilientExecutor` over
balanced, path and B^eps trees; no injector, iid faults and Markov
bursts; fault-aware admission on and off; the default retry budget and
``retry_budget=1`` (every failure re-plans); two non-laminar lists (a
missing hop forces a deadlock re-plan); and the typed stalls at the end
of the recovery ladder (no re-plans left, ``max_steps`` hit).  Each
digest covers the
realized schedule, :class:`ResilienceStats` (or the typed stall error)
and the full journal bytes at ``checkpoint_every=2``.

Serve side: a run with iid faults, fault-aware triage, a pace budget
and chaos stall windows, plus a faulty run with neither.  Each
digest covers completions, per-shard schedules and every journal record
except ``meta``.

Regenerate ``gate_golden.json`` (only when behaviour is *meant* to
change) with ``PYTHONPATH=src python -m tests.policies.test_gate_golden``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.dam.journal import scan_journal
from repro.dam.schedule import Flush
from repro.faults import FaultInjector, FaultPlan
from repro.faults.bursts import BurstInjector, BurstPlan
from repro.faults.chaos import CHAOS_STALL, ChaosEvent, ChaosPlan
from repro.policies import GatedExecutor, ResilientExecutor, WormsPolicy
from repro.serve import ServeConfig, ServiceLoop
from repro.tree import balanced_tree, beps_shape_tree, path_tree
from repro.util.errors import ExecutionStalledError
from tests.conftest import make_uniform

GOLDEN = Path(__file__).with_name("gate_golden.json")

TREES = {
    "balanced": lambda: make_uniform(balanced_tree(3, 3), n_messages=150,
                                     P=3, B=12, seed=4),
    "path": lambda: make_uniform(path_tree(5), n_messages=60, P=1, B=8,
                                 seed=9),
    "beps": lambda: make_uniform(beps_shape_tree(16, 0.5, 32),
                                 n_messages=160, P=2, B=16, seed=2),
}
INJECTORS = ("none", "uniform", "burst")
LISTS = ("laminar", "missing_hop", "split_hop")


def _injector(kind: str, topo):
    if kind == "none":
        return None
    if kind == "uniform":
        return FaultInjector(FaultPlan.uniform(0.1), seed=7)
    return BurstInjector(FaultPlan.uniform(0.05), BurstPlan.from_rate(0.3),
                         topo, seed=7)


def _flush_list(inst, shape: str) -> "list[Flush]":
    ordered = [f for _t, f in WormsPolicy().schedule(inst).iter_timed()]
    if shape == "missing_hop":
        # The first hop of one group is gone: its messages can never
        # leave the root, so the gate deadlocks once the rest drains.
        return ordered[1:]
    if shape == "split_hop":
        # One root flush split in two: its messages reach the child in
        # two flushes but leave it in one (the non-laminar shape).
        head = ordered[0]
        half = max(1, len(head.messages) // 2)
        parts = [Flush(head.src, head.dest, head.messages[:half])]
        if head.messages[half:]:
            parts.append(Flush(head.src, head.dest, head.messages[half:]))
        return parts + ordered[1:]
    return ordered


def _sha(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()


def _batch_digest(executor, flushes, journal: Path) -> str:
    try:
        schedule = executor.run(list(flushes))
        outcome = repr(list(schedule.iter_timed()))
    except ExecutionStalledError as err:
        outcome = f"stalled@{err.step}: {err}"
    stats = repr(getattr(executor, "stats", None))
    return _sha("\n".join(
        (outcome, stats, hashlib.sha256(journal.read_bytes()).hexdigest())
    ))


def batch_cases():
    for tree in TREES:
        for shape in LISTS:
            yield f"gated/{tree}/{shape}"
            for inj in INJECTORS:
                for aware in (False, True):
                    for budget in (5, 1):
                        yield (f"resilient/{tree}/{shape}/{inj}/"
                               f"aware={int(aware)}/budget={budget}")
        # The ladder's last rung: out of re-plans, and out of steps.
        yield f"no-replans/{tree}/missing_hop"
        yield f"max-steps/{tree}/laminar"


def run_batch_case(case: str, tmp: Path) -> str:
    parts = case.split("/")
    inst = TREES[parts[1]]()
    flushes = _flush_list(inst, parts[2])
    journal = tmp / "batch.journal"
    if parts[0] == "gated":
        executor = GatedExecutor(inst, journal=journal, checkpoint_every=2)
    elif parts[0] == "no-replans":
        executor = ResilientExecutor(inst, max_replans=0, journal=journal,
                                     checkpoint_every=2)
    elif parts[0] == "max-steps":
        executor = ResilientExecutor(
            inst, _injector("uniform", inst.topology), max_steps=12,
            journal=journal, checkpoint_every=2,
        )
    else:
        aware = parts[4] == "aware=1"
        budget = int(parts[5].split("=")[1])
        executor = ResilientExecutor(
            inst, _injector(parts[3], inst.topology),
            retry_budget=budget, max_replans=2 if budget > 1 else 40,
            fault_aware=aware, journal=journal, checkpoint_every=2,
        )
    return _batch_digest(executor, flushes, journal)


SERVE_CASES = {
    "supervised-chaos-paced": dict(
        pace=3,
        chaos=ChaosPlan((
            ChaosEvent(6, CHAOS_STALL, 0, duration=5),
            ChaosEvent(15, CHAOS_STALL, 1, duration=7),
            ChaosEvent(30, CHAOS_STALL, 0, duration=4),
        )),
    ),
    "plain-faulty": dict(pace=0, chaos=None),
}


def run_serve_case(case: str, tmp: Path) -> str:
    spec = SERVE_CASES[case]
    config = ServeConfig(
        arrivals="poisson", rate=6.0, messages=260, shards=2, seed=11,
        P=2, B=8, epoch=4, checkpoint_every=4, fault_rate=0.12,
        fault_seed=5, fault_aware=True, pace=spec["pace"],
    )
    journal = tmp / f"{case}.journal"
    report = ServiceLoop(config, chaos=spec["chaos"], journal=journal).run()
    records = [
        r for r in scan_journal(journal).records if r.get("type") != "meta"
    ]
    return _sha("\n".join((
        repr(sorted(report.completions.items())),
        repr([list(s.iter_timed()) for s in report.shard_schedules]),
        json.dumps(records, sort_keys=True),
    )))


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", list(batch_cases()))
def test_batch_gate_matches_golden(case, tmp_path):
    assert run_batch_case(case, tmp_path) == _golden()["batch"][case]


@pytest.mark.parametrize("case", sorted(SERVE_CASES))
def test_serve_gate_matches_golden(case, tmp_path):
    assert run_serve_case(case, tmp_path) == _golden()["serve"][case]


def test_golden_covers_faults_replans_and_stalls():
    """The grid really reaches the recovery ladder, not just happy paths."""
    inst = TREES["balanced"]()
    ex = ResilientExecutor(
        inst, _injector("uniform", inst.topology), retry_budget=1,
        max_replans=40, fault_aware=True,
    )
    ex.run(_flush_list(inst, "laminar"))
    assert ex.stats.replans > 0
    assert ex.stats.failed_attempts > 0
    assert ex.stats.partial_deliveries > 0
    assert ex.stats.stalled_skips + ex.stats.fault_aware_skips > 0


def main() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        doc = {
            "batch": {c: run_batch_case(c, tmp) for c in batch_cases()},
            "serve": {c: run_serve_case(c, tmp) for c in sorted(SERVE_CASES)},
        }
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc['batch'])} batch + {len(doc['serve'])} serve "
          f"digests to {GOLDEN}")


if __name__ == "__main__":
    main()
