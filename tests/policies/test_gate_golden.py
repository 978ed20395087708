"""Golden digests of the flush gate, batch and serve, under faults.

The DAM gate (readiness, occupancy against ``B``, the ``P`` slots,
retry/backoff, stall skips) is shared by the batch executor and the
serving engine.  These digests pin what each caller realizes on a seeded
grid, so a change to how the gate is written must reproduce every
schedule, stat and journal byte.

Batch side: :class:`GatedExecutor` over balanced, path and B^eps trees
— fault-free with no re-plans (``gated``, as
:func:`~repro.policies.executor.execute_flush_list` runs it), and with
no injector, iid faults and Markov bursts; the default retry budget and
``retry_budget=1`` (every failure re-plans); two non-laminar lists (a
missing hop forces a deadlock re-plan); and the typed stalls at the end
of the recovery ladder (no re-plans left, ``max_steps`` hit).  Each
``batch`` digest covers the realized schedule (or the typed stall
error) and :class:`ResilienceStats`; ``batch_journal`` pins the full
journal bytes at ``checkpoint_every=2`` and ``batch_records`` its
scanned records, so a change to the journal format moves those two and
leaves the gate's digests alone.  The resilient case ids keep the
``aware=0`` segment they were captured under, when the gate still had a
fault-aware admission mode (its ``aware=1`` twins went with it).

Serve side: a run with iid faults and chaos stall windows, plus a faulty
run without chaos.  Each ``serve`` digest covers completions and
per-shard schedules, and ``serve_records`` every journal record except
``meta``.

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
from repro.policies import GatedExecutor, WormsPolicy
from repro.serve import ServeConfig, ServiceLoop
from repro.tree import balanced_tree, beps_shape_tree, path_tree
from repro.util.errors import ExecutionStalledError
from tests.conftest import make_uniform
from tests.journal_sweep import records_digest

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


def _stats_repr(stats) -> str:
    """``repr(stats)`` in the layout the digests were captured with:
    :class:`ResilienceStats` then also had two fault-aware counters,
    zero on every case kept here."""
    return repr(stats).replace(
        ", fault_events=",
        ", fault_aware_skips=0, degraded_triage_steps=0, fault_events=", 1,
    )


def _batch_digest(executor, flushes) -> str:
    try:
        schedule = executor.run(list(flushes))
        outcome = repr(list(schedule.iter_timed()))
    except ExecutionStalledError as err:
        outcome = f"stalled@{err.step}: {err}"
    return _sha("\n".join((outcome, _stats_repr(executor.stats))))


def batch_cases():
    for tree in TREES:
        for shape in LISTS:
            yield f"gated/{tree}/{shape}"
            for inj in INJECTORS:
                for budget in (5, 1):
                    yield f"resilient/{tree}/{shape}/{inj}/aware=0/" \
                          f"budget={budget}"
        # The ladder's last rung: out of re-plans, and out of steps.
        yield f"no-replans/{tree}/missing_hop"
        yield f"max-steps/{tree}/laminar"


def run_batch_case(case: str, tmp: Path) -> "tuple[str, str, str]":
    """The case's gate digest, its journal's bytes and its records."""
    parts = case.split("/")
    inst = TREES[parts[1]]()
    flushes = _flush_list(inst, parts[2])
    journal = tmp / "batch.journal"
    if parts[0] in ("gated", "no-replans"):
        executor = GatedExecutor(inst, max_replans=0, journal=journal,
                                 checkpoint_every=2)
    elif parts[0] == "max-steps":
        executor = GatedExecutor(
            inst, _injector("uniform", inst.topology), max_steps=12,
            journal=journal, checkpoint_every=2,
        )
    else:
        budget = int(parts[5].split("=")[1])
        executor = GatedExecutor(
            inst, _injector(parts[3], inst.topology),
            retry_budget=budget, max_replans=2 if budget > 1 else 40,
            journal=journal, checkpoint_every=2,
        )
    return (_batch_digest(executor, flushes),
            hashlib.sha256(journal.read_bytes()).hexdigest(),
            records_digest(journal))


SERVE_CASES = {
    "supervised-chaos": ChaosPlan((
        ChaosEvent(6, CHAOS_STALL, 0, duration=5),
        ChaosEvent(15, CHAOS_STALL, 1, duration=7),
        ChaosEvent(30, CHAOS_STALL, 0, duration=4),
    )),
    "plain-faulty": None,
}


def run_serve_case(case: str, tmp: Path) -> "tuple[str, str]":
    """The case's gate digest and its journal records'."""
    config = ServeConfig(
        arrivals="poisson", rate=6.0, messages=260, shards=2, seed=11,
        P=2, B=8, epoch=4, checkpoint_every=4, fault_rate=0.12,
        fault_seed=5,
    )
    journal = tmp / f"{case}.journal"
    report = ServiceLoop(
        config, chaos=SERVE_CASES[case], journal=journal
    ).run()
    records = [
        r for r in scan_journal(journal).records if r.get("type") != "meta"
    ]
    return (
        _sha("\n".join((
            repr(sorted(report.completions.items())),
            repr([list(s.iter_timed()) for s in report.shard_schedules]),
        ))),
        _sha(json.dumps(records, sort_keys=True)),
    )


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", list(batch_cases()))
def test_batch_gate_matches_golden(case, tmp_path):
    golden = _golden()
    assert run_batch_case(case, tmp_path) == (
        golden["batch"][case], golden["batch_journal"][case],
        golden["batch_records"][case],
    )


@pytest.mark.parametrize("case", sorted(SERVE_CASES))
def test_serve_gate_matches_golden(case, tmp_path):
    golden = _golden()
    assert run_serve_case(case, tmp_path) == (
        golden["serve"][case], golden["serve_records"][case]
    )


def test_golden_covers_faults_replans_and_stalls():
    """The grid really reaches the recovery ladder, not just happy paths."""
    inst = TREES["balanced"]()
    ex = GatedExecutor(
        inst, _injector("uniform", inst.topology), retry_budget=1,
        max_replans=40,
    )
    ex.run(_flush_list(inst, "laminar"))
    assert ex.stats.replans > 0
    assert ex.stats.failed_attempts > 0
    assert ex.stats.partial_deliveries > 0
    assert ex.stats.stalled_skips > 0


def main() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        batch = {c: run_batch_case(c, tmp) for c in batch_cases()}
        serve = {c: run_serve_case(c, tmp) for c in sorted(SERVE_CASES)}
        doc = {
            "batch": {c: d[0] for c, d in batch.items()},
            "batch_journal": {c: d[1] for c, d in batch.items()},
            "batch_records": {c: d[2] for c, d in batch.items()},
            "serve": {c: d[0] for c, d in serve.items()},
            "serve_records": {c: d[1] for c, d in serve.items()},
        }
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc['batch'])} batch + {len(doc['serve'])} serve "
          f"digests to {GOLDEN}")


if __name__ == "__main__":
    main()
