"""Per-plan cost of the serve planner, stage by stage.

The serving loop re-plans every epoch on tiny instances (~16-19
messages), so what a plan costs is mostly per-plan setup, not the
algorithms.  This bench captures every ``plan_flushes`` call of a
:class:`~repro.serve.ServiceLoop` run on e2ebench ``serve_steady``'s
config (Poisson 8 msgs/step, uniform keys, 4 shards, ``P=4``, ``B=16``,
seed 1) and replays the captured inputs through each planning stage:

* ``kernel`` — the flat cores :func:`repro.serve.planner.plan_flushes`
  runs: ``pack_sets`` (packed), ``reduce_sets`` (reduce), the task
  forest plus ``horn_trees`` (horn), ``phtf_steps`` plus ``mphtf_steps``
  (mphtf), ``online_flushes`` (online), and ``remap_flushes``, the
  sub-id -> global-id mapping into :class:`~repro.dam.schedule.Flush`
  objects (remap);
* ``objects`` — the object APIs over the same inputs: ``WORMSInstance``
  (instance), ``build_packed_sets``, ``reduce_to_scheduling``,
  ``compute_horn``, ``mphtf_schedule``, ``online_density_schedule`` and
  the remap from their task edges / flush schedule.  Before the kernel,
  this chain *was* ``plan_flushes``; it runs unchanged on such a
  checkout, which is how the ``parent`` figures were taken.

Figures are µs per plan: packed/reduce/horn/mphtf per all-at-root plan,
online per mid-tree plan, instance and remap per plan of either kind,
``plan_flushes`` per plan of its path (root / midtree); each is the
least of ``--reps`` passes over all captured plans, divided by the
host's slowdown during that pass (a calibration loop timed around it,
as e2ebench does), so runs taken at different times compare.  Every
replayed plan is checked against the flushes the run planned.

Full run (80k messages; writes the ``change`` section of
``results/BENCH_plan.json``)::

    PYTHONPATH=src:. python benchmarks/bench_plan.py

Object stages only against an older checkout's ``src`` (how the
``parent`` section was written)::

    PYTHONPATH=<old checkout>/src python benchmarks/bench_plan.py \
        --stages objects --section parent

Quick mode (a 4k-message capture; parity plus one timed pass, writes
nothing; needs no pytest-benchmark)::

    PYTHONPATH=src:. python -m pytest benchmarks/bench_plan.py -q
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import platform
import sys
import time

if __package__ in (None, ""):  # run as a script: make benchmarks importable
    sys.path.insert(
        0, os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )

import repro.serve.planner as planner_mod
from benchmarks.common import RESULTS_DIR
from repro.dam.schedule import Flush
from repro.serve import ServeConfig, ServiceLoop

ARTIFACT = "BENCH_plan.json"
FULL_MESSAGES = 80_000
QUICK_MESSAGES = 4_000


def serve_steady_config(messages: int) -> ServeConfig:
    """e2ebench ``serve_steady``'s config, seed 1."""
    return ServeConfig(
        arrivals="poisson", rate=8.0, messages=messages,
        shards=4, P=4, B=16, theta=0.0, seed=1,
    )


def capture(messages: int) -> "list[tuple]":
    """Run the loop; return one ``(topology, P, B, ids, targets,
    starts, flushes)`` per ``plan_flushes`` call.  ``targets``/``starts``
    are per sub-id lists (``starts`` is None for all-at-root plans)."""
    plan_flushes = planner_mod.plan_flushes
    plans = []

    def recording(topology, P, B, msg_ids, targets, locations=None):
        flushes = plan_flushes(topology, P, B, msg_ids, targets, locations)
        ids = list(msg_ids)
        starts = None
        if locations is not None:
            starts = [locations[m] for m in ids]
            if all(v == topology.root for v in starts):
                starts = None
        plans.append((
            topology, P, B, ids, [targets[m] for m in ids], starts,
            [(f.src, f.dest, f.messages) for f in flushes],
        ))
        return flushes

    planner_mod.plan_flushes = recording
    try:
        ServiceLoop(serve_steady_config(messages)).run()
    finally:
        planner_mod.plan_flushes = plan_flushes
    return plans


def objects_chain():
    """The object-API chain, as ``run(plan, acc) -> flushes``.

    ``run`` adds each stage's seconds into ``acc``; every stage builds
    its objects fresh, as ``plan_flushes`` did before the kernel.
    """
    from repro.core.packed import build_packed_sets
    from repro.core.reduction import reduce_to_scheduling
    from repro.core.worms import WORMSInstance
    from repro.policies.online import online_density_schedule
    from repro.scheduling.horn import compute_horn
    from repro.scheduling.mphtf import mphtf_schedule
    from repro.tree.messages import Message

    clock = time.perf_counter

    def run(plan, acc):
        topo, P, B, ids, targets, starts, _want = plan
        t0 = clock()
        inst = WORMSInstance(
            topo, [Message(i, t) for i, t in enumerate(targets)],
            P=P, B=B, start_nodes=starts,
        )
        t1 = clock()
        acc["instance"] += t1 - t0
        if starts is None:
            packed = build_packed_sets(inst)
            t2 = clock()
            reduced = reduce_to_scheduling(inst, packed)
            t3 = clock()
            horn = compute_horn(reduced.scheduling)
            t4 = clock()
            sigma = mphtf_schedule(reduced.scheduling, horn)
            t5 = clock()
            edges = reduced.task_edges
            flushes = []
            for step in sigma.steps:
                for j in step:
                    e = edges[j]
                    flushes.append(Flush(
                        e.src, e.dest, tuple([ids[i] for i in e.messages])
                    ))
            t6 = clock()
            acc["packed"] += t2 - t1
            acc["reduce"] += t3 - t2
            acc["horn"] += t4 - t3
            acc["mphtf"] += t5 - t4
            acc["remap"] += t6 - t5
            return flushes
        planned = online_density_schedule(inst)
        t2 = clock()
        flushes = [
            Flush(f.src, f.dest, tuple(ids[i] for i in f.messages))
            for _t, f in planned.iter_timed()
        ]
        acc["online"] += t2 - t1
        acc["remap"] += clock() - t2
        return flushes

    return run


def kernel_chain():
    """The flat cores ``plan_flushes`` runs, as ``run(plan, acc) ->
    flushes`` (see :func:`objects_chain`)."""
    from repro.core.packed import pack_sets
    from repro.core.reduction import reduce_sets
    from repro.policies.online import online_flushes
    from repro.scheduling.horn import density_priorities, horn_trees
    from repro.scheduling.instance import task_forest
    from repro.scheduling.mphtf import mphtf_steps
    from repro.scheduling.phtf import phtf_steps
    from repro.serve.planner import remap_flushes

    clock = time.perf_counter

    def run(plan, acc):
        topo, P, B, ids, targets, starts, _want = plan
        tables = topo.tables
        t1 = clock()
        if starts is None:
            _n, set_node, set_msgs, _c = pack_sets(tables, targets, B)
            t2 = clock()
            parent, weight, _s, src, dest, msgs = reduce_sets(
                tables, targets, set_node, set_msgs
            )
            t3 = clock()
            children, roots, order = task_forest(parent)
            key, _, _, tree_of = horn_trees(children, order, weight)
            prio = density_priorities(key)
            t4 = clock()
            steps = mphtf_steps(
                children, roots, prio, tree_of, P,
                phtf_steps(children, roots, prio, P),
            )
            t5 = clock()
            flushes = remap_flushes(ids, [
                (src[j], dest[j], msgs[j]) for step in steps for j in step
            ])
            t6 = clock()
            acc["packed"] += t2 - t1
            acc["reduce"] += t3 - t2
            acc["horn"] += t4 - t3
            acc["mphtf"] += t5 - t4
            acc["remap"] += t6 - t5
            return flushes
        planned = online_flushes(tables, targets, starts, P, B)
        t2 = clock()
        flushes = remap_flushes(
            ids, [(v, c, ms) for _t, v, c, ms in planned]
        )
        acc["online"] += t2 - t1
        acc["remap"] += clock() - t2
        return flushes

    return run


def whole_chain():
    """``plan_flushes`` itself, as ``run(plan, acc) -> flushes`` (see
    :func:`objects_chain`), timed per planner path."""
    clock = time.perf_counter

    def run(plan, acc):
        topo, P, B, ids, targets, starts, _want = plan
        tmap = dict(zip(ids, targets))
        lmap = None if starts is None else dict(zip(ids, starts))
        t0 = clock()
        flushes = planner_mod.plan_flushes(topo, P, B, ids, tmap, lmap)
        acc["root" if starts is None else "midtree"] += clock() - t0
        return flushes

    return run


CHAINS = {
    "plan_flushes": whole_chain, "objects": objects_chain,
    "kernel": kernel_chain,
}
#: stages timed on all-at-root plans / mid-tree plans; the rest (instance,
#: remap) run on every plan.
ROOT_STAGES = ("packed", "reduce", "horn", "mphtf", "root")
MIDTREE_STAGES = ("online", "midtree")


#: A fixed pure-Python loop timed before and after every pass, and its
#: time in the fast state of the reference host (a 2-vCPU shared VM whose
#: CPUs drift between a fast state and one ~1.5-1.8x slower for tens of
#: seconds at a time).  Pass times are divided by the loop's slowdown, so
#: figures from different runs (and checkouts) compare.
CAL_ITERS = 600_000
CAL_REF_S = 0.043


def _calibration() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(CAL_ITERS):
        s += i * i % 7
    return time.perf_counter() - t0


def measure(plans, reps: int, which: "tuple[str, ...]") -> dict:
    """µs per plan, per chain and stage: the least total over ``reps``
    passes, scaled to the reference host's fast state.  Passes of the
    chains alternate, so drift hits them alike; every pass checks each
    plan against the run's flushes."""
    runs = {label: CHAINS[label]() for label in which}
    best: "dict[str, dict[str, float]]" = {label: {} for label in which}
    slowdowns = []
    for _ in range(reps):
        for label, run in runs.items():
            acc = collections.defaultdict(float)
            gc.collect()
            before = _calibration()
            for plan in plans:
                got = run(plan, acc)
                assert [
                    (f.src, f.dest, f.messages) for f in got
                ] == plan[6], f"{label}: replayed plan differs"
            slowdown = (before + _calibration()) / 2 / CAL_REF_S
            slowdowns.append(slowdown)
            for stage, seconds in acc.items():
                best[label][stage] = min(
                    best[label].get(stage, float("inf")), seconds / slowdown
                )
    n_root = sum(1 for p in plans if p[5] is None)
    n_mid = len(plans) - n_root

    def per_plan(stage: str, seconds: float) -> float:
        n = (
            n_root if stage in ROOT_STAGES
            else n_mid if stage in MIDTREE_STAGES else len(plans)
        )
        return round(seconds * 1e6 / max(1, n), 1)

    doc = {
        "plans": {"root": n_root, "midtree": n_mid},
        "slowdown": [round(min(slowdowns), 2), round(max(slowdowns), 2)],
    }
    for label in which:
        doc[f"{label}_us"] = {
            stage: per_plan(stage, seconds)
            for stage, seconds in sorted(best[label].items())
        }
    return doc


def test_plan_stages_quick():
    """``plan_flushes`` and both stage chains reproduce every captured
    plan of a short run (one timed pass each)."""
    plans = capture(QUICK_MESSAGES)
    doc = measure(plans, 1, tuple(CHAINS))
    assert doc["plans"]["root"] > 0 and doc["plans"]["midtree"] > 0
    assert doc["kernel_us"]["packed"] > 0 and doc["kernel_us"]["online"] > 0


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--messages", type=int, default=FULL_MESSAGES)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--stages", choices=("both", "objects", "kernel"),
                        default="both")
    parser.add_argument("--section", default="change",
                        help="results section to write (default: change)")
    parser.add_argument("--print", action="store_true",
                        help="print the figures instead of writing them")
    args = parser.parse_args(argv)
    which = ("plan_flushes",) + (
        ("objects", "kernel") if args.stages == "both" else (args.stages,)
    )
    doc = measure(capture(args.messages), args.reps, which)
    doc["messages"] = args.messages
    doc["reps"] = args.reps
    doc["host"] = f"{platform.machine()}, Python {platform.python_version()}"
    if args.print:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return
    path = os.path.join(RESULTS_DIR, ARTIFACT)
    existing = {}
    if os.path.exists(path):
        with open(path) as fh:
            existing = json.load(fh)
    existing[args.section] = doc
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(existing, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(doc, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
