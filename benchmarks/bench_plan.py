"""Per-plan cost of the serve planner, stage by stage.

The serving loop re-plans every epoch on tiny instances (~16-19
messages), so what a plan costs is mostly per-plan setup, not the
algorithms.  This bench captures every ``plan_flushes`` call of a
:class:`~repro.serve.ServiceLoop` run on e2ebench ``serve_steady``'s
config (Poisson 8 msgs/step, uniform keys, 4 shards, ``P=4``, ``B=16``,
seed 1) and replays the captured inputs, each plan on its path — *root*
(a re-plan made while every in-flight message is at the root) or
*midtree* (a re-plan with messages parked below the root):

* ``plan_flushes`` — :func:`repro.serve.planner.plan_flushes` itself;
* ``kernel`` — the same grouped pipeline, timed stage by stage:
  grouping the messages by current node (group), ``pack_sets``
  (packed), ``reduce_sets`` (reduce), joining each group's task forest
  and building its :class:`~repro.dam.schedule.Flush` objects (join),
  the task forest plus ``horn_trees`` (horn), ``phtf_steps`` plus
  ``mphtf_steps`` (mphtf) and the flushes in MPHTF's step order (order).

Figures are µs per plan of the path; each is the least of ``--reps``
passes over all captured plans, divided by the host's slowdown during
that pass (a calibration loop timed around it, as e2ebench does), so
runs taken at different times compare.  Every replayed plan is checked
against the flushes the run planned.

Full run (80k messages; writes the ``change`` section of
``results/BENCH_plan.json``)::

    PYTHONPATH=src:. python benchmarks/bench_plan.py

``plan_flushes`` alone against an older checkout's ``src`` (how the
``parent`` section was written)::

    PYTHONPATH=<old checkout>/src python benchmarks/bench_plan.py \
        --stages plan_flushes --section parent

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
    starts, kwargs, flushes)`` per ``plan_flushes`` call.
    ``targets``/``starts`` are per sub-id lists (``starts`` is None for
    all-at-root plans); ``kwargs`` are the call's keywords (age
    weights)."""
    plan_flushes = planner_mod.plan_flushes
    plans = []

    def recording(topology, P, B, msg_ids, targets, locations=None, **kw):
        flushes = plan_flushes(topology, P, B, msg_ids, targets, locations,
                               **kw)
        ids = list(msg_ids)
        starts = None
        if locations is not None:
            starts = [locations[m] for m in ids]
            if all(v == topology.root for v in starts):
                starts = None
        plans.append((
            topology, P, B, ids, [targets[m] for m in ids], starts, kw,
            [(f.src, f.dest, f.messages) for f in flushes],
        ))
        return flushes

    planner_mod.plan_flushes = recording
    try:
        ServiceLoop(serve_steady_config(messages)).run()
    finally:
        planner_mod.plan_flushes = plan_flushes
    return plans


def _path(plan) -> str:
    return "root" if plan[5] is None else "midtree"


def kernel_chain():
    """The grouped pipeline ``plan_flushes`` runs, as ``run(plan, acc)
    -> flushes``; ``run`` adds each stage's seconds into ``acc``."""
    from repro.core.packed import pack_sets
    from repro.core.reduction import reduce_sets
    from repro.dam.schedule import Flush
    from repro.scheduling.horn import density_priorities, horn_trees
    from repro.scheduling.instance import task_forest
    from repro.scheduling.mphtf import mphtf_steps
    from repro.scheduling.phtf import phtf_steps
    from repro.serve.planner import PLAN_DENOM

    clock = time.perf_counter
    presorted = Flush.presorted

    def run(plan, acc):
        topo, P, B, ids, targets, starts, kw, _want = plan
        tables = topo.tables
        weights = kw.get("weights")
        t0 = clock()
        groups: "dict[int, list[int]]" = {}
        for i, v in enumerate(starts or [tables.root] * len(ids)):
            groups.setdefault(v, []).append(i)
        split = []
        for top in sorted(groups):
            group = groups[top]
            split.append((
                top, [ids[i] for i in group], [targets[i] for i in group],
                None if weights is None else [weights[i] for i in group],
            ))
        acc["group"] += clock() - t0
        parent: "list[int]" = []
        weight: "list[int]" = []
        flushes = []
        for top, gids, gtargets, gweights in split:
            t1 = clock()
            _n, set_node, set_msgs, _c = pack_sets(
                tables, gtargets, B, PLAN_DENOM, top
            )
            t2 = clock()
            g_parent, g_weight, _s, src, dest, msgs = reduce_sets(
                tables, gtargets, set_node, set_msgs, gweights, top
            )
            t3 = clock()
            if flushes:
                offset = len(flushes)
                g_parent = [j + offset if j >= 0 else -1 for j in g_parent]
            parent += g_parent
            weight += g_weight
            flushes += map(presorted, src, dest, [
                tuple([gids[i] for i in ms]) for ms in msgs
            ])
            t4 = clock()
            acc["packed"] += t2 - t1
            acc["reduce"] += t3 - t2
            acc["join"] += t4 - t3
        t5 = clock()
        children, roots, order = task_forest(parent)
        key, _, _, tree_of = horn_trees(children, order, weight)
        prio = density_priorities(key)
        t6 = clock()
        steps = mphtf_steps(
            children, roots, prio, tree_of, P,
            phtf_steps(children, roots, prio, P),
        )
        t7 = clock()
        planned = [flushes[j] for step in steps for j in step]
        acc["horn"] += t6 - t5
        acc["mphtf"] += t7 - t6
        acc["order"] += clock() - t7
        return planned

    return run


def whole_chain():
    """``plan_flushes`` itself, as ``run(plan, acc) -> flushes`` (see
    :func:`kernel_chain`)."""
    clock = time.perf_counter

    def run(plan, acc):
        topo, P, B, ids, targets, starts, kw, _want = plan
        tmap = dict(zip(ids, targets))
        lmap = None if starts is None else dict(zip(ids, starts))
        t0 = clock()
        flushes = planner_mod.plan_flushes(topo, P, B, ids, tmap, lmap, **kw)
        acc["all"] += clock() - t0
        return flushes

    return run


CHAINS = {"plan_flushes": whole_chain, "kernel": kernel_chain}


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
    """µs per plan, per chain, path and stage: the least total over
    ``reps`` passes, scaled to the reference host's fast state.  Passes
    of the chains alternate, so drift hits them alike; every pass checks
    each plan against the run's flushes."""
    runs = {label: CHAINS[label]() for label in which}
    paths = ("root", "midtree")
    best: "dict[tuple[str, str], dict[str, float]]" = {
        (label, path): {} for label in which for path in paths
    }
    slowdowns = []
    for _ in range(reps):
        for label, run in runs.items():
            acc = {path: collections.defaultdict(float) for path in paths}
            gc.collect()
            before = _calibration()
            for plan in plans:
                got = run(plan, acc[_path(plan)])
                assert [
                    (f.src, f.dest, f.messages) for f in got
                ] == plan[7], f"{label}: replayed plan differs"
            slowdown = (before + _calibration()) / 2 / CAL_REF_S
            slowdowns.append(slowdown)
            for path in paths:
                stages = best[label, path]
                for stage, seconds in acc[path].items():
                    stages[stage] = min(
                        stages.get(stage, float("inf")), seconds / slowdown
                    )
    counts = collections.Counter(map(_path, plans))
    doc = {
        "plans": {path: counts[path] for path in paths},
        "slowdown": [round(min(slowdowns), 2), round(max(slowdowns), 2)],
    }
    for label in which:
        doc[f"{label}_us"] = {
            path: {
                stage: round(seconds * 1e6 / max(1, counts[path]), 1)
                for stage, seconds in sorted(best[label, path].items())
            }
            for path in paths
        }
    return doc


def test_plan_stages_quick():
    """``plan_flushes`` and the stage chain reproduce every captured
    plan of a short run (one timed pass each), on both paths."""
    plans = capture(QUICK_MESSAGES)
    doc = measure(plans, 1, tuple(CHAINS))
    assert doc["plans"]["root"] > 0 and doc["plans"]["midtree"] > 0
    for path in ("root", "midtree"):
        assert doc["kernel_us"][path]["packed"] > 0
        assert doc["kernel_us"][path]["mphtf"] > 0


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--messages", type=int, default=FULL_MESSAGES)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--stages", choices=("both", "plan_flushes"),
                        default="both",
                        help="plan_flushes alone runs on older checkouts")
    parser.add_argument("--section", default="change",
                        help="results section to write (default: change)")
    parser.add_argument("--print", action="store_true",
                        help="print the figures instead of writing them")
    args = parser.parse_args(argv)
    which = ("plan_flushes",) + (
        ("kernel",) if args.stages == "both" else ()
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
