"""Per-plan cost of the serve planner, stage by stage.

The serving loop re-plans every epoch on tiny instances (~12-19
messages), so what a plan costs is mostly per-plan setup, not the
algorithms.  This bench captures every ``plan_flushes`` call of a
:class:`~repro.serve.ServiceLoop` run on e2ebench ``serve_steady``'s
config (Poisson 8 msgs/step, uniform keys, 4 shards, ``P=4``, ``B=16``,
seed 1; ``--epoch`` steps between plans, 8 by default) and replays the
captured inputs, each plan on its path — *root* (a re-plan made while
every in-flight message is at the root) or *midtree* (a re-plan with
messages parked below the root):

* ``plan_flushes`` — :func:`repro.serve.planner.plan_flushes` itself;
* ``kernel`` — the same pipeline, timed stage by stage: grouping the
  messages by current node (group), ``pack_sets`` per group (packed),
  one ``reduce_sets`` into one task forest (reduce), ``horn_trees`` and
  the density priorities (horn), ``mphtf_order``, PHTF and MPHTF in one
  loop (mphtf), and the plan's lists in MPHTF's order (emit);
* ``parent`` (with ``--parent-src``) — ``plan_flushes`` of another
  checkout's ``src``, imported beside this one's.

Figures are µs per plan of the path; each is the least of ``--reps``
passes over all captured plans, divided by the host's slowdown during
that pass (a calibration loop timed around it, as e2ebench does).
Within a pass the chains take turns plan by plan, in one process, so
host drift hits them alike.  Every replayed plan is checked against the
plan the run made.

Full run at both epochs, against the parent commit (writes the
``parent`` and ``change`` sections of ``results/BENCH_plan.json``)::

    git archive <parent> | tar -x -C /tmp/parent
    PYTHONPATH=src:. python benchmarks/bench_plan.py --epoch 8 \
        --parent-src /tmp/parent/src
    PYTHONPATH=src:. python benchmarks/bench_plan.py --epoch 1 \
        --parent-src /tmp/parent/src

Quick mode (a 4k-message capture; parity plus one timed pass, writes
nothing; needs no pytest-benchmark)::

    PYTHONPATH=src:. python -m pytest benchmarks/bench_plan.py -q
"""

from __future__ import annotations

import argparse
import collections
import gc
import importlib
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
DEFAULT_EPOCH = 8


def serve_steady_config(messages: int, epoch: int) -> ServeConfig:
    """e2ebench ``serve_steady``'s config, seed 1, planning every
    ``epoch`` steps."""
    return ServeConfig(
        arrivals="poisson", rate=8.0, messages=messages,
        shards=4, P=4, B=16, theta=0.0, seed=1, epoch=epoch,
    )


def _triples(plan) -> "list[tuple]":
    """``(src, dest, messages)`` per planned flush: of a flat plan, or of
    the ``Flush`` list an older checkout's ``plan_flushes`` returns."""
    if hasattr(plan, "src"):
        return list(zip(plan.src, plan.dest, plan.msgs))
    return [(f.src, f.dest, f.messages) for f in plan]


def capture(messages: int, epoch: int = DEFAULT_EPOCH) -> "list[tuple]":
    """Run the loop; return one ``(topology, P, B, ids, targets,
    starts, kwargs, planned)`` per ``plan_flushes`` call.
    ``targets``/``starts`` are per-message lists (``starts`` is None for
    a call without locations); ``kwargs`` are the call's keywords (age
    weights); ``planned`` is the plan's ``(src, dest, messages)``
    triples."""
    plan_flushes = planner_mod.plan_flushes
    plans = []

    def recording(topology, P, B, msg_ids, targets, locations=None, **kw):
        plan = plan_flushes(topology, P, B, msg_ids, targets, locations,
                            **kw)
        ids = list(msg_ids)
        starts = (
            None if locations is None else [locations[m] for m in ids]
        )
        plans.append((
            topology, P, B, ids, [targets[m] for m in ids], starts, kw,
            _triples(plan),
        ))
        return plan

    planner_mod.plan_flushes = recording
    try:
        ServiceLoop(serve_steady_config(messages, epoch)).run()
    finally:
        planner_mod.plan_flushes = plan_flushes
    return plans


def _path(plan) -> str:
    topology, starts = plan[0], plan[5]
    if starts is None or all(v == topology.root for v in starts):
        return "root"
    return "midtree"


def kernel_chain():
    """The pipeline ``plan_flushes`` runs, as ``run(plan, acc) ->
    planned triples``; ``run`` adds each stage's seconds into ``acc``."""
    from repro.core.packed import pack_sets
    from repro.core.reduction import reduce_sets
    from repro.scheduling.horn import density_priorities, horn_trees
    from repro.scheduling.mphtf import mphtf_order
    from repro.serve.planner import PLAN_DENOM

    clock = time.perf_counter

    def run(plan, acc):
        topo, P, B, ids, targets, starts, kw, _want = plan
        tables = topo.tables
        tmap = dict(zip(ids, targets))
        weights = kw.get("weights")
        t0 = clock()
        groups: "dict[int, list[int]]" = {}
        for m, v in zip(ids, starts or [tables.root] * len(ids)):
            groups.setdefault(v, []).append(m)
        weight_of = None if weights is None else dict(zip(ids, weights))
        t1 = clock()
        set_node, set_msgs, set_split, set_top = [], [], [], []
        for top in sorted(groups):
            _n, nodes, tuples, splits = pack_sets(
                tables, tmap, groups[top], B, PLAN_DENOM, top
            )
            set_node += nodes
            set_msgs += tuples
            set_split += splits
            set_top += [top] * len(nodes)
        t2 = clock()
        tasks = reduce_sets(tables, tmap, set_node, set_msgs, set_split,
                            weight_of, set_top)
        t3 = clock()
        key, _, f_size, tree_of = horn_trees(
            tasks.children, range(len(tasks.weight)), tasks.weight
        )
        prio = density_priorities(key)
        t4 = clock()
        order, _ends = mphtf_order(tasks.children, tasks.roots, prio,
                                   tree_of, f_size, P)
        t5 = clock()
        src, dest, msgs = tasks.src, tasks.dest, tasks.msgs
        planned = list(zip(
            [src[j] for j in order], [dest[j] for j in order],
            [msgs[j] for j in order] if ids == sorted(ids)
            else [tuple(sorted(msgs[j])) for j in order],
        ))
        t6 = clock()
        acc["group"] += t1 - t0
        acc["packed"] += t2 - t1
        acc["reduce"] += t3 - t2
        acc["horn"] += t4 - t3
        acc["mphtf"] += t5 - t4
        acc["emit"] += t6 - t5
        return planned

    return run


def whole_chain(plan_flushes=None):
    """``plan_flushes`` itself, as ``run(plan, acc) -> planned triples``
    (see :func:`kernel_chain`)."""
    clock = time.perf_counter

    def run(plan, acc):
        topo, P, B, ids, targets, starts, kw, _want = plan
        tmap = dict(zip(ids, targets))
        lmap = None if starts is None else dict(zip(ids, starts))
        fn = plan_flushes or planner_mod.plan_flushes
        t0 = clock()
        planned = fn(topo, P, B, ids, tmap, lmap, **kw)
        acc["all"] += clock() - t0
        return _triples(planned)

    return run


def load_plan_flushes(src: str):
    """``plan_flushes`` of the checkout whose package is under ``src``,
    imported beside this one's: the ``repro`` modules are swapped out of
    ``sys.modules`` while it loads, and back in after."""
    def ours() -> "dict[str, object]":
        return {
            name: module for name, module in sys.modules.items()
            if name == "repro" or name.startswith("repro.")
        }

    saved = ours()
    for name in saved:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        plan_flushes = importlib.import_module(
            "repro.serve.planner"
        ).plan_flushes
    finally:
        sys.path.remove(src)
        for name in ours():
            del sys.modules[name]
        sys.modules.update(saved)
    return plan_flushes


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


def measure(plans, reps: int, runs: "dict[str, object]") -> dict:
    """µs per plan, per chain (``runs``: label -> ``run``), path and
    stage: the least total over ``reps`` passes, scaled to the reference
    host's fast state.  Within a pass each plan is replayed by every
    chain in turn, the order rotating from plan to plan, so host drift
    and warm caches hit the chains alike; every replay is checked
    against the plan the run made."""
    labels = list(runs)
    paths = ("root", "midtree")
    best: "dict[tuple[str, str], dict[str, float]]" = {
        (label, path): {} for label in labels for path in paths
    }
    slowdowns = []
    for _ in range(reps):
        acc = {
            key: collections.defaultdict(float) for key in best
        }
        gc.collect()
        before = _calibration()
        for i, plan in enumerate(plans):
            path = _path(plan)
            turn = i % len(labels)
            for label in labels[turn:] + labels[:turn]:
                got = runs[label](plan, acc[label, path])
                assert got == plan[7], f"{label}: replayed plan differs"
        slowdown = (before + _calibration()) / 2 / CAL_REF_S
        slowdowns.append(slowdown)
        for key, stages in acc.items():
            for stage, seconds in stages.items():
                best[key][stage] = min(
                    best[key].get(stage, float("inf")), seconds / slowdown
                )
    counts = collections.Counter(map(_path, plans))
    doc = {
        "plans": {path: counts[path] for path in paths},
        "slowdown": [round(min(slowdowns), 2), round(max(slowdowns), 2)],
    }
    for label in labels:
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
    doc = measure(plans, 1, {
        "plan_flushes": whole_chain(), "kernel": kernel_chain(),
    })
    assert doc["plans"]["root"] > 0 and doc["plans"]["midtree"] > 0
    for path in ("root", "midtree"):
        assert doc["kernel_us"][path]["packed"] > 0
        assert doc["kernel_us"][path]["mphtf"] > 0


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--messages", type=int, default=FULL_MESSAGES)
    parser.add_argument("--epoch", type=int, default=DEFAULT_EPOCH,
                        help="steps between plans (serve --epoch)")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--parent-src",
                        help="also time plan_flushes of the checkout "
                             "whose package is under this src directory")
    parser.add_argument("--print", action="store_true",
                        help="print the figures instead of writing them")
    args = parser.parse_args(argv)
    plans = capture(args.messages, args.epoch)
    # The whole chains take turns; the stage chain, whose timers and
    # extra lists would weigh on the turns, is timed on its own.
    runs = {"plan_flushes": whole_chain()}
    if args.parent_src:
        runs["parent"] = whole_chain(load_plan_flushes(args.parent_src))
    doc = measure(plans, args.reps, runs)
    stages = measure(plans, args.reps, {"kernel": kernel_chain()})
    common = {
        "messages": args.messages, "reps": args.reps,
        "plans": doc["plans"], "slowdown": doc["slowdown"],
        "host": f"{platform.machine()}, Python {platform.python_version()}",
    }
    sections = {"change": dict(
        common, plan_flushes_us=doc["plan_flushes_us"],
        kernel_us=stages["kernel_us"],
    )}
    if args.parent_src:
        sections["parent"] = dict(common, plan_flushes_us=doc["parent_us"])
    if args.print:
        print(json.dumps(sections, indent=2, sort_keys=True))
        return
    path = os.path.join(RESULTS_DIR, ARTIFACT)
    existing = {}
    if os.path.exists(path):
        with open(path) as fh:
            existing = json.load(fh)
    for section, figures in sections.items():
        existing.setdefault(section, {})[f"epoch_{args.epoch}"] = figures
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(existing, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(sections, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
