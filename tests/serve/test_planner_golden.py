"""Golden digests of epoch planning and the paper pipeline.

:func:`repro.serve.planner.plan_flushes` is the serving loop's hot
path: every incremental and full re-plan goes through it.  These
digests pin its exact output — every flush, in order, with global
message ids — on a seeded grid, so a faster planner must emit the same
bytes:

* all-at-root input (the incremental path: packed sets -> reduction ->
  MPHTF -> Lemma 8 order) and mid-tree input (the full re-plan's online
  density path);
* ``P`` in {1, 4} and ``B`` in {8, 16, 64};
* a balanced tree and a B^eps-shaped tree;
* sparse, non-contiguous global ids, sorted and in arrival order.

The pipeline section pins what ``plan_flushes`` cannot reach: messages
with internal targets and dyadic float weights, digested stage by stage
(packed sets, reduced tasks, Horn densities and trees, Horn / PHTF /
MPHTF schedules, Lemma 8 flushes).  The ``solve_worms`` section pins the
final valid schedules at the E10 sizes 500 and 2000.

Regenerate ``planner_golden.json`` (only when behaviour is *meant* to
change) with ``PYTHONPATH=src python -m tests.serve.test_planner_golden``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import solve_worms
from repro.core.packed import build_packed_sets
from repro.core.reduction import reduce_to_scheduling
from repro.core.task_to_flush import task_schedule_to_flush_schedule
from repro.core.worms import WORMSInstance
from repro.scheduling import (
    compute_horn,
    horn_schedule,
    mphtf_schedule,
    phtf_schedule,
)
from repro.serve.planner import plan_flushes
from repro.tree import Message, balanced_tree, beps_shape_tree
from repro.workloads import uniform_instance

GOLDEN = Path(__file__).with_name("data") / "planner_golden.json"

TREES = {
    "balanced": lambda: balanced_tree(3, 4),
    "beps": lambda: beps_shape_tree(16, 0.5, 64),
}
PS = (1, 4)
BS = (8, 16, 64)
SIZES = (17, 120)
ORDERS = ("sorted", "arrival")


def _sha(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------
# plan_flushes
# ---------------------------------------------------------------------
def plan_cases():
    for tree in TREES:
        for mode in ("root", "midtree"):
            for P in PS:
                for B in BS:
                    for size in SIZES:
                        for order in ORDERS:
                            yield f"{tree}/{mode}/P={P}/B={B}/n={size}/{order}"


def plan_inputs(case: str):
    """Seeded ``plan_flushes`` arguments for one grid point."""
    tree, mode, p, b, size, order = case.split("/")
    topo = TREES[tree]()
    P = int(p.split("=")[1])
    B = int(b.split("=")[1])
    n = int(size.split("=")[1])
    seed = int(hashlib.sha256(case.encode()).hexdigest()[:8], 16)
    rng = np.random.default_rng(seed)
    ids = sorted(int(x) for x in rng.choice(50 * n, size=n, replace=False))
    if order == "arrival":
        ids = [ids[i] for i in rng.permutation(n)]
    leaves = np.asarray(topo.leaves)
    targets = {m: int(rng.choice(leaves)) for m in ids}
    locations = None
    if mode == "midtree":
        locations = {}
        for m in ids:
            path = topo.path_from_root(targets[m])
            # Park most messages somewhere on their path; keep a few at
            # the root and make sure at least one is mid-tree.
            locations[m] = int(path[int(rng.integers(0, len(path) - 1))])
        locations[ids[0]] = int(topo.path_from_root(targets[ids[0]])[1])
    return topo, P, B, ids, targets, locations


def run_plan_case(case: str) -> str:
    topo, P, B, ids, targets, locations = plan_inputs(case)
    flushes = plan_flushes(topo, P, B, ids, targets, locations)
    return _sha(repr([(f.src, f.dest, f.messages) for f in flushes]))


# ---------------------------------------------------------------------
# the paper pipeline on internal targets and dyadic float weights
# ---------------------------------------------------------------------
PIPELINE_CASES = {
    f"{tree}/{targets}/{weights}/P={P}/B={B}": (tree, targets, weights, P, B)
    for tree in TREES
    for targets in ("leaves", "internal")
    for weights in ("unit", "dyadic")
    for P, B in ((1, 8), (4, 16))
}


def pipeline_instance(case: str) -> WORMSInstance:
    tree, targets, weights, P, B = PIPELINE_CASES[case]
    topo = TREES[tree]()
    seed = int(hashlib.sha256(case.encode()).hexdigest()[:8], 16)
    rng = np.random.default_rng(seed)
    n = 150
    if targets == "leaves":
        pool = np.asarray(topo.leaves)
    else:
        pool = np.arange(1, topo.n_nodes)
    msgs = [Message(i, int(rng.choice(pool))) for i in range(n)]
    w = None
    if weights == "dyadic":
        # k / 2^e: exact binary fractions, from 1/64 up to ~1000.
        w = [float(int(rng.integers(0, 64_000))) / 2.0 ** int(rng.integers(0, 7))
             for _ in range(n)]
    return WORMSInstance(
        topo, msgs, P=P, B=B, weights=w,
        allow_internal_targets=targets == "internal",
    )


def run_pipeline_case(case: str) -> str:
    inst = pipeline_instance(case)
    packed = build_packed_sets(inst)
    reduced = reduce_to_scheduling(inst, packed)
    sched = reduced.scheduling
    horn = compute_horn(sched)
    overfilling = task_schedule_to_flush_schedule(
        reduced, mphtf_schedule(sched, horn)
    )
    return _sha("\n".join((
        repr([(s.parent_node, s.messages, s.child_group)
              for s in packed.sets]),
        repr(sched.parent.tolist()),
        repr(sched.weights.tolist()),
        repr([(e.set_index, e.src, e.dest, e.messages)
              for e in reduced.task_edges]),
        repr([str(d) for d in horn.task_density]),
        repr(horn.horn_root.tolist()),
        repr(horn_schedule(sched, horn).steps),
        repr(phtf_schedule(sched, horn).steps),
        repr(mphtf_schedule(sched, horn).steps),
        repr(list(overfilling.iter_timed())),
    )))


# ---------------------------------------------------------------------
# solve_worms at the E10 sizes
# ---------------------------------------------------------------------
SOLVE_SIZES = (500, 2000)


def run_solve_case(n_msgs: int) -> str:
    topo = beps_shape_tree(64, 0.5, max(64, n_msgs // 16))
    inst = uniform_instance(topo, n_msgs, P=4, B=64, seed=7)
    result = solve_worms(inst)
    return _sha("\n".join((
        repr(result.task_schedule.steps),
        repr(list(result.schedule.iter_timed())),
    )))


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", list(plan_cases()))
def test_plan_flushes_matches_golden(case):
    assert run_plan_case(case) == _golden()["plan"][case]


@pytest.mark.parametrize("case", sorted(PIPELINE_CASES))
def test_pipeline_matches_golden(case):
    assert run_pipeline_case(case) == _golden()["pipeline"][case]


@pytest.mark.parametrize("n_msgs", SOLVE_SIZES)
def test_solve_worms_matches_golden(n_msgs):
    assert run_solve_case(n_msgs) == _golden()["solve"][str(n_msgs)]


def test_grid_reaches_both_planner_paths_and_internal_targets():
    """The grid really exercises what its digests claim to pin."""
    _topo, _P, _B, ids, _targets, locations = plan_inputs(
        "beps/midtree/P=4/B=16/n=120/sorted"
    )
    assert any(locations[m] != 0 for m in ids)
    assert any(locations[m] == 0 for m in ids)
    inst = pipeline_instance("balanced/internal/dyadic/P=4/B=16")
    topo = inst.topology
    assert any(not topo.is_leaf(int(t)) for t in inst.targets)
    assert any(w != int(w) for w in inst.weights)


def main() -> None:
    doc = {
        "plan": {c: run_plan_case(c) for c in plan_cases()},
        "pipeline": {c: run_pipeline_case(c) for c in sorted(PIPELINE_CASES)},
        "solve": {str(n): run_solve_case(n) for n in SOLVE_SIZES},
    }
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc['plan'])} plan + {len(doc['pipeline'])} pipeline "
          f"+ {len(doc['solve'])} solve digests to {GOLDEN}")


if __name__ == "__main__":
    main()
