"""E7: the Lemma 1 conversion — validity rate and measured inflation.

Findings R2/R4: the literal Section-3.1 construction usually produces a
valid schedule whose cost inflation is far below the proven c1 = 169, but
on a minority of instances it is invalid and the package falls back to
the always-valid serial schedule.  Mostly that is ``U_r`` draining packed
sets that have not reached their parent yet (a message flushed from a
node it is not at; ``run_case(seed=1466, height=2, n_msgs=2, P=1, B=7)``
is the smallest known case), rarely a ``U`` chain split at an epoch
boundary (EXPERIMENTS.md, R4).
"""

from __future__ import annotations

import numpy as np

from benchmarks.common import emit_table
from repro.core.packed import build_packed_sets
from repro.core.reduction import reduce_to_scheduling
from repro.core.task_to_flush import task_schedule_to_flush_schedule
from repro.core.valid_conversion import (
    literal_lemma1_schedule,
    serial_fallback_schedule,
)
from repro.dam import simulate
from repro.scheduling import mphtf_schedule
from repro.tree import random_tree
from repro.workloads import uniform_instance


def run_case(seed: int, height: int, n_msgs: int, P: int, B: int):
    topo = random_tree(height=height, min_fanout=2, max_fanout=3, seed=seed)
    inst = uniform_instance(topo, n_msgs, P=P, B=B, seed=seed)
    packed = build_packed_sets(inst)
    red = reduce_to_scheduling(inst, packed)
    over = task_schedule_to_flush_schedule(red, mphtf_schedule(red.scheduling))
    over_cost = simulate(inst, over).total_completion_time
    lit = literal_lemma1_schedule(inst, packed, over)
    lit_res = simulate(inst, lit)
    fb = serial_fallback_schedule(inst, packed, over)
    fb_cost = simulate(inst, fb).total_completion_time
    return over_cost, lit_res, fb_cost


def test_e7_lemma1_validity_and_inflation(benchmark):
    rng = np.random.default_rng(0)
    valid, invalid = 0, 0
    inflations, fb_inflations = [], []
    for trial in range(40):
        over_cost, lit_res, fb_cost = run_case(
            seed=trial,
            height=int(rng.integers(1, 4)),
            n_msgs=int(rng.integers(20, 400)),
            P=int(rng.integers(1, 4)),
            B=int(rng.integers(6, 48)),
        )
        if over_cost == 0:
            continue
        if lit_res.is_valid:
            valid += 1
            inflations.append(lit_res.total_completion_time / over_cost)
        else:
            invalid += 1
        fb_inflations.append(fb_cost / over_cost)
    emit_table(
        "E7_lemma1",
        ["metric", "value"],
        [
            ["literal construction valid", valid],
            ["literal construction invalid (fallback)", invalid],
            ["median inflation when valid", float(np.median(inflations))],
            ["max inflation when valid", float(np.max(inflations))],
            ["paper's proven constant c1", 169],
            ["median fallback inflation", float(np.median(fb_inflations))],
        ],
        note="inflation = valid cost / overfilling cost.  The literal "
        "construction's measured constant is ~10-40x below the proof's "
        "169; its occasional invalidity is finding R4.",
    )
    assert valid > invalid  # the construction works on the clear majority
    benchmark(
        lambda: run_case(seed=3, height=3, n_msgs=200, P=2, B=32)
    )
