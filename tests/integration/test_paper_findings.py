"""Regression tests pinning the reproduction findings (EXPERIMENTS.md).

R1 — Lemma 12 gap — is pinned in tests/scheduling/test_phtf_mphtf.py.
R2 — measured constants of the literal Lemma 1 construction.
R3 — the Figure 2 "23" label (tests/core/test_packed.py).
R4 — the literal Lemma 1 construction can emit invalid schedules
     (fallback engages) even though Lemma 1 claims it never should; the
     common cause is ``_build_ur`` draining packed sets that have not
     reached their parent yet (EXPERIMENTS.md), pinned here on a
     2-message instance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.packed import build_packed_sets
from repro.core.reduction import reduce_to_scheduling
from repro.core.task_to_flush import task_schedule_to_flush_schedule
from repro.core.valid_conversion import literal_lemma1_schedule
from repro.dam import simulate
from repro.scheduling import mphtf_schedule
from repro.tree import random_tree
from tests.conftest import make_uniform


def literal_outcome(inst):
    packed = build_packed_sets(inst)
    red = reduce_to_scheduling(inst, packed)
    sigma = mphtf_schedule(red.scheduling)
    over = task_schedule_to_flush_schedule(red, sigma)
    sched = literal_lemma1_schedule(inst, packed, over)
    return simulate(inst, over), simulate(inst, sched)


def test_r4_two_message_counterexample():
    """Finding R4 on its smallest known instance, ``run_case(seed=1466,
    height=2, n_msgs=2, P=1, B=7)`` of the E7 bench: ``U_r`` copies, as
    a drain, the flush out of a packed parent that the set it drains has
    not reached yet, so the literal output flushes a message from a node
    it is not at.  The space requirement is never broken.  ``make_valid``
    returns the serial fallback, which is valid and here costs exactly
    the overfilling schedule."""
    from benchmarks.bench_lemma1 import run_case
    from repro.core.valid_conversion import ConversionDiagnostics, make_valid
    from repro.workloads import uniform_instance

    over_cost, literal, _fb_cost = run_case(seed=1466, height=2, n_msgs=2,
                                            P=1, B=7)
    assert not literal.is_valid
    assert literal.space_violations == []
    first = literal.violations[0]
    assert (first.kind, first.time_step) == ("message_not_at_source", 4)

    topo = random_tree(height=2, min_fanout=2, max_fanout=3, seed=1466)
    inst = uniform_instance(topo, 2, P=1, B=7, seed=1466)
    packed = build_packed_sets(inst)
    red = reduce_to_scheduling(inst, packed)
    over = task_schedule_to_flush_schedule(red, mphtf_schedule(red.scheduling))
    diagnostics = ConversionDiagnostics()
    result = simulate(inst, make_valid(inst, packed, over,
                                       diagnostics=diagnostics))
    assert diagnostics.used_fallback
    assert result.is_valid
    assert result.total_completion_time == 5 == over_cost


def test_r4_literal_lemma1_not_always_valid():
    """Finding R4: across a seed sweep the literal Section-3.1 output is
    usually valid but not always — the fallback path is reachable.  If
    this starts passing validly on *all* seeds the implementation changed
    behaviourally and EXPERIMENTS.md should be revisited."""
    outcomes = []
    rng = np.random.default_rng(0)
    for trial in range(30):
        topo = random_tree(height=int(rng.integers(1, 4)), min_fanout=2,
                           max_fanout=3, seed=trial)
        inst = make_uniform(
            topo,
            n_messages=int(rng.integers(1, 300)),
            P=int(rng.integers(1, 4)),
            B=int(rng.integers(4, 40)),
            seed=trial,
        )
        _, res = literal_outcome(inst)
        outcomes.append(res.is_valid)
    assert any(outcomes), "literal construction should mostly work"
    assert not all(outcomes), (
        "literal Lemma 1 construction now valid on every probe seed - "
        "finding R4 may be stale"
    )


def test_r2_literal_constant_well_below_169_when_valid():
    """Finding R2: when the literal construction succeeds, its measured
    cost inflation over the overfilling schedule stays far below the
    proof's constant c1 = 169."""
    rng = np.random.default_rng(1)
    inflations = []
    for trial in range(20):
        topo = random_tree(height=int(rng.integers(1, 4)), seed=100 + trial)
        inst = make_uniform(
            topo,
            n_messages=int(rng.integers(10, 300)),
            P=int(rng.integers(1, 4)),
            B=int(rng.integers(6, 40)),
            seed=trial,
        )
        over_res, valid_res = literal_outcome(inst)
        if valid_res.is_valid and over_res.total_completion_time > 0:
            inflations.append(
                valid_res.total_completion_time
                / over_res.total_completion_time
            )
    assert inflations, "no literal successes in the probe set?"
    assert max(inflations) < 169
    assert np.median(inflations) < 30
