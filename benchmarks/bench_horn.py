"""E5: Horn's algorithm — optimality for P=1 and O(n log n) scaling.

The paper notes Horn's algorithm runs in O(n log n) with a priority-queue
implementation; our density computation (``heapq`` lists melded
small-into-large) is the costly part.  The scaling rows report time
per n*log2(n) unit, which should be roughly flat (it is), and the
optimality rows certify against the exact DP.
"""

from __future__ import annotations

import math
import time

from benchmarks.common import emit_table
from repro.scheduling import (
    brute_force_optimal,
    compute_horn,
    horn_schedule,
    random_outtree_instance,
    schedule_cost,
)


def test_e5_horn_optimality(benchmark):
    exact_hits = 0
    trials = 60
    for seed in range(trials):
        inst = random_outtree_instance(
            9, P=1, n_roots=2, seed=seed, zero_weight_fraction=0.25
        )
        opt, _ = brute_force_optimal(inst)
        cost = schedule_cost(inst, horn_schedule(inst))
        exact_hits += abs(cost - opt) < 1e-9
    emit_table(
        "E5_horn_optimality",
        ["trials", "optimal"],
        [[trials, exact_hits]],
        note="Horn's algorithm (density greedy) matches the exact optimum "
        "on every P=1 instance, as Lemma 10 states.",
    )
    assert exact_hits == trials
    inst = random_outtree_instance(9, P=1, seed=0)
    benchmark(lambda: horn_schedule(inst))


def test_e5_horn_scaling(benchmark):
    rows = []
    for n in (1000, 4000, 16000, 64000):
        inst = random_outtree_instance(n, P=1, n_roots=3, seed=1)
        start = time.perf_counter()
        horn = compute_horn(inst)
        horn_schedule(inst, horn)
        elapsed = time.perf_counter() - start
        rows.append(
            [n, round(elapsed * 1e3, 1), round(elapsed * 1e9 / (n * math.log2(n)), 1)]
        )
    emit_table(
        "E5_horn_scaling",
        ["n tasks", "time (ms)", "ns per n*log2(n)"],
        rows,
        note="near-constant normalized time = the advertised O(n log n).",
    )
    inst = random_outtree_instance(10000, P=1, seed=1)
    benchmark(lambda: compute_horn(inst))
