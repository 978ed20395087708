"""repro — Root-to-Leaf Scheduling in Write-Optimized Trees (SPAA 2024).

A full reproduction of the WORMS model and algorithms: the B^epsilon-tree
substrate, the DAM-model flush simulator, the scheduling substrate
``P | outtree, p_j = 1 | Sum wC`` (Horn / PHTF / MPHTF), the reduction
pipeline, baselines, workloads, and analysis tooling.

Quickstart::

    from repro import (
        balanced_tree, uniform_instance, WormsPolicy, compare_policies,
    )

    topo = balanced_tree(fanout=4, height=3)
    instance = uniform_instance(topo, n_messages=500, P=4, B=64, seed=0)
    stats = compare_policies(instance, [WormsPolicy()])
    print(stats["worms"].mean)

See README.md for the architecture overview and DESIGN.md / EXPERIMENTS.md
for the experiment index.
"""

from repro.analysis import (
    CompletionStats,
    compare_policies,
    scheduling_lower_bound,
    summarize,
    worms_lower_bound,
)
from repro.core import (
    PipelineResult,
    WORMSInstance,
    build_packed_sets,
    reduce_to_scheduling,
    solve_worms,
)
from repro.dam import (
    Flush,
    FlushSchedule,
    JournalWriter,
    RecoveryManager,
    simulate,
    validate_valid,
)
from repro.faults import BurstInjector, BurstPlan, FaultInjector, FaultPlan
from repro.policies import (
    EagerPolicy,
    GatedExecutor,
    GreedyBatchPolicy,
    LazyThresholdPolicy,
    PaperPipelinePolicy,
    WormsPolicy,
    online_density_schedule,
)
from repro.scheduling import (
    SchedulingInstance,
    compute_horn,
    horn_schedule,
    mphtf_schedule,
    phtf_schedule,
)
from repro.tree import (
    BeTree,
    Message,
    MessageKind,
    TreeTopology,
    balanced_tree,
    beps_shape_tree,
    random_tree,
)
from repro.workloads import (
    clustered_purge_instance,
    uniform_instance,
    zipf_instance,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "WORMSInstance",
    "solve_worms",
    "PipelineResult",
    "build_packed_sets",
    "reduce_to_scheduling",
    # dam
    "Flush",
    "FlushSchedule",
    "simulate",
    "validate_valid",
    "JournalWriter",
    "RecoveryManager",
    # faults
    "FaultPlan",
    "FaultInjector",
    "BurstPlan",
    "BurstInjector",
    "GatedExecutor",
    # scheduling
    "SchedulingInstance",
    "compute_horn",
    "horn_schedule",
    "phtf_schedule",
    "mphtf_schedule",
    # tree
    "TreeTopology",
    "BeTree",
    "Message",
    "MessageKind",
    "balanced_tree",
    "beps_shape_tree",
    "random_tree",
    # policies
    "EagerPolicy",
    "GreedyBatchPolicy",
    "LazyThresholdPolicy",
    "WormsPolicy",
    "PaperPipelinePolicy",
    "online_density_schedule",
    # workloads
    "uniform_instance",
    "zipf_instance",
    "clustered_purge_instance",
    # analysis
    "CompletionStats",
    "summarize",
    "compare_policies",
    "worms_lower_bound",
    "scheduling_lower_bound",
]
