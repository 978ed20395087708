"""Flushing policies: the paper's baselines and practical schedulers.

The introduction frames the problem as an "unsavory choice" between two
classic techniques; both are implemented here on the same substrate,
together with the paper's scheduler and an online heuristic:

* :class:`EagerPolicy` — flush each operation root-to-leaf individually
  (starts work immediately, little work per IO);
* :class:`GreedyBatchPolicy` — classic write-optimized batching (flush the
  fullest node toward its most popular child; great work per IO, terrible
  per-operation latency);
* :class:`WormsPolicy` — the practical middle ground: executes the
  pipeline's MPHTF flush order directly under an admission-gated executor
  that is valid by construction (no Lemma-1 constant blowup);
* :class:`PaperPipelinePolicy` — the literal Section 4.3 pipeline
  including the Lemma 1 conversion;
* :func:`online_density_schedule` — a probe at the paper's future-work
  question (Section 5): messages arrive over time, scheduler is greedy by
  completion density.
"""

from repro.policies.base import Policy
from repro.policies.eager import EagerPolicy
from repro.policies.executor import (
    GatedExecutor,
    ResilienceStats,
    execute_flush_list,
    worms_replan,
)
from repro.policies.greedy_batch import GreedyBatchPolicy
from repro.policies.lazy_threshold import LazyThresholdPolicy
from repro.policies.online import (
    OnlineArrival,
    OnlineDensityPolicy,
    online_density_schedule,
)
from repro.policies.worms_policy import PaperPipelinePolicy, PhtfWormsPolicy, WormsPolicy

__all__ = [
    "Policy",
    "EagerPolicy",
    "GreedyBatchPolicy",
    "LazyThresholdPolicy",
    "WormsPolicy",
    "PhtfWormsPolicy",
    "PaperPipelinePolicy",
    "GatedExecutor",
    "execute_flush_list",
    "ResilienceStats",
    "worms_replan",
    "OnlineArrival",
    "OnlineDensityPolicy",
    "online_density_schedule",
]
