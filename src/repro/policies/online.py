"""Online root-to-leaf scheduling: a probe at the paper's future work.

Section 5 leaves open the online setting where messages arrive over time.
This module implements a simple *density-guided* online heuristic so the
E9 bench can measure how much clairvoyance buys:

* messages carry release steps; a message participates once released;
* at every step the scheduler scores each (node, child) buffer group by a
  completion-aware density, ``count / remaining_height`` — the analogue of
  Horn densities without lookahead (a group that can complete soon and
  moves many messages at once scores high);
* the ``P`` best admissible groups flush (same gate as the other
  policies, so the result is valid by construction).

The offline policies can be run on the same arrival traces by releasing
everything at step 1, which is what the bench compares against.  The
heuristic is E9's baseline and :class:`OnlineDensityPolicy`; the serving
planner does not use it (every serve plan, mid-tree re-plans included,
is the paper's pipeline: :func:`repro.serve.planner.plan_flushes`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.worms import WORMSInstance
from repro.dam.schedule import Flush, FlushSchedule
from repro.policies.base import Policy
from repro.tree.topology import TreeTables


@dataclass(frozen=True, slots=True)
class OnlineArrival:
    """Message ``msg_id`` becomes available at 1-based ``release_step``."""

    msg_id: int
    release_step: int


def online_density_schedule(
    instance: WORMSInstance,
    arrivals: "list[OnlineArrival] | None" = None,
) -> FlushSchedule:
    """Run the online density heuristic; returns a valid schedule.

    ``arrivals`` defaults to all messages released at step 1 (the offline
    special case).  Completion times in the returned schedule are absolute
    steps; subtract release steps for flow time.  A thin wrapper over
    :func:`online_flushes`.
    """
    topo = instance.topology
    starts = (
        [topo.root] * instance.n_messages if instance.start_nodes is None
        else list(instance.start_nodes)
    )
    schedule = FlushSchedule()
    for t, src, dest, msgs in online_flushes(
        topo.tables, instance.targets.tolist(), starts,
        instance.P, instance.B,
        None if arrivals is None
        else [(a.msg_id, a.release_step) for a in arrivals],
    ):
        schedule.add(t, Flush(src, dest, msgs))
    return schedule


def online_flushes(
    tables: TreeTables,
    targets: "list[int]",
    starts: "list[int]",
    P: int,
    B: int,
    arrivals: "list[tuple[int, int]] | None" = None,
) -> "list[tuple[int, int, int, tuple[int, ...]]]":
    """The online density heuristic on flat lists (the core
    :func:`online_density_schedule` wraps).

    Message ``i`` starts at ``starts[i]`` and targets ``targets[i]``;
    ``arrivals`` lists ``(msg_id, release_step)`` pairs (default: every
    message at step 1).  Returns the flushes in time order as ``(t, src,
    dest, msgs)`` tuples, ``msgs`` sorted.
    """
    paths = tables.path
    depth = tables.depth
    is_leaf = tables.is_leaf
    tree_h = tables.height
    if arrivals is None:
        arrivals = [(m, 1) for m in range(len(targets))]
    by_release: dict[int, list[int]] = {}
    for m, release in arrivals:
        by_release.setdefault(max(1, release), []).append(m)

    # buffers[v][c]: messages parked at v, in arrival order, that next
    # cross into v's child c; node_load[v]: how many are parked at v.
    buffers: dict[int, dict[int, list[int]]] = {}
    node_load: dict[int, int] = {}

    def park(v: int, msgs: "list[int]") -> None:
        groups = buffers.setdefault(v, {})
        below = depth[v] + 1
        for m in msgs:
            groups.setdefault(paths[targets[m]][below], []).append(m)
        node_load[v] = node_load.get(v, 0) + len(msgs)

    flushes: list[tuple[int, int, int, tuple[int, ...]]] = []
    remaining = 0
    t = 0
    last_release = max(by_release) if by_release else 0
    while remaining or t < last_release:
        t += 1
        for m in by_release.get(t, ()):
            v = starts[m]
            if v != targets[m]:
                park(v, [m])
                remaining += 1
        if not remaining:
            continue
        # Score every (node, child) group: prefer groups that move many
        # messages and are close to completing.  (v, c) is unique, so
        # the sort is a total order.
        scored: list[tuple[float, int, int]] = []
        for v, groups in buffers.items():
            remaining_height = max(1, tree_h - depth[v])
            for c, msgs in groups.items():
                scored.append((-(len(msgs) / remaining_height), v, c))
        scored.sort()
        used = 0
        touched: set[int] = set()
        arrivals_now: list[tuple[int, list[int]]] = []
        for _neg, v, c in scored:
            if v in touched or c in touched:
                continue
            groups = buffers[v]
            group = groups[c]
            moving = group[:B]
            parking = [m for m in moving if targets[m] != c]
            if not is_leaf[c] and node_load.get(c, 0) + len(parking) > B:
                continue
            touched.add(v)
            touched.add(c)
            flushes.append((t, v, c, tuple(sorted(moving))))
            del group[: len(moving)]
            if not group:
                del groups[c]
            load = node_load[v] - len(moving)
            if load:
                node_load[v] = load
            else:
                del node_load[v]
                del buffers[v]
            remaining -= len(moving) - len(parking)
            if parking:
                arrivals_now.append((c, parking))
            used += 1
            if used >= P:
                break
        for c, parking in arrivals_now:
            park(c, parking)
    return flushes


class OnlineDensityPolicy(Policy):
    """The density heuristic as a :class:`Policy` (everything at step 1).

    Lets comparison harnesses (``compare_policies``, the resilience
    sweep) include the online scheduler alongside the offline policies.
    """

    name = "online"

    def schedule(self, instance: WORMSInstance) -> FlushSchedule:
        """All messages released at step 1 (the offline special case)."""
        return online_density_schedule(instance)
