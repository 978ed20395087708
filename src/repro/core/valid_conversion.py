"""Lemma 1: convert an overfilling schedule into a valid one.

Faithful implementation of Section 3.1.  Given an overfilling schedule
``S`` and the packed decomposition, we build three partial schedules:

* ``U`` — for every packed set ``C`` (start time ``tau``, packed parent
  ``v`` at height ``h(v)``), greedily reserve ``h(v)`` consecutive flushes
  on one of ``P`` machine tracks moving all of ``C`` from the root to
  ``v``, aiming to arrive at ``tau``;
* ``L`` — replay the *lower* flushes of ``S`` (flushes at or below a
  message's packed parent): a flush out of the packed parent itself is
  released only after ``27 * tau``; any deeper flush waits until all its
  messages have arrived at the source in ``L``;
* ``U_r`` — ``U`` with extra drain flushes inserted immediately before
  each packed set's arrival at an internal packed parent ``v`` (copies of
  the ``L`` flushes out of ``v`` later than the arrival minus ``h``), so
  the parent has room when the set lands.

``U_r`` and ``L`` are then interleaved in epochs of ``h`` steps: epoch
``i`` of ``U_r`` executes in steps ``[3hi+h+1, 3hi+2h]`` of the output and
epoch ``i`` of ``L`` in ``[3hi+2h+1, 3hi+3h]`` (messages already moved on
an edge by a copied drain flush are dropped from the original ``L`` flush).

**Reproduction note (finding R4).**  The literal construction is not
always valid, for two reasons.  Commonly, :func:`_build_ur` copies, as
drains before a set's arrival at ``v``, ``L`` flushes out of ``v`` of
sets that have not reached ``v`` yet (the arriving set itself, or one
tied with it on ``arrival_u``), so the output flushes a message from a
node it is not at.  Rarely, a ``U`` chain crossing an ``h``-step epoch
boundary is split by the ``3h`` dilation and its set parks mid-chain.
We run the literal construction, *check it with the DAM simulator*, and
fall back to :func:`serial_fallback_schedule` — a simple schedule that
is valid by construction (packed sets flushed one at a time,
``P``-parallel below the packed parent) — whenever the check fails.
Draining only earlier-arrived sets would fix the common cause but makes
the literal output far costlier than the fallback on the instances it
affects (EXPERIMENTS.md, R4), so it is not done here.  The E7 bench
quantifies how often the fallback engages and what it costs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.core.packed import PackedDecomposition
from repro.core.worms import WORMSInstance
from repro.dam.schedule import Flush, FlushSchedule
from repro.dam.simulator import simulate

#: Paper constants (Section 3.1).  Exposed for the ablation bench.
LAG_MULT = 27  # L releases a packed set's first lower flush after 27*tau
EPOCH_MULT = 3  # the output timeline dilates epochs of h steps by 3x
START_COUNT_DENOM = 12  # tau counts the ceil(B/12)-th message event


@dataclass
class ConversionDiagnostics:
    """What happened inside :func:`make_valid` (for tests and benches)."""

    used_fallback: bool = False
    literal_violations: int = 0
    literal_space_violations: int = 0
    n_sets: int = 0
    n_drain_copies: int = 0


@dataclass(frozen=True)
class _LFlush:
    time: int
    src: int
    dest: int
    set_index: int
    messages: tuple[int, ...]


@dataclass
class _SetTiming:
    tau: int = 0
    arrival_u: int = 0  # time of the last chain flush in U (0 if h(v)==0)


class _SlotTable:
    """First-free-step structure: at most ``P`` flushes per step.

    ``find(s)`` returns the first step ``>= s`` with spare capacity;
    full steps are skipped via union-find path compression.
    """

    def __init__(self, P: int) -> None:
        self._P = P
        self._count: dict[int, int] = {}
        self._next: dict[int, int] = {}

    def _find(self, s: int) -> int:
        path = []
        while s in self._next:
            path.append(s)
            s = self._next[s]
        for p in path:
            self._next[p] = s
        return s

    def take(self, earliest: int) -> int:
        """Occupy and return the first available step ``>= earliest``."""
        s = self._find(max(1, earliest))
        self._count[s] = self._count.get(s, 0) + 1
        if self._count[s] >= self._P:
            self._next[s] = s + 1
        return s


def make_valid(
    instance: WORMSInstance,
    packed: PackedDecomposition,
    overfilling: FlushSchedule,
    *,
    diagnostics: ConversionDiagnostics | None = None,
) -> FlushSchedule:
    """Lemma 1: return a valid schedule for ``instance``.

    Tries the literal Section-3.1 construction first and verifies it with
    the simulator; on any violation falls back to the always-valid serial
    schedule (see module docstring).
    """
    if diagnostics is None:
        diagnostics = ConversionDiagnostics()
    diagnostics.n_sets = len(packed.sets)
    if instance.topology.height == 0 or not packed.sets:
        return FlushSchedule()  # single-node tree or no messages: done

    candidate = literal_lemma1_schedule(
        instance, packed, overfilling, diagnostics=diagnostics
    )
    result = simulate(instance, candidate)
    diagnostics.literal_violations = len(result.violations)
    diagnostics.literal_space_violations = len(result.space_violations)
    if result.is_valid:
        return candidate
    diagnostics.used_fallback = True
    return serial_fallback_schedule(instance, packed, overfilling)


# ----------------------------------------------------------------------
# The literal Section-3.1 construction
# ----------------------------------------------------------------------
def literal_lemma1_schedule(
    instance: WORMSInstance,
    packed: PackedDecomposition,
    overfilling: FlushSchedule,
    *,
    diagnostics: ConversionDiagnostics | None = None,
) -> FlushSchedule:
    """Build S-hat exactly as Section 3.1 describes (may be invalid; see
    the module docstring's reproduction note)."""
    timings = _set_timings(instance, packed, overfilling)
    u_flushes, timings = _build_u(instance, packed, timings)
    l_flushes = _build_l(instance, packed, overfilling, timings)
    ur_flushes, copied = _build_ur(
        instance, packed, timings, u_flushes, l_flushes
    )
    if diagnostics is not None:
        diagnostics.n_drain_copies = len(copied)
    return _interleave(instance, packed, ur_flushes, l_flushes, copied)


def _set_timings(
    instance: WORMSInstance,
    packed: PackedDecomposition,
    overfilling: FlushSchedule,
) -> list[_SetTiming]:
    """Compute each packed set's starting time ``tau`` from ``S``."""
    topo = instance.topology
    n_msgs = instance.n_messages
    parent_of = packed.packed_parent_of
    set_of = packed.set_of

    targets = instance.targets
    out_time = [0] * n_msgs  # flush out of (or delivery at) the packed parent
    arr_time = [0] * n_msgs  # arrival into a *leaf* packed parent
    for t, flush in overfilling.iter_timed():
        for m in flush.messages:
            if flush.src == int(parent_of[m]) and out_time[m] == 0:
                out_time[m] = t
            if flush.dest == int(parent_of[m]):
                if topo.is_leaf(flush.dest):
                    arr_time[m] = t
                elif int(targets[m]) == flush.dest and out_time[m] == 0:
                    # Internal-target extension: delivery at the packed
                    # parent is the message's terminal event.
                    out_time[m] = t

    k_denom = START_COUNT_DENOM
    timings = [_SetTiming() for _ in packed.sets]
    # Per internal packed node: its sets ordered by last flush-out time.
    by_node: dict[int, list[int]] = {}
    for s in packed.sets:
        by_node.setdefault(s.parent_node, []).append(s.index)
    for v, set_ids in by_node.items():
        if topo.is_leaf(v):
            for si in set_ids:
                msgs = packed.sets[si].messages
                k = min(_ceil_div(instance.B, k_denom), len(msgs))
                times = sorted(arr_time[m] for m in msgs)
                timings[si].tau = times[k - 1]
            continue
        last_out = {
            si: max(out_time[m] for m in packed.sets[si].messages)
            for si in set_ids
        }
        ordered = sorted(set_ids, key=lambda si: (last_out[si], si))
        first = ordered[0]
        msgs = packed.sets[first].messages
        k = min(_ceil_div(instance.B, k_denom), len(msgs))
        timings[first].tau = sorted(out_time[m] for m in msgs)[k - 1]
        for prev, cur in zip(ordered, ordered[1:]):
            timings[cur].tau = last_out[prev]
    return timings


def _build_u(
    instance: WORMSInstance,
    packed: PackedDecomposition,
    timings: list[_SetTiming],
) -> tuple[list[tuple[int, int, int, int]], list[_SetTiming]]:
    """Greedy U: per set, ``h(v)`` consecutive flushes on one machine.

    Returns flushes as ``(time, src, dest, set_index)`` and fills in each
    timing's ``arrival_u``.
    """
    topo = instance.topology
    machines = [1] * instance.P  # next free step per machine track
    heapq.heapify(machines)
    u_flushes: list[tuple[int, int, int, int]] = []
    order = sorted(
        range(len(packed.sets)), key=lambda si: (timings[si].tau, si)
    )
    for si in order:
        v = packed.sets[si].parent_node
        hv = topo.height_of(v)
        if hv == 0:
            timings[si].arrival_u = 0
            continue
        desired = max(1, timings[si].tau - hv + 1)
        free = heapq.heappop(machines)
        start = max(desired, free)
        for k, (src, dest) in enumerate(topo.edges_from_root(v)):
            u_flushes.append((start + k, src, dest, si))
        heapq.heappush(machines, start + hv)
        timings[si].arrival_u = start + hv - 1
    return u_flushes, timings


def _build_l(
    instance: WORMSInstance,
    packed: PackedDecomposition,
    overfilling: FlushSchedule,
    timings: list[_SetTiming],
) -> list[_LFlush]:
    """L: replay lower flushes of ``S`` with the Section-3.1 release rules.

    The paper assumes all lower messages of one ``S``-flush share a packed
    set; for arbitrary overfilling inputs we split per packed set, which
    only adds flushes and never breaks the timing bounds.
    """
    topo = instance.topology
    parent_of = packed.packed_parent_of
    set_of = packed.set_of
    slots = _SlotTable(instance.P)
    ready = [0] * instance.n_messages  # step after which m is at its L node
    l_flushes: list[_LFlush] = []

    for t, flush in overfilling.iter_timed():
        groups: dict[int, list[int]] = {}
        for m in flush.messages:
            v = int(parent_of[m])
            if topo.is_descendant(flush.src, v):
                groups.setdefault(int(set_of[m]), []).append(m)
        for si, msgs in sorted(groups.items()):
            v = packed.sets[si].parent_node
            if flush.src == v:
                bound = LAG_MULT * timings[si].tau + 1
            else:
                bound = max(ready[m] for m in msgs) + 1
            s = slots.take(bound)
            l_flushes.append(
                _LFlush(s, flush.src, flush.dest, si, tuple(msgs))
            )
            for m in msgs:
                ready[m] = s
    return l_flushes


def _build_ur(
    instance: WORMSInstance,
    packed: PackedDecomposition,
    timings: list[_SetTiming],
    u_flushes: list[tuple[int, int, int, int]],
    l_flushes: list[_LFlush],
) -> tuple[list[tuple[int, int, int, int, tuple[int, ...] | None]], set[int]]:
    """U_r: shift U and insert drain copies of L flushes before arrivals.

    Returns flushes as ``(time, src, dest, set_index, messages_or_None)``
    (``None`` means "the whole packed set", as in U) plus the indices of
    copied L flushes.
    """
    topo = instance.topology
    h = topo.height
    # L flushes grouped by source node, in time order, for the drain scan.
    out_of: dict[int, list[int]] = {}
    for idx, lf in enumerate(l_flushes):
        out_of.setdefault(lf.src, []).append(idx)
    for v in out_of:
        out_of[v].sort(key=lambda idx: l_flushes[idx].time)

    events = sorted(
        (
            si
            for si, s in enumerate(packed.sets)
            if not topo.is_leaf(s.parent_node)
            and s.parent_node != topo.root
        ),
        key=lambda si: (timings[si].arrival_u, si),
    )
    copied: set[int] = set()
    inserts: list[tuple[int, int]] = []  # (U-time threshold, added steps)
    insert_gaps: list[tuple[int, list[int]]] = []  # (gap start, l indices)

    def delay_before(t: int) -> int:
        return sum(add for thr, add in inserts if thr <= t)

    for si in events:
        v = packed.sets[si].parent_node
        arrival = timings[si].arrival_u
        a_hat = arrival + delay_before(arrival)
        window_start = a_hat - h
        drains = [
            idx
            for idx in out_of.get(v, [])
            if idx not in copied and l_flushes[idx].time > window_start
        ]
        if not drains:
            continue
        copied.update(drains)
        add = _ceil_div(len(drains), instance.P)
        insert_gaps.append((a_hat, drains))
        inserts.append((arrival, add))

    ur: list[tuple[int, int, int, int, tuple[int, ...] | None]] = []
    for t, src, dest, si in u_flushes:
        ur.append((t + delay_before(t), src, dest, si, None))
    for gap_start, drains in insert_gaps:
        for k, idx in enumerate(drains):
            lf = l_flushes[idx]
            ur.append(
                (
                    gap_start + k // instance.P,
                    lf.src,
                    lf.dest,
                    lf.set_index,
                    lf.messages,
                )
            )
    return ur, copied


def _interleave(
    instance: WORMSInstance,
    packed: PackedDecomposition,
    ur_flushes: list[tuple[int, int, int, int, tuple[int, ...] | None]],
    l_flushes: list[_LFlush],
    copied: set[int],
) -> FlushSchedule:
    """Merge U_r and L into S-hat on the 3h-dilated timeline."""
    h = instance.topology.height
    schedule = FlushSchedule()

    for t, src, dest, si, msgs in ur_flushes:
        epoch, offset = divmod(t - 1, h)
        out_t = EPOCH_MULT * h * epoch + h + offset + 1
        if msgs is None:  # a U chain flush moves the whole packed set
            msgs = packed.sets[si].messages
        schedule.add(out_t, Flush(src=src, dest=dest, messages=msgs))
    for idx, lf in enumerate(l_flushes):
        if idx in copied:
            continue  # already executed inside U_r
        epoch, offset = divmod(lf.time - 1, h)
        out_t = EPOCH_MULT * h * epoch + 2 * h + offset + 1
        schedule.add(out_t, Flush(src=lf.src, dest=lf.dest, messages=lf.messages))
    return schedule.trim()


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# ----------------------------------------------------------------------
# Guaranteed-valid fallback
# ----------------------------------------------------------------------
def serial_fallback_schedule(
    instance: WORMSInstance,
    packed: PackedDecomposition,
    overfilling: FlushSchedule | None = None,
) -> FlushSchedule:
    """A schedule that is valid by construction.

    Packed sets are processed one at a time, ordered by their completion
    in the overfilling schedule (falling back to index order): the set's
    ``<= B/2`` messages ride the chain to the packed parent, then fan out
    below it with up to ``P`` flushes per step, level by level.  At any
    instant only one set occupies internal nodes, so every internal node
    retains at most ``B/2 <= B`` messages across steps.
    """
    topo = instance.topology
    schedule = FlushSchedule()
    t = 0

    order = list(range(len(packed.sets)))
    if overfilling is not None:
        finish: dict[int, int] = {}
        for time, flush in overfilling.iter_timed():
            for m in flush.messages:
                si = int(packed.set_of[m])
                finish[si] = max(finish.get(si, 0), time)
        order.sort(key=lambda si: (finish.get(si, 0), si))

    for si in order:
        pset = packed.sets[si]
        v = pset.parent_node
        # Phase 1: chain from the root to the packed parent.
        for src, dest in topo.edges_from_root(v):
            t += 1
            schedule.add(t, Flush(src=src, dest=dest, messages=pset.messages))
        if topo.is_leaf(v):
            continue
        # Phase 2: fan out below v, level by level, P flushes per step.
        frontier: list[tuple[int, tuple[int, ...]]] = [(v, pset.messages)]
        while frontier:
            next_frontier: list[tuple[int, tuple[int, ...]]] = []
            pending: list[Flush] = []
            for node, msgs in frontier:
                by_child: dict[int, list[int]] = {}
                for m in msgs:
                    target = instance.messages[m].target_leaf
                    if target == node:
                        continue  # delivered (internal-target extension)
                    child = topo.child_towards(node, target)
                    by_child.setdefault(child, []).append(m)
                for child, child_msgs in sorted(by_child.items()):
                    pending.append(
                        Flush(src=node, dest=child, messages=tuple(child_msgs))
                    )
                    if not topo.is_leaf(child):
                        next_frontier.append((child, tuple(child_msgs)))
            for start in range(0, len(pending), instance.P):
                t += 1
                for flush in pending[start : start + instance.P]:
                    schedule.add(t, flush)
            frontier = next_frontier
    return schedule.trim()
