"""De-amortizing a flush obligation list (Das–Iacono–Nekrich style).

The worst-case-update-cost B^ε-tree result (Das, Iacono & Nekrich,
PAPERS.md) shows amortized flush work can be *spread*: instead of
letting one step absorb a whole large obligation (the write-stall shape
Luo & Carey measure in production LSMs), split every obligation into
budget-sized chunks and interleave the chunks across obligations, so no
single step owes more than the budget to any one edge and the work
profile flattens.

These helpers are pure functions over :class:`repro.dam.schedule.Flush`
lists — no engine state, no randomness — so the shard engine and tests
share one definition of "paced".  A paced
:class:`~repro.policies.engine.ShardEngine` (``pace > 0``) passes every
plan it takes through :func:`pace_flush_list`, and enforces the hard
per-step guarantee with its step budget (:attr:`ShardEngine.pace`); the
list-level transform shapes the *priority order* so that budget is
spent round-robin across obligations instead of head-of-line.
"""

from __future__ import annotations

from repro.dam.schedule import Flush
from repro.util.errors import InvalidInstanceError


def split_flush(flush: Flush, budget: int) -> "list[Flush]":
    """Split one flush into chunks of at most ``budget`` messages.

    Chunks cover the same edge with disjoint, order-preserving message
    slices (``Flush`` keeps messages sorted, so chunk k holds the k-th
    slice of the sorted ids — deterministic by construction).  A flush
    already within budget returns as a single-element list, identity
    object included.
    """
    if budget < 1:
        raise InvalidInstanceError(f"pace budget must be >= 1, got {budget}")
    msgs = flush.messages
    if len(msgs) <= budget:
        return [flush]
    return [
        Flush(flush.src, flush.dest, msgs[i:i + budget])
        for i in range(0, len(msgs), budget)
    ]


def interleave_round_robin(chunk_lists: "list[list[Flush]]") -> "list[Flush]":
    """Round-robin merge: first chunk of every obligation, then seconds…

    Keeps each obligation's own chunks in order (slice k before slice
    k+1) while spreading a step budget across *different* obligations
    rather than draining one large obligation head-of-line.  The input
    order is the priority order; ties within a round keep it.
    """
    out: "list[Flush]" = []
    round_idx = 0
    remaining = True
    while remaining:
        remaining = False
        for chunks in chunk_lists:
            if round_idx < len(chunks):
                out.append(chunks[round_idx])
                if round_idx + 1 < len(chunks):
                    remaining = True
        round_idx += 1
    return out


def pace_flush_list(flushes: "list[Flush]", budget: int) -> "list[Flush]":
    """The full de-amortization transform: split, then interleave.

    Every returned flush moves at most ``budget`` messages, and chunks
    of distinct oversized obligations alternate.  With no oversized
    flush the input list is returned unchanged (same objects, same
    order) — the transform is the identity exactly when pacing has
    nothing to do.
    """
    if budget < 1:
        raise InvalidInstanceError(f"pace budget must be >= 1, got {budget}")
    if all(len(f.messages) <= budget for f in flushes):
        return flushes
    return interleave_round_robin(
        [split_flush(f, budget) for f in flushes]
    )
