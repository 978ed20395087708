"""Whole-shard chaos scenarios for the serving loop's supervision.

The iid injector (:mod:`repro.faults.injector`) and the burst chain
(:mod:`repro.faults.bursts`) model *device*-granularity trouble: a node
stalls, a flush tears.  Supervision needs the next blast radius up — a
whole shard wedging, dying, or corrupting its journal — which is what a
chaos drill exercises.  This module composes the existing injectors into
that shape:

* :class:`ChaosPlan` — a deterministic timeline of :class:`ChaosEvent`
  values (``kill`` / ``stall`` / ``corrupt``, each aimed at one shard at
  one step), drawn once from a seed by :meth:`ChaosPlan.draw` and
  JSON-round-trippable so a serving journal can embed the scenario in
  its ``meta`` and recovery can re-derive the identical run;
* :class:`ChaosInjector` — a per-shard fault injector that layers the
  plan's whole-shard stall windows over any base injector: during a
  window *every* node of the shard is stalled (the signature the
  supervisor's heartbeats classify as a stalled epoch), outside it the
  base injector answers unchanged.

``kill`` and ``corrupt`` events are *not* injector queries — the
serving loop applies them directly (wiping the shard engine,
poisoning its restart source) because they model failures of the machine
running the shard, not of the shard's IOs.  The injector only carries
the stall windows, which is what keeps every chaos decision a pure
function of ``(seed, step, shard)`` with the same replay stability as
the rest of the fault stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.faults.injector import (
    FaultEvent,
    FaultInjector,
    OUTCOME_FAILED,
    _KIND_IDS,
)
from repro.faults.plan import FaultPlan
from repro.util.errors import InvalidInstanceError

#: Chaos event kinds.
CHAOS_KILL = "kill"
CHAOS_STALL = "stall"
CHAOS_CORRUPT = "corrupt"
#: Kill the worker *process* hosting the shard (a real SIGKILL under the
#: multi-process driver; thread/sequential drivers degrade it to a
#: simulated ``kill``).  Appended last so the sort index of the original
#: kinds — and therefore every existing drill's event order — is stable.
CHAOS_KILL_WORKER = "kill-worker"
#: Open a syscall-level I/O fault window over the shard's durable store:
#: a :class:`~repro.faults.iofaults.FaultFS` armed with ``spec`` is
#: installed for ``duration`` steps, then removed.  Appended last (same
#: sort-index stability argument as ``kill-worker``).
CHAOS_DISK_FAULT = "disk-fault"
CHAOS_KINDS = (
    CHAOS_KILL, CHAOS_STALL, CHAOS_CORRUPT, CHAOS_KILL_WORKER,
    CHAOS_DISK_FAULT,
)

#: FaultEvent kind for a whole-shard stall window (see _KIND_IDS).
_CHAOS_STALL_EVENT = "chaos_stall"
_KIND_IDS.setdefault(_CHAOS_STALL_EVENT, 7)


@dataclass(frozen=True, slots=True)
class ChaosEvent:
    """One scheduled shard-level failure.

    Attributes
    ----------
    step:
        1-based DAM step at which the event fires.
    kind:
        ``kill`` (the shard loses all in-memory state and must restart
        from its journal), ``stall`` (every node of the shard freezes
        for ``duration`` steps), ``corrupt`` (the shard's restart
        source is poisoned, so the next restart attempt raises a typed
        :class:`~repro.util.errors.JournalCorruptionError`),
        ``kill-worker`` (the OS process hosting the shard is SIGKILLed;
        under a threads-only driver this degrades to ``kill``), or
        ``disk-fault`` (the shard's durable store sees injected syscall
        faults — ``spec`` is a :mod:`repro.faults.iofaults` plan — for
        ``duration`` steps).
    shard:
        Target shard id.
    duration:
        Window length in steps (meaningful for ``stall`` and
        ``disk-fault``; 0 otherwise).
    spec:
        Fault-plan DSL string (``disk-fault`` only; empty otherwise).
    """

    step: int
    kind: str
    shard: int
    duration: int = 0
    spec: str = ""

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise InvalidInstanceError(
                f"unknown chaos event kind {self.kind!r}"
            )
        if self.step < 1:
            raise InvalidInstanceError(
                f"chaos events fire at steps >= 1, got {self.step}"
            )
        if self.shard < 0:
            raise InvalidInstanceError(
                f"shard must be >= 0, got {self.shard}"
            )
        if self.kind == CHAOS_STALL and self.duration < 1:
            raise InvalidInstanceError(
                f"stall events need duration >= 1, got {self.duration}"
            )
        if self.kind == CHAOS_DISK_FAULT:
            if self.duration < 1:
                raise InvalidInstanceError(
                    "disk-fault events need duration >= 1, got "
                    f"{self.duration}"
                )
            if not self.spec:
                raise InvalidInstanceError(
                    "disk-fault events need a fault-plan spec"
                )
            # Parse eagerly so a bad plan fails at draw/load time, not
            # mid-drill.  Local import: iofaults is dependency-free.
            from repro.faults.iofaults import parse_plan

            parse_plan(self.spec)
        elif self.spec:
            raise InvalidInstanceError(
                f"{self.kind} events carry no fault-plan spec"
            )


@dataclass(frozen=True)
class ChaosConfig:
    """The composition of a chaos drill: event counts, window lengths and
    the latest step an event may fire.

    :meth:`ChaosPlan.draw` takes its defaults from here, and ``serve
    --chaos`` derives one ``--chaos-*`` flag per field from its ``help``
    metadata.  ``horizon`` 0 leaves the horizon to the caller.
    """

    kills: int = field(default=1, metadata={
        "flag": "--chaos-kills", "help": "shard-kill events in the drill"})
    stalls: int = field(default=1, metadata={
        "flag": "--chaos-stalls",
        "help": "whole-shard stall windows in the drill"})
    corrupts: int = field(default=0, metadata={
        "flag": "--chaos-corrupts",
        "help": "restart-source corruptions in the drill"})
    kill_workers: int = field(default=0, metadata={
        "flag": "--chaos-kill-workers",
        "help": "worker-process SIGKILL events in the drill (a state-loss "
                "kill under the in-process driver)"})
    disk_faults: int = field(default=0, metadata={
        "flag": "--chaos-disk-faults",
        "help": "syscall-level I/O fault windows in the drill "
                "(EIO/ENOSPC/short-write/fsync-fail against the durable "
                "store; needs --engine lsm to have anything to hit)"})
    stall_duration: int = field(default=8, metadata={
        "flag": "--chaos-stall-duration",
        "help": "steps each stall window lasts"})
    disk_fault_duration: int = field(default=4, metadata={
        "flag": "--chaos-disk-fault-duration",
        "help": "steps each disk-fault window stays armed"})
    horizon: int = field(default=0, metadata={
        "flag": "--chaos-horizon",
        "help": "latest step a chaos event may fire (0 = derived from the "
                "workload)"})


@dataclass(frozen=True)
class ChaosPlan:
    """A deterministic, JSON-round-trippable chaos timeline."""

    events: "tuple[ChaosEvent, ...]" = ()

    @property
    def is_zero(self) -> bool:
        return not self.events

    def events_at(self, step: int) -> "list[ChaosEvent]":
        """Events firing at 1-based ``step`` (shard order, kills first)."""
        hits = [e for e in self.events if e.step == step]
        hits.sort(key=lambda e: (e.shard, CHAOS_KINDS.index(e.kind)))
        return hits

    def stall_windows(self, shard: int) -> "list[tuple[int, int]]":
        """Inclusive ``(start, end)`` stall windows aimed at ``shard``."""
        return sorted(
            (e.step, e.step + e.duration - 1)
            for e in self.events
            if e.kind == CHAOS_STALL and e.shard == shard
        )

    @classmethod
    def draw(
        cls, *, shards: int, horizon: int, seed: int = 0, **drill
    ) -> "ChaosPlan":
        """Draw a scenario: all placement is a pure function of ``seed``.

        ``drill`` takes the event counts and window durations of
        :class:`ChaosConfig` by field name (its defaults fill the rest).
        ``horizon`` bounds the steps events may land on (they are drawn
        uniformly from ``[2, horizon]`` so step 1 always runs clean and
        the first arrivals are routed before anything breaks).
        """
        config = ChaosConfig(**drill)
        if shards < 1:
            raise InvalidInstanceError(f"shards must be >= 1, got {shards}")
        if horizon < 2:
            raise InvalidInstanceError(
                f"horizon must be >= 2, got {horizon}"
            )
        rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=(int(seed) & 0xFFFFFFFF, 0x5EED_C4A05)
            )
        )
        from repro.faults.iofaults import chaos_disk_fault_spec

        events = []
        for kind, count in (
            (CHAOS_KILL, config.kills),
            (CHAOS_STALL, config.stalls),
            (CHAOS_CORRUPT, config.corrupts),
            (CHAOS_KILL_WORKER, config.kill_workers),
            (CHAOS_DISK_FAULT, config.disk_faults),
        ):
            for _ in range(int(count)):
                if kind == CHAOS_STALL:
                    duration = int(config.stall_duration)
                elif kind == CHAOS_DISK_FAULT:
                    duration = int(config.disk_fault_duration)
                else:
                    duration = 0
                events.append(ChaosEvent(
                    step=int(rng.integers(2, horizon + 1)),
                    kind=kind,
                    shard=int(rng.integers(0, shards)),
                    duration=duration,
                    spec=(
                        chaos_disk_fault_spec(int(rng.integers(0, 1 << 30)))
                        if kind == CHAOS_DISK_FAULT else ""
                    ),
                ))
        events.sort(key=lambda e: (e.step, e.shard, CHAOS_KINDS.index(e.kind)))
        return cls(tuple(events))

    # -- meta round trip ----------------------------------------------
    def to_meta(self) -> "list[list]":
        """JSON-ready form for a journal ``meta`` payload.

        Events without a fault-plan spec serialize as the original
        4-element rows, so pre-``disk-fault`` journals' meta bytes are
        reproduced exactly; only ``disk-fault`` events append their
        spec as a fifth element.
        """
        return [
            (
                [e.step, e.kind, e.shard, e.duration, e.spec]
                if e.spec else [e.step, e.kind, e.shard, e.duration]
            )
            for e in self.events
        ]

    @classmethod
    def from_meta(cls, payload: "list[list]") -> "ChaosPlan":
        """Inverse of :meth:`to_meta` (4- or 5-element rows)."""
        return cls(tuple(
            ChaosEvent(
                int(row[0]), str(row[1]), int(row[2]), int(row[3]),
                spec=str(row[4]) if len(row) > 4 else "",
            )
            for row in payload
        ))


class ChaosInjector(FaultInjector):
    """Whole-shard stall windows layered over an optional base injector.

    Built per shard by the serving loop from
    ``ChaosPlan.stall_windows(shard)``.  Inside a window every node is
    stalled (so admission holds arrivals instead of piling them into the
    frozen root); outside a window every query falls through to
    ``base`` — which may be the config-derived iid injector, a
    :class:`~repro.faults.bursts.BurstInjector`, or ``None`` for
    chaos-only runs.
    """

    def __init__(
        self,
        windows: "list[tuple[int, int]]",
        *,
        base: "FaultInjector | None" = None,
        shard_id: int = -1,
        seed: int = 0,
    ) -> None:
        super().__init__(
            base.plan if base is not None else FaultPlan.none(), seed
        )
        self.base = base
        self.shard_id = int(shard_id)
        self.windows = sorted(
            (int(a), int(b)) for a, b in windows
        )
        for a, b in self.windows:
            if b < a:
                raise InvalidInstanceError(
                    f"stall window ({a}, {b}) ends before it starts"
                )

    @property
    def is_zero_plan(self) -> bool:
        base_zero = self.base is None or self.base.is_zero_plan
        return base_zero and not self.windows

    def _window_end(self, t: int) -> "int | None":
        """End of the window covering ``t`` (max over overlaps), or None."""
        end = None
        for a, b in self.windows:
            if a <= t <= b and (end is None or b > end):
                end = b
        return end

    # -- queries: windows first, base second ---------------------------
    def is_stalled(self, t: int, node: int) -> bool:
        end = self._window_end(t)
        if end is not None:
            self._log(
                FaultEvent(
                    _CHAOS_STALL_EVENT, t, node=node,
                    detail=(
                        f"shard {self.shard_id} stalled whole "
                        f"(window ends step {end})"
                    ),
                ),
                (_CHAOS_STALL_EVENT, self.shard_id, end),
            )
            return True
        return self.base.is_stalled(t, node) if self.base else False

    def effective_p(self, t: int, P: int) -> int:
        return self.base.effective_p(t, P) if self.base else P

    def flush_outcome(self, t, src, dest, messages):
        if self._window_end(t) is not None:
            # Belt and braces: the gate never attempts IOs on stalled
            # nodes, but a direct query during a window must still no-op.
            return OUTCOME_FAILED, ()
        if self.base is not None:
            return self.base.flush_outcome(t, src, dest, messages)
        return super().flush_outcome(t, src, dest, messages)

    def __repr__(self) -> str:
        return (
            f"ChaosInjector(shard={self.shard_id}, "
            f"windows={self.windows!r}, base={self.base!r})"
        )
