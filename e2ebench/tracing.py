"""Per-layer timing from outside the program.

Nothing here edits ``src/``: the traced run swaps a layer's public
callables (instance attributes, class attributes or module globals) for
timing wrappers, runs, and puts the originals back.  Every wrapped call
records a span — name, start, end, parent span, and the epoch (serve)
or operation (KV) it belongs to — in memory; :meth:`Tracer.dump` writes
them out when the benchmark ends.  Self time is a span's duration minus
the durations of its direct children.

Span names are layer names, after the modules they time:
``serve.arrivals``, ``serve.router``, ``serve.admission``,
``serve.planner``, ``core.*`` / ``scheduling.mphtf`` / ``policies.online``
(the plan pipeline), ``dam.journal``, ``lsm.disk``, ``serve.procpool``
and ``serve.metrics``.  The device layer (``util.fsio``) is counted, not
timed, by :class:`~countfs.CountingFS`.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from multiprocessing.reduction import ForkingPickler

import repro.core.reduction as _reduction
import repro.serve.planner as _planner
from repro.dam.journal import JournalWriter, RecoveryManager
from repro.faults.iofaults import CLASS_WAL, classify_path
from repro.lsm.disk.kvstore import KVStore
from repro.lsm.disk.sstable import SSTableReader
from repro.serve.loop import ServiceLoop

clock = time.perf_counter


class Tracer:
    """In-memory span recorder with per-name total and self time."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index, tag]`` per span.
        self.spans: "list[list]" = []
        self.total: "dict[str, float]" = defaultdict(float)
        self.self_time: "dict[str, float]" = defaultdict(float)
        self.calls: "dict[str, int]" = defaultdict(int)
        #: ad-hoc counts recorded at the same boundaries.
        self.counts: "dict[str, float]" = defaultdict(float)
        #: wall seconds covered by top-level spans.
        self.covered = 0.0
        #: the epoch or operation id new spans are tagged with.
        self.tag = None
        self._stack: "list[list]" = []  # [span index, child seconds]

    def begin(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), 0.0])
        self.spans.append([name, clock(), 0.0, parent, self.tag])

    def end(self) -> float:
        """Close the innermost span; returns its duration in seconds."""
        end = clock()
        idx, child = self._stack.pop()
        span = self.spans[idx]
        span[2] = end
        dur = end - span[1]
        name = span[0]
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += dur
        else:
            self.covered += dur
        return dur

    def timed(self, name: str, fn):
        """``fn`` wrapped in a span called ``name``."""
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
        return wrapper

    def timed_iter(self, name: str, fn):
        """A generator wrapper for a call returning an iterable.

        The call is timed, then items are handed on one at a time as the
        caller pulls them — nothing is materialized ahead of the caller.
        When the call returned a lazy iterator, each pull is timed too,
        so work done inside the iterator stays attributed to ``name``.
        """
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if isinstance(result, (list, tuple)):
                yield from result
                return
            it = iter(result)
            while True:
                self.begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.end()
                yield item
        return wrapper

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, tag in self.spans:
                f.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "id": tag,
                }) + "\n")


class Patches:
    """Attribute swaps that are undone in reverse order on exit."""

    def __init__(self) -> None:
        self._undo: "list[tuple]" = []

    def set(self, obj, attr: str, value) -> None:
        own = vars(obj)
        self._undo.append((obj, attr, attr in own, own.get(attr)))
        setattr(obj, attr, value)

    def wrap(self, obj, attr: str, make) -> None:
        """Replace ``obj.attr`` by ``make(original)``."""
        self.set(obj, attr, make(getattr(obj, attr)))

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            obj, attr, had, old = self._undo.pop()
            if had:
                setattr(obj, attr, old)
            else:
                delattr(obj, attr)


# ---------------------------------------------------------------------
# serve layers
# ---------------------------------------------------------------------
def trace_loop_edges(loop, tracer: Tracer, patches: Patches) -> None:
    """Arrivals, routing and metrics: the layers every serve driver has."""
    epoch = loop.planner.epoch_length
    take = loop.arrivals.take

    def traced_take(t):
        tracer.tag = (t - 1) // epoch
        tracer.begin("serve.arrivals.take")
        try:
            return take(t)
        finally:
            tracer.end()

    patches.set(loop.arrivals, "take", traced_take)
    patches.wrap(loop.router, "route",
                 lambda f: tracer.timed("serve.router.route", f))
    for name in ("note_arrival", "note_admit", "note_completion",
                 "note_shed", "note_step"):
        patches.wrap(loop.metrics, name,
                     lambda f: tracer.timed("serve.metrics", f))


def trace_service_loop(loop, tracer: Tracer, patches: Patches) -> None:
    """Every layer an in-process :class:`ServiceLoop` run crosses."""
    trace_loop_edges(loop, tracer, patches)
    patches.wrap(loop.admission, "offer",
                 lambda f: tracer.timed("serve.admission.offer", f))
    patches.wrap(loop.admission, "drain",
                 lambda f: tracer.timed_iter("serve.admission.drain", f))
    for engine in loop.engines:
        patches.wrap(engine, "step",
                     lambda f: tracer.timed("serve.router.step", f))
    plan = loop.planner.plan
    counts = tracer.counts

    def traced_plan(engine, new_msgs, *, force_full=False):
        tracer.begin("serve.planner.plan")
        mode = None
        try:
            mode = plan(engine, new_msgs, force_full=force_full)
            return mode
        finally:
            dur = tracer.end()
            if mode is not None:
                counts[f"plans.{mode}"] += 1
                counts[f"plan_s.{mode}"] += dur

    patches.set(loop.planner, "plan", traced_plan)
    trace_plan_pipeline(tracer, patches)
    trace_storage(tracer, patches)


def trace_plan_pipeline(tracer: Tracer, patches: Patches) -> None:
    """The stages :func:`repro.serve.planner.plan_flushes` calls."""
    plan_flushes = _planner.plan_flushes
    counts = tracer.counts

    def traced_plan_flushes(topology, P, B, msg_ids, *args, **kwargs):
        counts["planned_msgs"] += len(msg_ids)
        counts["plan_calls"] += 1
        tracer.begin("serve.planner.plan_flushes")
        try:
            return plan_flushes(topology, P, B, msg_ids, *args, **kwargs)
        finally:
            tracer.end()

    patches.set(_planner, "plan_flushes", traced_plan_flushes)
    for attr, name in (
        ("WORMSInstance", "core.worms.instance"),
        ("reduce_to_scheduling", "core.reduction"),
        ("mphtf_schedule", "scheduling.mphtf"),
        ("task_schedule_to_flush_schedule", "core.task_to_flush"),
        ("online_density_schedule", "policies.online"),
    ):
        patches.wrap(_planner, attr, lambda f, n=name: tracer.timed(n, f))
    patches.wrap(_reduction, "build_packed_sets",
                 lambda f: tracer.timed("core.packed", f))


def trace_storage(tracer: Tracer, patches: Patches) -> None:
    """The KV engine and both users of the journal framing.

    ``KVStore``'s WAL is a :class:`JournalWriter` too, so journal calls
    are attributed per writer instance, by the class of its file.
    """
    for attr in ("put", "delete", "get", "flush_memtable", "maintain"):
        patches.wrap(KVStore, attr,
                     lambda f, a=attr: tracer.timed(f"lsm.disk.{a}", f))
    patches.wrap(SSTableReader, "get",
                 lambda f: tracer.timed("lsm.disk.sstable.get", f))
    layer_of: "dict[int, str]" = {}

    def layer(writer) -> str:
        name = layer_of.get(id(writer))
        if name is None:
            wal = classify_path(writer.path) == CLASS_WAL
            name = layer_of[id(writer)] = (
                "lsm.disk.wal" if wal else "dam.journal"
            )
        return name

    for attr in ("append", "flush"):
        def make(f, a=attr):
            def wrapper(self, *args, **kwargs):
                tracer.begin(f"{layer(self)}.{a}")
                try:
                    return f(self, *args, **kwargs)
                finally:
                    tracer.end()
            return wrapper
        patches.wrap(JournalWriter, attr, make)


def trace_recovery(tracer: Tracer, patches: Patches) -> None:
    """``recover_serve``: the journal scan and the re-derivation run."""
    patches.wrap(RecoveryManager, "scan",
                 lambda f: tracer.timed("dam.journal.scan", f))
    patches.wrap(ServiceLoop, "run",
                 lambda f: tracer.timed("serve.recover.rederive", f))


# ---------------------------------------------------------------------
# procpool IPC
# ---------------------------------------------------------------------
class CountingConn:
    """A parent-side pipe end that times and sizes every message.

    ``send``/``recv`` pickle exactly as
    :class:`multiprocessing.connection.Connection` does, through the
    public ``send_bytes``/``recv_bytes``, so the bytes on the wire are
    unchanged and their sizes are the pickled payload sizes.
    """

    def __init__(self, conn, tracer: Tracer) -> None:
        self._conn = conn
        self._tracer = tracer

    def send(self, obj) -> None:
        tracer = self._tracer
        tracer.begin("serve.procpool.send")
        try:
            buf = ForkingPickler.dumps(obj)
            self._conn.send_bytes(buf)
        finally:
            tracer.end()
        tracer.counts["ipc.bytes_sent"] += len(buf)
        if obj[0] == "chunk":
            tracer.counts["ipc.chunks"] += 1

    def poll(self, timeout=0.0) -> bool:
        self._tracer.begin("serve.procpool.wait")
        try:
            return self._conn.poll(timeout)
        finally:
            self._tracer.end()

    def recv(self):
        self._tracer.begin("serve.procpool.wait")
        try:
            buf = self._conn.recv_bytes()
            self._tracer.counts["ipc.bytes_received"] += len(buf)
            return ForkingPickler.loads(buf)
        finally:
            self._tracer.end()

    def __getattr__(self, name):
        return getattr(self._conn, name)


def trace_procpool(loop, tracer: Tracer, patches: Patches) -> None:
    """The parent side of a :class:`ProcPoolLoop`: edges plus IPC.

    The pool exposes no public hook on its pipes, so the wrapper sits
    on the slot factory and swaps each new slot's parent end for a
    :class:`CountingConn`.  Worker-side layers (planning, the flush
    gate) run in another process and are not timed here.
    """
    trace_loop_edges(loop, tracer, patches)
    spawn = loop._spawn_slot

    def traced_spawn(sids):
        slot = spawn(sids)
        slot.conn = CountingConn(slot.conn, tracer)
        return slot

    patches.set(loop, "_spawn_slot", traced_spawn)
