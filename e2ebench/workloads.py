"""The benchmark's four workloads, their checks and their metrics.

Every workload is a pure function of its seed: the same seed gives the
same arrivals, keys and operations, so DAM-step results, byte counts and
correctness checks repeat exactly, and only wall-clock figures vary.

A run of one workload is:

1. **timed repetitions** of the same input until ``--seconds`` have
   passed and at least :data:`MIN_REPS` were made; each is checked
   against the first (rep 0), whose DAM results are the run's
   deterministic figures, and its times are scaled to the host's fast
   state (:mod:`e2ebench.host`).  Throughput and latency come from
   each epoch's (serve) or call's (KV) least time over the repetitions
   (:func:`floor_times`), set-up time from the faster half of them
   (:func:`quiet_half`);
2. with ``--trace 1``, untraced and traced repetitions alternate
   instead, and the traced ones, under the counting fs handle, give the
   per-layer metrics.

Flush policy, the same on every side: the serve journal is fsynced at
every checkpoint (``sync=True``); the KV store leaves durability at the
OS page cache (``sync=False``).  Latencies are therefore the host's
page-cache numbers, not a device's.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.lsm.disk import KVStore
from repro.serve.loop import ServeConfig, ServiceLoop, recover_serve
from repro.serve.procpool import ProcPoolLoop
from repro.util.fsio import REAL_FS, installed

from e2ebench.countfs import CountingFS
from e2ebench.host import cpu_pair, pin_children, pinned, slowdown
from e2ebench.pct import epoch_intervals, tail_rank
from e2ebench.tracing import (
    Patches,
    Tracer,
    trace_procpool,
    trace_recovery,
    trace_service_loop,
    trace_storage,
)

clock = time.perf_counter

#: messages per serve repetition: over 1100 planning epochs at 8-9
#: msgs/step, so one repetition's epoch p99 has ten epochs beyond it.
SERVE_MESSAGES = 80_000
#: least timed repetitions a run makes of its input (see floor_times).
MIN_REPS = 3
#: planning epochs between host-speed calibrations inside a timed serve
#: rep (~0.3-0.5 s).
SERVE_CAL_EPOCHS = 100
#: KV operations per repetition: enough for write_amp to level off
#: (within ~3% of its value at 3x the operations).
KV_OPS = 40_000
KV_KEYS = 8192
KV_MEMTABLE = 256
KV_SIZE_RATIO = 4
#: least timed KV repetitions (they are half as long as serve ones).
KV_MIN_REPS = 4
#: operations between host-speed calibrations inside a timed KV rep.
KV_CAL_EVERY = 5000
#: cumulative put / delete shares; the rest are gets.
KV_PUT, KV_DELETE = 0.72, 0.80
#: timed repetitions may run past ``--seconds`` only to reach the
#: percentile sample floors, and never longer than this.
OVERRUN_S = 60.0

PUT, DELETE, GET = "put", "delete", "get"

#: What the result line carries, name -> unit, as ``BENCHMARK.json``
#: lists it: every workload reports every end-to-end metric, and with
#: ``--trace 1`` every per-layer metric, 0 where it does not cross the
#: layer.  The end-to-end figures mean the same on every workload:
#: throughput is messages (serve) or operations (KV) per wall second,
#: and latency is one planning epoch's wall time (serve) or one KV
#: call's.  Metrics of one kind of workload only (DAM sojourn, recovery
#: time, amplification, put/get tails) are per-layer for that reason.
END_TO_END = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"serve.planner.plans.{m}": "count"
       for m in ("noop", "incremental", "full", "forced")},
    "serve.planner.ms.incremental": "ms",
    "serve.planner.ms.full": "ms",
    "serve.planner.msgs_per_plan": "msgs",
    "serve.planner.wall_frac": "frac",
    "core.worms.instance_ms": "ms",
    "core.packed.ms": "ms",
    "core.reduction.self_ms": "ms",
    "scheduling.mphtf.ms": "ms",
    "core.task_to_flush.ms": "ms",
    "policies.online.ms": "ms",
    "serve.router.step_self_ms": "ms",
    "serve.router.flushes": "count",
    "tree.steps_mean": "steps",
    "serve.sojourn_mean_steps": "steps",
    "serve.sojourn_p999_steps": "steps",
    "serve.arrivals.take_ms": "ms",
    "serve.router.route_ms": "ms",
    "serve.admission.ms": "ms",
    "serve.admission.wait_steps_mean": "steps",
    "dam.journal.append_ms": "ms",
    "dam.journal.flush_ms": "ms",
    "dam.journal.records": "count",
    "dam.journal.bytes": "bytes",
    "dam.journal.fsyncs": "count",
    "dam.journal.scan_ms": "ms",
    "serve.recover.rederive_ms": "ms",
    "serve.recover.ms": "ms",
    "lsm.disk.put_ms": "ms",
    "lsm.disk.get_ms": "ms",
    "lsm.disk.put_p50_us": "us",
    "lsm.disk.put_p999_us": "us",
    "lsm.disk.get_p50_us": "us",
    "lsm.disk.get_p99_us": "us",
    "lsm.disk.wal.append_ms": "ms",
    "lsm.disk.flush_memtable_ms": "ms",
    "lsm.disk.flushes": "count",
    "lsm.disk.maintain_ms": "ms",
    "lsm.disk.compactions": "count",
    "lsm.disk.sstables_probed_per_get": "count",
    "lsm.disk.open_ms": "ms",
    **{f"util.fsio.bytes_written.{c}": "bytes"
       for c in ("wal", "sstable", "manifest", "journal")},
    "util.fsio.bytes_read.sstable": "bytes",
    "util.fsio.fsyncs": "count",
    "util.fsio.write_amp": "ratio",
    "util.fsio.space_amp": "ratio",
    "serve.procpool.send_ms": "ms",
    "serve.procpool.wait_ms": "ms",
    "serve.procpool.bytes_sent": "bytes",
    "serve.procpool.bytes_received": "bytes",
    "serve.procpool.chunks": "count",
    "trace.overhead_frac": "frac",
    "trace.unattributed_frac": "frac",
}


# ---------------------------------------------------------------------
# results
# ---------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run reports."""

    workload: str
    attempted: int = 0
    failed: int = 0
    checks: "list[tuple[str, bool, str]]" = field(default_factory=list)
    #: name -> (value, unit)
    metrics: "dict[str, tuple[float, str]]" = field(default_factory=dict)
    #: per-layer self-time profile of the last traced repetition.
    profile: "list[tuple[str, float, float]]" = field(default_factory=list)
    notes: "list[str]" = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return all(ok for _name, ok, _detail in self.checks)

    @property
    def error_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def check(self, name: str, ok: bool, detail: str = "",
              weight: int = 1) -> None:
        """Record a correctness check; a failure counts ``weight`` ops."""
        self.checks.append((name, bool(ok), detail))
        if not ok:
            self.failed += max(1, weight)

    def put(self, name: str, value, unit: str) -> None:
        if value is None:
            self.check(f"{name} has enough samples", False)
            return
        self.metrics[name] = (float(value), unit)

    def settle(self, catalogue: "dict[str, str]", fill: bool) -> None:
        """Keep exactly ``catalogue``'s metrics, in its order and units.

        A missing metric reads 0 with ``fill`` (a layer this workload
        does not cross) and fails the run without.
        """
        got, self.metrics = self.metrics, {}
        for name, unit in catalogue.items():
            if name in got:
                value, have = got[name]
                self.check(f"{name} is in {unit}", have == unit, have)
                self.metrics[name] = (value, unit)
            elif fill:
                self.metrics[name] = (0.0, unit)
            else:
                self.check(f"{name} is reported", False)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


def quiet_half(times) -> list:
    """The smaller half (rounded up) of one time taken once per rep.

    The host is shared, and other tenants' noise only ever adds time, so
    set-up time is summarized over the ``ceil(n/2)`` fastest
    repetitions, which track the program's own cost far more steadily
    than all repetitions do.
    """
    ranked = sorted(times)
    return ranked[: (len(ranked) + 1) // 2]


def floor_times(reps: "list[list[float]]") -> "list[float]":
    """Each segment's least time over repetitions of the same input.

    Every repetition replays the same input, so its n-th segment (a
    planning epoch, or one KV call) does the same work each time, and
    interference from other tenants only ever adds time.  The least time
    of each segment is therefore the steadiest estimate of what the
    program spends on it; a tail pooled over whole repetitions is set by
    whichever epochs a tenant happened to hit.
    """
    return [min(xs) for xs in zip(*reps)]


def layer_medians(outcome: Outcome, samples: "list[dict]") -> None:
    """Per-layer metrics: the median of each over the traced reps."""
    for name in samples[0]:
        unit = samples[0][name][1]
        outcome.put(name, median([s[name][0] for s in samples]), unit)


def record_profile(outcome: Outcome, tracer: Tracer, wall: float) -> None:
    rows = sorted(tracer.self_time.items(), key=lambda kv: -kv[1])
    outcome.profile = [(name, s * 1e3, s / wall) for name, s in rows]


def fs_metrics(fs: CountingFS) -> "dict[str, tuple[float, str]]":
    """``util.fsio.*`` for every file class the run touched."""
    out = {}
    for cls, n in fs.bytes_written.items():
        if n:
            out[f"util.fsio.bytes_written.{cls}"] = (n, "bytes")
    if fs.bytes_read["sstable"]:
        out["util.fsio.bytes_read.sstable"] = (
            fs.bytes_read["sstable"], "bytes"
        )
    out["util.fsio.fsyncs"] = (fs.total_fsyncs, "count")
    return out


def kv_layer_metrics(tracer: Tracer, compactions: int
                     ) -> "dict[str, tuple[float, str]]":
    """``lsm.disk.*`` from one traced repetition."""
    ms = tracer.total
    calls = tracer.calls
    gets = calls.get("lsm.disk.get", 0)
    out = {
        "lsm.disk.put_ms": (ms["lsm.disk.put"] * 1e3, "ms"),
        "lsm.disk.wal.append_ms": (
            (ms["lsm.disk.wal.append"] + ms["lsm.disk.wal.flush"]) * 1e3,
            "ms",
        ),
        "lsm.disk.flush_memtable_ms": (
            ms["lsm.disk.flush_memtable"] * 1e3, "ms"
        ),
        "lsm.disk.flushes": (calls["lsm.disk.flush_memtable"], "count"),
        "lsm.disk.maintain_ms": (ms["lsm.disk.maintain"] * 1e3, "ms"),
        "lsm.disk.compactions": (compactions, "count"),
    }
    if gets:
        out["lsm.disk.get_ms"] = (ms["lsm.disk.get"] * 1e3, "ms")
        out["lsm.disk.sstables_probed_per_get"] = (
            calls["lsm.disk.sstable.get"] / gets, "count"
        )
    return out


# ---------------------------------------------------------------------
# serve workloads
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class ServeWorkload:
    """One serve workload: its config, driver and storage."""

    name: str
    driver: str  # "inproc" or "procpool"
    durable: bool  # lsm sink + fsynced journal + recovery

    def config(self, seed: int, directory: "Path | None" = None
               ) -> ServeConfig:
        if not self.durable:
            # Poisson at 8 msgs/step, uniform keys, 4 shards, P=4, B=16.
            return ServeConfig(
                arrivals="poisson", rate=8.0, messages=SERVE_MESSAGES,
                shards=4, P=4, B=16, theta=0.0, seed=seed,
            )
        # MMPP calm 4 / burst 32 (mean ~8.7 msgs/step), Zipf 0.99 over
        # the 256-key space, the durable KV engine as completion sink.
        # The admission queue holds 64*B, not the default 16*B: with the
        # default, a long burst onto the hottest shard sheds on some
        # seeds, and this workload must complete every message.
        return ServeConfig(
            arrivals="mmpp", rate=4.0, burst_rate=32.0,
            messages=SERVE_MESSAGES, shards=4, P=4, B=16, theta=0.99,
            max_queue=64 * 16, seed=seed, engine="lsm",
            data_dir=str(directory / "kv"),
        )

    def make_loop(self, seed: int, directory: Path):
        config = self.config(seed, directory)
        if self.driver == "procpool":
            # parent + one worker = the host's 2 cores
            return ProcPoolLoop(config, processes=1)
        if self.durable:
            return ServiceLoop(
                config, journal=directory / "serve.journal", sync=True
            )
        return ServiceLoop(config)

    def cpus(self) -> "tuple[int, ...]":
        """The CPUs a rep runs on: the process's, then the worker's."""
        return cpu_pair() if self.driver == "procpool" else cpu_pair()[:1]

    def trace(self, loop, tracer: Tracer, patches: Patches) -> None:
        if self.driver == "procpool":
            trace_procpool(loop, tracer, patches)
        else:
            trace_service_loop(loop, tracer, patches)


SERVE_WORKLOADS = {
    "serve_steady": ServeWorkload("serve_steady", "inproc", False),
    "serve_bursty_durable": ServeWorkload(
        "serve_bursty_durable", "inproc", True
    ),
    "serve_procpool": ServeWorkload("serve_procpool", "procpool", False),
}


@dataclass
class ServeRun:
    """One serve repetition."""

    setup_s: float
    wall_s: float
    takes: "list[tuple[int, float]]"
    #: wall seconds of each planning epoch, then of the time after the
    #: last epoch boundary; fast-state equivalents in scaled reps.
    spans: "list[float]"
    report: object
    directory: Path
    #: user key + value bytes written to the KV sink (counted runs).
    user_bytes: int = 0
    compactions: int = 0

    @property
    def completions(self) -> "dict[int, int]":
        return self.report.completions

    @property
    def journal(self) -> Path:
        return self.directory / "serve.journal"


def serve_rep(wl: ServeWorkload, seed: int, directory: Path, *,
              fs=None, tracer: "Tracer | None" = None,
              scaled: bool = False) -> ServeRun:
    """Build, run and time one serve repetition.

    With ``scaled``, times are fast-state equivalents
    (:mod:`e2ebench.host`): the host changes speed within a repetition,
    so the loop pauses at every :data:`SERVE_CAL_EPOCHS`-th epoch
    boundary to measure the slowdown, and divides each epoch's time by
    the mean factor at the two ends of its segment.  Pauses are not
    timed.
    """
    directory.mkdir(parents=True)
    cpus = wl.cpus()
    epoch = wl.config(seed, directory).epoch
    takes: "list[tuple[int, float]]" = []
    #: (epoch boundaries before it, slowdown) per calibration
    cals: "list[tuple[int, float]]" = []
    paused: "list[float]" = []  # calibration pause before each boundary
    user = [0]
    t0 = clock()
    first = [0.0]
    with pinned(cpus[0]), installed(fs if fs is not None else REAL_FS), \
            Patches() as patches:
        loop = wl.make_loop(seed, directory)
        take = loop.arrivals.take

        def recorded_take(t):
            if not takes:
                first[0] = clock()
                if wl.driver == "procpool":
                    # The workers exist by the first take; left to the
                    # scheduler, their placement alone moved throughput
                    # between ~7k and ~13k msgs/s from one process to
                    # the next.
                    pin_children(cpus[-1])
            if (t - 1) % epoch == 0:
                pause = 0.0
                if scaled and len(paused) % SERVE_CAL_EPOCHS == 0:
                    p0 = clock()
                    cals.append((len(paused), slowdown(cpus)))
                    pause = clock() - p0
                paused.append(pause)
            takes.append((t, clock()))
            return take(t)

        patches.set(loop.arrivals, "take", recorded_take)
        if tracer is not None:
            wl.trace(loop, tracer, patches)
        if fs is not None and loop.store is not None:
            put = loop.store.put

            def counted_put(key, value):
                user[0] += len(str(key).encode()) + len(
                    json.dumps(value, separators=(",", ":")).encode()
                )
                return put(key, value)

            patches.set(loop.store, "put", counted_put)
        report = loop.run()
        t1 = clock()
        if scaled:
            cals.append((len(paused), slowdown(cpus)))
    # A boundary's pause falls inside the epoch that ends there.
    spans = [x - p for x, p in zip(epoch_intervals(takes, epoch),
                                   paused[1:])]
    last = max(ts for t, ts in takes if (t - 1) % epoch == 0)
    spans.append(t1 - last)
    setup = first[0] - t0
    if scaled:
        for (lo, f0), (hi, f1) in zip(cals, cals[1:]):
            f = (f0 + f1) / 2
            spans[lo:hi] = [x / f for x in spans[lo:hi]]
        setup /= cals[0][1]
    return ServeRun(
        setup_s=setup, wall_s=t1 - first[0] - sum(paused), takes=takes,
        spans=spans, report=report, directory=directory,
        user_bytes=user[0],
        compactions=loop.store.compactions if loop.store is not None else 0,
    )


def check_serve(outcome: Outcome, run: ServeRun, ref: "ServeRun | None",
                label: str) -> None:
    """Conservation, no sheds, and (given ``ref``) identical results."""
    m = run.report.metrics
    arrived = len(m.arrival_step)
    done = len(m.completion_step)
    shed = len(m.shed_ids)
    outcome.attempted += arrived
    outcome.check(f"{label}: completed + shed == arrived",
                  done + shed == arrived,
                  f"{done} + {shed} vs {arrived}",
                  weight=abs(arrived - done - shed))
    outcome.check(f"{label}: nothing shed", shed == 0, f"{shed} shed",
                  weight=shed)
    if ref is not None:
        same = run.completions == ref.completions
        outcome.check(f"{label}: completions identical to rep 0", same,
                      weight=0 if same else arrived)


def serve_layer_metrics(wl: ServeWorkload, run: ServeRun, tracer: Tracer,
                        fs: CountingFS, rec: "Tracer | None"
                        ) -> "dict[str, tuple[float, str]]":
    """Per-layer metrics of one traced serve repetition."""
    total, self_t, calls, c = (
        tracer.total, tracer.self_time, tracer.calls, tracer.counts
    )
    wall = run.wall_s
    m = run.report.metrics
    done = m.completion_step
    out = {
        "serve.arrivals.take_ms": (total["serve.arrivals.take"] * 1e3, "ms"),
        "serve.router.route_ms": (total["serve.router.route"] * 1e3, "ms"),
        "tree.steps_mean": (
            statistics.fmean(done[g] - m.admit_step[g] for g in done),
            "steps",
        ),
        "serve.admission.wait_steps_mean": (
            statistics.fmean(
                m.admit_step[g] - m.arrival_step[g] for g in m.admit_step
            ),
            "steps",
        ),
    }
    if wl.driver == "procpool":
        out.update({
            "serve.procpool.send_ms": (
                total["serve.procpool.send"] * 1e3, "ms"
            ),
            "serve.procpool.wait_ms": (
                total["serve.procpool.wait"] * 1e3, "ms"
            ),
            "serve.procpool.bytes_sent": (c["ipc.bytes_sent"], "bytes"),
            "serve.procpool.bytes_received": (
                c["ipc.bytes_received"], "bytes"
            ),
            "serve.procpool.chunks": (c["ipc.chunks"], "count"),
        })
    else:
        plan_s = sum(v for k, v in c.items() if k.startswith("plan_s."))
        for mode in ("noop", "incremental", "full", "forced"):
            out[f"serve.planner.plans.{mode}"] = (c[f"plans.{mode}"], "count")
        out.update({
            "serve.planner.ms.incremental": (
                c["plan_s.incremental"] * 1e3, "ms"
            ),
            "serve.planner.ms.full": (
                (c["plan_s.full"] + c["plan_s.forced"]) * 1e3, "ms"
            ),
            "serve.planner.msgs_per_plan": (
                c["planned_msgs"] / max(1, c["plan_calls"]), "msgs"
            ),
            "serve.planner.wall_frac": (plan_s / wall, "frac"),
            "core.worms.instance_ms": (
                total["core.worms.instance"] * 1e3, "ms"
            ),
            "core.packed.ms": (total["core.packed"] * 1e3, "ms"),
            "core.reduction.self_ms": (self_t["core.reduction"] * 1e3, "ms"),
            "scheduling.mphtf.ms": (total["scheduling.mphtf"] * 1e3, "ms"),
            "core.task_to_flush.ms": (
                total["core.task_to_flush"] * 1e3, "ms"
            ),
            "policies.online.ms": (total["policies.online"] * 1e3, "ms"),
            "serve.router.step_self_ms": (
                self_t["serve.router.step"] * 1e3, "ms"
            ),
            "serve.router.flushes": (
                sum(s.flushes for s in run.report.shard_stats), "count"
            ),
            "serve.admission.ms": (
                (total["serve.admission.offer"]
                 + total["serve.admission.drain"]) * 1e3,
                "ms",
            ),
        })
    if wl.durable:
        out.update({
            "dam.journal.append_ms": (
                total["dam.journal.append"] * 1e3, "ms"
            ),
            "dam.journal.flush_ms": (total["dam.journal.flush"] * 1e3, "ms"),
            "dam.journal.records": (calls["dam.journal.append"], "count"),
            "dam.journal.bytes": (fs.bytes_written["journal"], "bytes"),
            "dam.journal.fsyncs": (fs.fsyncs["journal"], "count"),
            "dam.journal.scan_ms": (rec.total["dam.journal.scan"] * 1e3, "ms"),
            "serve.recover.rederive_ms": (
                rec.total["serve.recover.rederive"] * 1e3, "ms"
            ),
        })
        out.update(kv_layer_metrics(tracer, run.compactions))
        out.update(fs_metrics(fs))
        out["util.fsio.write_amp"] = (
            fs.total_written / run.user_bytes, "ratio"
        )
    out["trace.unattributed_frac"] = (1.0 - tracer.covered / wall, "frac")
    return out


def run_serve(wl: ServeWorkload, seed: int, seconds: float, trace: bool,
              tmp: Path, out_dir: Path) -> Outcome:
    outcome = Outcome(wl.name)
    ref: "ServeRun | None" = None  # rep 0, which the others must equal
    #: per untraced rep: (setup s, wall s, spans), scaled but the wall
    plain: "list[tuple[float, float, list[float]]]" = []
    traced_walls: "list[float]" = []
    layers: "list[dict]" = []
    recover_s = 0.0
    cpus = wl.cpus()
    start = clock()
    i = 0
    while True:
        gc.collect()
        run = serve_rep(wl, seed, tmp / f"rep{i}", scaled=True)
        check_serve(outcome, run, ref, f"rep {i}")
        if ref is None:
            ref = run
            sojourns = ref.report.metrics.sojourns()
            if wl.durable:
                before = slowdown(cpus)
                t = clock()
                with pinned(cpus[0]):
                    recovered = recover_serve(run.journal)
                recover_s = (clock() - t) / ((before + slowdown(cpus)) / 2)
                outcome.check(
                    f"rep {i}: recover_serve reproduces the completions",
                    recovered.report.completions == run.completions,
                    weight=len(run.completions),
                )
                del recovered
        plain.append((run.setup_s, run.wall_s, run.spans))
        shutil.rmtree(run.directory)
        i += 1
        if trace:
            gc.collect()
            tracer, fs = Tracer(), CountingFS()
            run = serve_rep(wl, seed, tmp / f"rep{i}", fs=fs, tracer=tracer)
            check_serve(outcome, run, ref, f"traced rep {i}")
            outcome.check(
                f"traced rep {i}: DAM metrics identical to untraced",
                run.report.metrics.sojourns() == sojourns
                and run.report.n_steps == ref.report.n_steps,
            )
            rec = None
            if wl.durable:
                rec = Tracer()
                with Patches() as patches:
                    trace_recovery(rec, patches)
                    recover_serve(run.journal)
            layers.append(serve_layer_metrics(wl, run, tracer, fs, rec))
            traced_walls.append(run.wall_s)
            shutil.rmtree(run.directory)
            i += 1
        del run
        elapsed = clock() - start
        if elapsed >= seconds and (trace or len(plain) >= MIN_REPS):
            break
        if elapsed >= seconds + OVERRUN_S:
            break
    if wl.driver == "procpool":
        # The same config in-process must land on identical completions.
        steady = ServiceLoop(SERVE_WORKLOADS["serve_steady"].config(seed))
        outcome.check(
            "procpool completions equal serve_steady's",
            steady.run().completions == ref.completions,
            weight=len(ref.completions),
        )
    if trace:
        finish_trace(outcome, layers, traced_walls,
                     [p[1] for p in plain], tracer,
                     out_dir / f"spans-{wl.name}-seed{seed}.jsonl")
        # DAM sojourn (the paper's objective) repeats exactly per seed.
        outcome.put("serve.sojourn_mean_steps", statistics.fmean(sojourns),
                    "steps")
        outcome.put("serve.sojourn_p999_steps", tail_rank(sojourns, 99.9),
                    "steps")
        if wl.durable:
            outcome.put("serve.recover.ms", recover_s * 1e3, "ms")
        return outcome
    outcome.check("every rep has the same epochs",
                  len({len(p[2]) for p in plain}) == 1)
    floor = floor_times([p[2] for p in plain])
    intervals = floor[:-1]
    outcome.put("throughput_per_s", len(ref.completions) / sum(floor), "1/s")
    outcome.put("latency_p50_ms", _ms(tail_rank(intervals, 50)), "ms")
    outcome.put("latency_p99_ms", _ms(tail_rank(intervals, 99)), "ms")
    outcome.put("setup_s", median(quiet_half(p[0] for p in plain)), "s")
    outcome.put("peak_rss_mb", peak_rss_mb(), "MB")
    raw = " ".join(
        f"{len(ref.completions) / wall:.0f}/{wall / sum(spans):.2f}"
        for _setup, wall, spans in plain
    )
    outcome.notes.append(
        f"{len(plain)} timed reps, {len(intervals)} epochs, "
        f"{len(sojourns)} sojourns per rep; raw msgs/s and "
        f"host slowdown per rep: {raw}"
    )
    return outcome


def finish_trace(outcome: Outcome, layers: "list[dict]",
                 traced_walls: "list[float]", plain_walls: "list[float]",
                 tracer: Tracer, spans: Path) -> None:
    """Per-layer medians, overhead, profile, and the span dump."""
    layer_medians(outcome, layers)
    outcome.put("trace.overhead_frac",
                median(traced_walls) / median(plain_walls) - 1.0, "frac")
    record_profile(outcome, tracer, traced_walls[-1])
    spans.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(spans)
    outcome.notes.append(f"spans of the last traced rep: {spans}")


def _ms(seconds: "float | None") -> "float | None":
    return None if seconds is None else seconds * 1e3


# ---------------------------------------------------------------------
# kv_mixed
# ---------------------------------------------------------------------
def kv_ops(seed: int, n: int = KV_OPS) -> "list[tuple[str, str, str]]":
    """``n`` seeded operations: 72% put, 8% delete, 20% get, uniform keys.

    Values are 64 bytes and unique per operation, so a stale read is
    always visible to the check.
    """
    rng = random.Random(seed)
    ops = []
    for i in range(n):
        r = rng.random()
        key = "k%05d" % rng.randrange(KV_KEYS)
        if r < KV_PUT:
            ops.append((PUT, key, ("%08d" % i) * 8))
        elif r < KV_DELETE:
            ops.append((DELETE, key, ""))
        else:
            ops.append((GET, key, ""))
    return ops


def open_store(directory: Path) -> KVStore:
    """Memtable 256, T=4, Horn-density compaction, page-cache WAL."""
    return KVStore(directory, memtable_capacity=KV_MEMTABLE,
                   size_ratio=KV_SIZE_RATIO, sync=False)


@dataclass
class KVRun:
    """One kv_mixed repetition; ``store`` is left open (not closed)."""

    setup_s: float
    wall_s: float
    #: ``wall_s`` before scaling to the host's fast state.
    raw_wall_s: float
    store: KVStore
    model: "dict[str, str]"
    #: the wall time of each store call, in operation order
    op_s: "list[float]"
    wrong_reads: int
    user_bytes: int
    live_bytes: int
    directory: Path


def kv_rep(ops, directory: Path, *, fs=None,
           tracer: "Tracer | None" = None, scaled: bool = False) -> KVRun:
    """One closed-loop pass of ``ops`` (:func:`kv_ops`) over a fresh store.

    Set-up is opening the empty store.  With ``scaled``, times are
    fast-state equivalents (:mod:`e2ebench.host`): a repetition lasts
    longer than the host keeps one speed, so the loop pauses every
    :data:`KV_CAL_EVERY` operations to measure the slowdown, and divides
    each segment's times by the mean factor at its two ends.  Pauses are
    not timed.
    """
    cpu = cpu_pair()[0]
    factor = slowdown([cpu]) if scaled else 1.0
    with pinned(cpu), installed(fs if fs is not None else REAL_FS), \
            Patches() as patches:
        if tracer is not None:
            trace_storage(tracer, patches)
        t0 = clock()
        store = open_store(directory)
        setup = (clock() - t0) / factor
        model: "dict[str, str]" = {}
        op_s: "list[float]" = []
        wrong = 0
        user = 0
        wall = raw_wall = 0.0
        for lo in range(0, KV_OPS, KV_CAL_EVERY):
            start = clock()
            for i in range(lo, min(lo + KV_CAL_EVERY, KV_OPS)):
                kind, key, value = ops[i]
                if tracer is not None:
                    tracer.tag = i
                t = clock()
                if kind == PUT:
                    store.put(key, value)
                    op_s.append(clock() - t)
                    model[key] = value
                    user += len(key) + len(value)
                elif kind == DELETE:
                    store.delete(key)
                    op_s.append(clock() - t)
                    model.pop(key, None)
                    user += len(key)
                else:
                    got = store.get(key)
                    op_s.append(clock() - t)
                    wrong += got != model.get(key)
            elapsed = clock() - start
            raw_wall += elapsed
            if scaled:
                after = slowdown([cpu])
                f = (factor + after) / 2
                factor = after
                elapsed /= f
                op_s[lo:] = [x / f for x in op_s[lo:]]
            wall += elapsed
    live = sum(p.stat().st_size for p in directory.iterdir() if p.is_file())
    return KVRun(setup, wall, raw_wall, store, model, op_s, wrong,
                 user, live, directory)


def kv_reopen(outcome: Outcome, run: KVRun, label: str) -> float:
    """Abandon ``run.store`` unclosed, reopen, compare with the model.

    Returns the reopen (crash recovery) time in seconds.
    """
    t = clock()
    reopened = open_store(run.directory)
    open_s = clock() - t
    items = reopened.items()
    reopened.close()
    expected = sorted(run.model.items())
    outcome.check(
        f"{label}: reopen after abandon reads back every acked write",
        items == expected,
        f"{len(items)} live keys vs {len(expected)} expected",
        weight=0 if items == expected else len(expected),
    )
    return open_s


def check_kv(outcome: Outcome, run: KVRun, label: str) -> None:
    outcome.attempted += KV_OPS
    outcome.check(f"{label}: every get matches the model",
                  run.wrong_reads == 0, f"{run.wrong_reads} wrong",
                  weight=run.wrong_reads)


def run_kv(seed: int, seconds: float, trace: bool, tmp: Path,
           out_dir: Path) -> Outcome:
    outcome = Outcome("kv_mixed")
    ops = kv_ops(seed)
    live_bytes = None  # rep 0's store size, which traced reps must equal
    #: per timed rep: (setup s, wall s, per-op latencies)
    plain: "list[tuple[float, float, list[float]]]" = []
    traced_walls: "list[float]" = []
    layers: "list[dict]" = []
    raw: "list[str]" = []
    start = clock()
    i = 0
    while True:
        gc.collect()
        run = kv_rep(ops, tmp / f"rep{i}", scaled=not trace)
        check_kv(outcome, run, f"rep {i}")
        if live_bytes is None:
            live_bytes = run.live_bytes
        plain.append((run.setup_s, run.wall_s, run.op_s))
        raw.append(f"{KV_OPS / run.raw_wall_s:.0f}/"
                   f"{run.raw_wall_s / run.wall_s:.2f}")
        done = clock() - start >= seconds and (
            trace or len(plain) >= KV_MIN_REPS
        )
        if done or trace:
            kv_reopen(outcome, run, f"rep {i}")
        else:
            run.store.close()
        shutil.rmtree(run.directory)
        i += 1
        if trace:
            gc.collect()
            tracer, fs = Tracer(), CountingFS()
            run = kv_rep(ops, tmp / f"rep{i}", fs=fs, tracer=tracer)
            check_kv(outcome, run, f"traced rep {i}")
            outcome.check(
                f"traced rep {i}: store size identical to untraced",
                run.live_bytes == live_bytes,
                f"{run.live_bytes} vs {live_bytes} bytes",
            )
            sample = kv_layer_metrics(tracer, run.store.compactions)
            sample.update(fs_metrics(fs))
            logical = sum(len(k) + len(v) for k, v in run.model.items())
            sample["util.fsio.write_amp"] = (
                fs.total_written / run.user_bytes, "ratio"
            )
            sample["util.fsio.space_amp"] = (
                run.live_bytes / logical, "ratio"
            )
            with installed(fs):
                sample["lsm.disk.open_ms"] = (
                    kv_reopen(outcome, run, f"traced rep {i}") * 1e3, "ms"
                )
            sample["trace.unattributed_frac"] = (
                1.0 - tracer.covered / run.wall_s, "frac"
            )
            layers.append(sample)
            traced_walls.append(run.wall_s)
            shutil.rmtree(run.directory)
            i += 1
        del run
        elapsed = clock() - start
        if done or (trace and elapsed >= seconds) or (
            elapsed >= seconds + OVERRUN_S
        ):
            break
    floor = floor_times([p[2] for p in plain])
    if trace:
        finish_trace(outcome, layers, traced_walls,
                     [p[1] for p in plain], tracer,
                     out_dir / f"spans-kv_mixed-seed{seed}.jsonl")
        # Per-kind tails come from the untraced reps between the traced
        # ones; the put p99.9 lands on memtable flushes and compactions.
        puts = [x for x, op in zip(floor, ops) if op[0] == PUT]
        gets = [x for x, op in zip(floor, ops) if op[0] == GET]
        outcome.put("lsm.disk.put_p50_us", _us(tail_rank(puts, 50)), "us")
        outcome.put("lsm.disk.put_p999_us", _us(tail_rank(puts, 99.9)),
                    "us")
        outcome.put("lsm.disk.get_p50_us", _us(tail_rank(gets, 50)), "us")
        outcome.put("lsm.disk.get_p99_us", _us(tail_rank(gets, 99)), "us")
        return outcome
    # Throughput of the store itself: operations per second spent in its
    # calls (the caller's own loop and model are not the program).
    outcome.put("throughput_per_s", KV_OPS / sum(floor), "1/s")
    outcome.put("latency_p50_ms", _ms(tail_rank(floor, 50)), "ms")
    outcome.put("latency_p99_ms", _ms(tail_rank(floor, 99)), "ms")
    outcome.put("setup_s", median(quiet_half(p[0] for p in plain)), "s")
    outcome.put("peak_rss_mb", peak_rss_mb(), "MB")
    outcome.notes.append(
        f"{len(plain)} timed reps of {KV_OPS} ops; raw ops/s and host "
        f"slowdown per rep: {' '.join(raw)}"
    )
    return outcome


def _us(seconds: "float | None") -> "float | None":
    return None if seconds is None else seconds * 1e6


WORKLOADS = (*SERVE_WORKLOADS, "kv_mixed")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tmp: Path, out_dir: Path) -> Outcome:
    """Run one workload end to end (see the module docstring)."""
    if name == "kv_mixed":
        outcome = run_kv(seed, seconds, trace, tmp, out_dir)
    else:
        outcome = run_serve(SERVE_WORKLOADS[name], seed, seconds, trace,
                            tmp, out_dir)
    outcome.settle(PER_LAYER if trace else END_TO_END, fill=trace)
    return outcome
