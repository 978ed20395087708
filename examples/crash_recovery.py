#!/usr/bin/env python
"""Crash recovery: kill a journaled run with SIGKILL, then resume it.

This is the durability layer end to end, with a *real* kill — not a
simulated one:

1. Launch ``python -m repro run --journal ...`` as a subprocess.
2. Poll the journal file and SIGKILL the child mid-run, leaving a
   (possibly torn) journal on disk.
3. ``RecoveryManager`` scans the journal, truncates the torn tail,
   rebuilds the machine state from the last durable checkpoint plus the
   journaled flushes after it, and resumes.
4. The recovered completion times are validated byte-identical to an
   uninterrupted run of the same configuration.

If the child finishes before the kill lands (fast machine, small run),
the script falls back to crash injection: it truncates the completed
journal at an arbitrary byte offset and recovers from that instead — the
recovery path is identical either way.

Run:  python examples/crash_recovery.py
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import repro
from repro.dam import RecoveryManager
from repro.faults import truncate_at

MESSAGES = 20_000
RUN_ARGS = [
    "--messages", str(MESSAGES), "--fanout", "4", "--height", "4",
    "--P", "4", "--B", "64", "--seed", "7", "--checkpoint-every", "16",
    "--rate", "0.05", "--fault-seed", "3",
]


def launch(journal: Path) -> subprocess.Popen:
    env = dict(os.environ)
    src_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "run",
         "--journal", str(journal)] + RUN_ARGS,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def kill_mid_run(child: subprocess.Popen, journal: Path) -> bool:
    """SIGKILL the child once the journal shows real progress.

    Returns False if the child completed before the kill landed.
    """
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if child.poll() is not None:
            return False
        # Wait until a few checkpoints are on disk so the kill lands
        # mid-run, not mid-planning.
        if journal.exists() and journal.stat().st_size > 200_000:
            child.send_signal(signal.SIGKILL)
            child.wait()
            return True
        time.sleep(0.01)
    child.kill()
    child.wait()
    return True


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="worms-crash-"))
    journal = workdir / "run.journal"

    print(f"launching journaled run ({MESSAGES} messages) ...")
    child = launch(journal)
    killed = kill_mid_run(child, journal)
    if killed:
        print(f"killed mid-run (SIGKILL); journal is "
              f"{journal.stat().st_size} bytes")
    else:
        print("child finished before the kill landed; injecting a crash "
              "by truncating the journal instead")
        truncate_at(journal, journal.stat().st_size * 3 // 5,
                    in_place=True)

    # --- recovery -----------------------------------------------------
    # ``python -m repro recover`` wraps exactly this; shown inline so the
    # moving parts are visible.  The executor is deterministic in the
    # journal's meta config, so re-running it reproduces the schedule the
    # interrupted run was executing.
    manager = RecoveryManager(journal)
    scan = manager.scan()
    print(f"scan: {len(scan.records)} records, torn tail = "
          f"{scan.torn_bytes} byte(s) ({scan.torn_reason or 'clean'})")

    from repro.__main__ import RunConfig

    config = RunConfig.from_meta(manager.meta)
    inst = config.build()
    reference = config.execute(inst)

    report = manager.recover(inst, reference)
    print(f"recovered: checkpoint at step {report.checkpoint_step}, "
          f"{report.replayed_flushes} journaled flushes replayed, "
          f"resumed from step {report.resumed_from_step}")
    print(f"resumed run: {report.result.max_completion_time} steps, "
          f"total completion time {report.result.total_completion_time}")
    print("completion times validated byte-identical to an "
          "uninterrupted run")


if __name__ == "__main__":
    main()
