"""Run one benchmark workload (or all four) and print its metrics.

Usage, from the repository root::

    python3 e2ebench/run.py --workload serve_steady --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a traced run.  Every metric is printed by name with its unit,
then the last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``failed / attempted`` is ``error_frac``: shed messages, wrong reads and
failed checks over the operations attempted.  The exit code is 0 when
every check passed, 1 when one failed, and 2 when the program's sources
(``src/repro``) are not next to this directory.

Scratch files go to ``.e2ebench/`` under the repository root and are
removed at exit; traced runs leave their spans there as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = (
    "serve_steady", "serve_bursty_durable", "serve_procpool", "kv_mixed",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measured time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"e2ebench: program sources not found under {src}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from e2ebench.workloads import run_workload

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    out_dir = ROOT / ".e2ebench"
    tmp = out_dir / f"tmp-{os.getpid()}"
    outcomes = []
    try:
        for name in names:
            outcome = run_workload(name, args.seed, args.seconds,
                                   bool(args.trace), tmp / name, out_dir)
            report(outcome)
            outcomes.append(outcome)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    prefix = len(outcomes) > 1
    metrics = {
        (f"{o.workload}.{name}" if prefix else name): {
            "value": value, "unit": unit,
        }
        for o in outcomes for name, (value, unit) in o.metrics.items()
    }
    correct = all(o.correct for o in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def report(outcome) -> None:
    """The human-readable block for one workload."""
    print(f"== {outcome.workload}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    print(f"  {'error_frac':<40} {outcome.error_frac:>16.6g} frac"
          f"  ({outcome.failed} of {outcome.attempted})")
    if outcome.profile:
        print("  self time by span (last traced rep):")
        for name, ms, share in outcome.profile:
            print(f"    {name:<38} {ms:>10.1f} ms {share:>7.1%}")
    for name, ok, detail in outcome.checks:
        if not ok:
            print(f"  FAILED {name} {detail}")
    print(f"  checks: {sum(ok for _n, ok, _d in outcome.checks)}"
          f"/{len(outcome.checks)} passed")
    for note in outcome.notes:
        print(f"  {note}")


if __name__ == "__main__":
    sys.exit(main())
