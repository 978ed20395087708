"""Golden parity of the command-line surface.

A refactor of how flags are declared must leave the CLI as it was.
Three things are pinned:

* the sorted option strings of every subcommand;
* the default and required-ness of every option of every subcommand;
* what the flags of every config-driven subcommand build from a set of
  argv vectors: for ``serve`` the driver class, ``ServeConfig.to_meta()``,
  ``SupervisorConfig.to_meta()``, the chaos plan and the journal
  keywords; for ``stability`` ``asdict(StabilityConfig)``; for
  ``compare``, ``solve`` and ``faults`` the instance (its repr and a
  digest of its tree and messages) and, for ``faults``, the sweep
  keywords; for ``run`` the instance, the journal writer's path and
  keywords (its ``meta`` included) and the executor's injector and
  keywords; for ``kv`` what ``build_policy`` and ``KVStore`` receive.
  The drivers, ``run_stability``, ``compare_policies``,
  ``solve_worms``, ``resilience_sweep``, ``JournalWriter``,
  ``GatedExecutor``, ``build_policy`` and ``KVStore`` are replaced by
  stubs that record their arguments, so nothing runs and no file is
  written.

The tenant vectors pass ``--burst-rate 16 --clients 8`` and every
per-tenant list, so each tenant's fields are the same whether a tenant
inherits the whole-run arrival flags or ``TenantSpec``'s own defaults.

Regenerate ``cli_golden.json`` (only when the CLI is *meant* to change)
with ``PYTHONPATH=src python -m tests.integration.test_cli_golden``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import pytest

import repro.__main__ as cli

GOLDEN = Path(__file__).with_name("data") / "cli_golden.json"

TENANT_RUN = (
    "serve --messages 600 --seed 14 --shards 2 --P 2 --B 8 --max-queue 64 "
    "--max-root-backlog 16 --burst-rate 16 --clients 8"
)

INSTANCE_FLAGS = (
    "--messages 321 --P 2 --B 8 --leaves 32 --fanout 3 --height 4 "
    "--skew 0.7 --seed 9"
)

VECTORS = {
    "compare/defaults": "compare",
    "compare/every-flag": "compare " + INSTANCE_FLAGS,
    "solve/defaults": "solve",
    "solve/leaves-skew": "solve --messages 222 --P 3 --B 16 --leaves 64 "
                         "--skew 1.1 --seed 5",
    "faults/defaults": "faults",
    "faults/every-flag": (
        "faults " + INSTANCE_FLAGS + " --rates 0,0.3 --retry-budget 2 "
        "--burst"
    ),
    "run/defaults": "run --journal run.woj",
    "run/iid": "run --journal iid.woj --rate 0.1 --fault-seed 2",
    "run/every-flag": (
        "run " + INSTANCE_FLAGS + " --journal j.woj --checkpoint-every 8 "
        "--sync --max-segment-bytes 4096 --rate 0.25 "
        "--burst --fault-seed 6 --retry-budget 3"
    ),
    "serve/defaults": "serve",
    "serve/every-config-flag": (
        "serve --arrivals mmpp --rate 3 --burst-rate 40 --p-burst 0.1 "
        "--p-calm 0.3 --clients 5 --think-time 2 --messages 321 --shards 3 "
        "--key-space 500 --skew 0.7 --P 2 --B 8 --fanout 3 --height 4 "
        "--leaves 32 --epoch 5 --max-root-backlog 20 "
        "--max-queue 40 --fault-rate 0.1 --fault-seed 7 "
        "--seed 9 --engine lsm --data-dir kv-dir --checkpoint-every 11 "
        "--journal run.woj --sync --max-segment-bytes 4096"
    ),
    "serve/closed": "serve --arrivals closed --clients 3 --think-time 1",
    "serve/supervised-every-flag": (
        "serve --trip-after 3 --probe-backoff 2 "
        "--max-backoff 9 --restart-budget 4 "
        "--watchdog-deadline 12.5 --divert --journal sup.woj"
    ),
    "serve/chaos-defaults": "serve --chaos --seed 3 --messages 400",
    "serve/chaos": (
        "serve --chaos --chaos-kills 2 --chaos-stalls 0 --chaos-corrupts 1 "
        "--chaos-kill-workers 1 --chaos-disk-faults 1 "
        "--chaos-stall-duration 5 --chaos-disk-fault-duration 3 "
        "--chaos-horizon 50 --seed 3 --messages 400"
    ),
    "serve/ci-procpool": (
        "serve --processes 2 --fault-rate 0.5 --fault-seed 1 --seed 1 "
        "--shards 2 --rate 6 --messages 400 --journal faulty.woj"
    ),
    "serve/tenants-every-list": (
        TENANT_RUN + " --tenants 2 --tenant-rates 30,3 "
        "--tenant-weights 2,1 --tenant-thetas 0.5,0 --tenant-slo 12,0 "
        "--tenant-slo-percentile 95 --tenant-quota 8,0"
    ),
    "serve/tenants-ci": (
        TENANT_RUN + " --tenants 2 --tenant-rates 30,3 "
        "--journal tenants-a.journal"
    ),
    "stability/defaults": "stability",
    "stability/every-flag": (
        "stability --scenario diurnal --messages 500 --seed 2 --shards 3 "
        "--P 2 --B 8 --height 4 --leaves 32 --epoch 5 "
        "--fault-rate 0.2 --fault-seed 3 --engine lsm --data-dir kv-dir "
        "--window 9 --stall-frac 0.4 --trailing 5 --json out.json"
    ),
    "stability/ci": (
        "stability --scenario flash-crowd --messages 8000 --seed 1 "
        "--fault-rate 0.05 --B 32 --height 4 --json run_a.json"
    ),
    "kv/defaults": "kv stats --dir kv-dir",
    "kv/every-flag": (
        "kv compact --dir kv-dir --n 50 --seed 3 --key-space 64 "
        "--crash-after 10 --sync --memtable-capacity 32 --size-ratio 3 "
        "--budget 2 --scheduler leveling --pace 128 --drain --json out.json"
    ),
    "kv/paced-ingest": "kv ingest --dir kv-dir --pace 256 --n 10",
}


class _Built(BaseException):
    """Raised by the stubs, past ``cmd_*``'s ``except Exception``."""

    def __init__(self, record: dict) -> None:
        super().__init__()
        self.record = record


def _meta(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if hasattr(value, "to_meta"):
        return value.to_meta()
    return asdict(value)


def _serve_stub(name: str):
    def build(config, **kwargs):
        raise _Built({
            "driver": name,
            "config": config.to_meta(),
            **{k: _meta(v) for k, v in sorted(kwargs.items())},
        })

    return build


def _stability_stub(config, **kwargs):
    raise _Built({"config": asdict(config)})


def _instance(inst) -> dict:
    shape = repr((inst.topology.parents.tolist(), inst.messages, inst.P,
                  inst.B, inst.start_nodes, inst.weights))
    return {"repr": repr(inst),
            "sha256": hashlib.sha256(shape.encode()).hexdigest()}


def _instance_stub(inst, *args, **kwargs):
    raise _Built({"instance": _instance(inst), **kwargs})


def _injector(injector):
    if injector is None:
        return None
    return {
        "type": type(injector).__name__,
        "plan": asdict(injector.plan),
        "bursts": asdict(injector.bursts) if hasattr(injector, "bursts")
        else None,
        "seed": injector.seed,
    }


class _WriterStub:
    """Stands in for ``JournalWriter``: records, writes nothing."""

    def __init__(self, path, **kwargs) -> None:
        self.record = {"path": str(path), **kwargs}

    def close(self) -> None:
        pass


def _executor_stub(inst, injector=None, *, journal=None, **kwargs):
    raise _Built({
        "instance": _instance(inst),
        "journal": None if journal is None else journal.record,
        "executor": {"injector": _injector(injector), **kwargs},
    })


def _policy_stub(scheduler, **kwargs):
    return {"scheduler": scheduler, **kwargs}


def _kv_store_stub(path, **kwargs):
    raise _Built({"path": str(path), **kwargs})


def built(argv: str) -> dict:
    """What ``python -m repro <argv>`` would hand its driver."""
    stubs = [
        mock.patch.object(cli, name, _serve_stub(name))
        for name in ("ServiceLoop", "ProcPoolLoop")
    ]
    stubs.append(mock.patch("repro.stability.run_stability", _stability_stub))
    stubs += [
        mock.patch.object(cli, name, _instance_stub)
        for name in ("compare_policies", "solve_worms", "resilience_sweep")
    ]
    stubs.append(mock.patch.object(cli, "JournalWriter", _WriterStub))
    stubs.append(mock.patch.object(cli, "GatedExecutor", _executor_stub))
    stubs.append(mock.patch("repro.lsm.disk.build_policy", _policy_stub))
    stubs.append(mock.patch("repro.lsm.disk.KVStore", _kv_store_stub))
    for stub in stubs:
        stub.start()
    try:
        cli.main(argv.split())
    except _Built as built:
        return built.record
    finally:
        for stub in stubs:
            stub.stop()
    raise AssertionError(f"{argv!r} built no driver")


def option_strings() -> dict:
    """Sorted option strings (positionals by dest) of every subcommand."""
    parser = cli.build_parser()
    sub = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: sorted(
            s
            for a in p._actions
            for s in (a.option_strings or [a.dest])
        )
        for name, p in sorted(sub.choices.items())
    }


def defaults() -> dict:
    """``repr`` of each option's default (``!`` marks a required one)."""
    parser = cli.build_parser()
    sub = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: {
            (a.option_strings or [a.dest])[0]:
                ("!" if a.required else "") + repr(a.default)
            for a in p._actions
        }
        for name, p in sorted(sub.choices.items())
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_option_strings_match_golden():
    assert option_strings() == _golden()["options"]


def test_option_defaults_match_golden():
    assert defaults() == _golden()["defaults"]


@pytest.mark.parametrize("case", sorted(VECTORS))
def test_built_config_matches_golden(case):
    assert built(VECTORS[case]) == _golden()["built"][case]


def main() -> None:
    doc = {
        "defaults": defaults(),
        "options": option_strings(),
        "built": {case: built(argv) for case, argv in sorted(VECTORS.items())},
    }
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc['options'])} subcommands + {len(doc['built'])} "
          f"argv vectors to {GOLDEN}")


if __name__ == "__main__":
    main()
