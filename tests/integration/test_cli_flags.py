"""Every config-driven flag is derived from a config field.

A field of ``ServeConfig``, ``TenantSpec``, ``SupervisorConfig``,
``StabilityConfig``, ``InstanceConfig``, ``RunConfig``,
``JournalOptions`` or ``ChaosConfig`` is a flag if and only if it has
``metadata["help"]``.  For each such field the flag exists, parses to
the field's default, and carries a non-default value through to the
field; no other field has a flag.  Most classes are read back from what
the flags hand the stubbed driver (see ``test_cli_golden``); the
instance and chaos flags, whose drivers see only the instance or the
drawn plan, are read back from the parsed flags.  Every ``serve`` run is
supervised, so a ``SupervisorConfig`` flag reaches the loop with no
other flag beside it.  Two behaviours the derivation fixed are pinned
here too: tenant runs inherit the whole-run arrival flags, and an
invalid stability config is a clean exit 2.
"""

from __future__ import annotations

import json
from dataclasses import fields

import pytest

from repro.__main__ import (
    InstanceConfig,
    JournalOptions,
    RunConfig,
    _config_values,
    build_parser,
    main,
)
from repro.faults import ChaosConfig
from repro.serve import ServeConfig, SupervisorConfig, TenantSpec
from repro.serve.tenancy.spec import INHERITED
from repro.stability import StabilityConfig
from tests.integration.test_cli_golden import built, option_strings


def _built(load):
    """Read a config back from what ``argv`` hands its driver."""
    return lambda argv: load(built(argv))


def _parsed(cls):
    """Read ``cls`` back from the flags ``argv`` parses to."""
    return lambda argv: cls(
        **_config_values(build_parser().parse_args(argv.split()), cls)
    )


#: config class -> (subcommand argv prefix, argv -> its instance).
CLASSES = {
    ServeConfig: ("serve", _built(lambda b: ServeConfig.from_meta(
        b["config"]))),
    SupervisorConfig: ("serve", _built(lambda b: SupervisorConfig.from_meta(
        b["supervisor"]))),
    TenantSpec: ("serve --tenants 2", _built(lambda b: ServeConfig.from_meta(
        b["config"]).tenants)),
    StabilityConfig: ("stability", _built(lambda b: StabilityConfig(
        **b["config"]))),
    InstanceConfig: ("compare", _parsed(InstanceConfig)),
    RunConfig: ("run --journal j.woj", _built(lambda b: RunConfig.from_meta(
        b["journal"]["meta"]))),
    JournalOptions: ("serve", _built(lambda b: JournalOptions(
        b["journal"], b["sync"], b["max_segment_bytes"],
        b["compact_every_rotations"]))),
    ChaosConfig: ("serve --chaos", _parsed(ChaosConfig)),
}


def _flag(f) -> str:
    return f.metadata.get("flag", "--" + f.name.replace("_", "-"))


def _flagged():
    for cls in CLASSES:
        for f in fields(cls):
            if "help" in f.metadata:
                yield pytest.param(cls, f, id=f"{cls.__name__}.{f.name}")


def _kind(f) -> type:
    return f.metadata.get("type", type(f.default))


def _other(f):
    """A valid non-default value for field ``f``, as flag text."""
    if "choices" in f.metadata:
        return next(c for c in f.metadata["choices"] if c != f.default)
    if _kind(f) is float:
        return str(f.default + 0.5)
    if _kind(f) is int:
        return "4096" if f.default is None else str(f.default + 7)
    return "x-dir"


def _record(cls, argv: str):
    prefix, load = CLASSES[cls]
    return load(f"{prefix} {argv}".strip())


def test_serve_config_fields_without_flags():
    assert {f.name for f in fields(ServeConfig)
            if "help" not in f.metadata} == {
        "trace", "eps", "max_steps", "tenants"}


@pytest.mark.parametrize("cls, f", _flagged())
def test_flag_exists_with_the_field_default(cls, f):
    prefix = CLASSES[cls][0].split()[0]
    assert _flag(f) in option_strings()[prefix]
    rec = _record(cls, "")
    if cls is TenantSpec:
        # Unset per-tenant lists fall back to the whole-run value for
        # inherited arrival fields, else to the TenantSpec default.
        run = _record(ServeConfig, "")
        default = getattr(run, f.name) if f.name in INHERITED \
            else f.default
        assert [getattr(t, f.name) for t in rec] == [default, default]
    else:
        assert getattr(rec, f.name) == f.default


@pytest.mark.parametrize("cls, f", _flagged())
def test_flag_value_reaches_the_field(cls, f):
    if isinstance(f.default, bool):
        argv, want = _flag(f), True
    else:
        text = _other(f)
        argv = f"{_flag(f)} {text}"
        want = _kind(f)(text)
        if f.metadata.get("per_tenant"):
            argv = f"{_flag(f)} {text},{text}"
        if f.name == "engine":
            argv += " --data-dir d"
    rec = _record(cls, argv)
    if cls is TenantSpec:
        assert [getattr(t, f.name) for t in rec] == [want, want]
    else:
        assert getattr(rec, f.name) == want


@pytest.mark.parametrize("cls", list(CLASSES), ids=lambda c: c.__name__)
def test_fields_without_help_have_no_flag(cls):
    prefix = CLASSES[cls][0].split()[0]
    options = set(option_strings()[prefix])
    dash = "--tenant-" if cls is TenantSpec else "--"
    for f in fields(cls):
        if "help" in f.metadata:
            continue
        flag = dash + f.name.replace("_", "-")
        if flag == "--tenants":
            # The tenant count, not the tuple field: it is hand-written.
            assert build_parser().parse_args(["serve"]).tenants == 0
            continue
        assert flag not in options, f"{cls.__name__}.{f.name}"


@pytest.mark.parametrize("cmd", ["compare", "solve", "faults", "run"])
def test_batch_subcommands_share_the_instance_flags(cmd):
    options = set(option_strings()[cmd])
    assert {_flag(f) for f in fields(InstanceConfig)} <= options
    if cmd == "faults":
        assert {"--retry-budget", "--burst", "--fault-aware"} <= options


def test_run_meta_is_the_run_config():
    config = RunConfig(skew=0.5, rate=0.1, burst=True, retry_budget=3)
    meta = config.to_meta()
    assert list(meta) == ["policy"] + [f.name for f in fields(RunConfig)]
    assert meta["policy"] == "worms"
    assert RunConfig.from_meta(meta) == config


def test_supervisor_flags_alone_steer_a_run(capsys):
    """One stalled epoch trips a breaker and no restart is allowed: the
    faulty shard is abandoned, its messages counted-shed."""
    argv = ("serve --fault-rate 0.5 --fault-seed 1 --seed 1 --shards 2 "
            "--rate 6 --messages 200")
    assert main(argv.split()) == 0
    assert "0 shards abandoned" in capsys.readouterr().out
    assert main([*argv.split(), "--trip-after", "1",
                 "--restart-budget", "0"]) == 0
    out = capsys.readouterr().out
    assert "arrived 200, admitted 105, completed 105, shed 95" in out
    assert "1 breaker trips" in out
    assert "1 shards abandoned" in out


def _tenant_run(capsys, *extra: str) -> str:
    assert main(["serve", "--messages", "400", "--seed", "3",
                 "--tenants", "2", *extra]) == 0
    return capsys.readouterr().out


def test_tenant_runs_inherit_whole_run_arrival_flags(capsys):
    mmpp = ("--arrivals", "mmpp", "--p-burst", "0.5")
    assert _tenant_run(capsys, *mmpp, "--burst-rate", "32") \
        != _tenant_run(capsys, *mmpp, "--burst-rate", "200")
    closed = ("--arrivals", "closed")
    assert _tenant_run(capsys, *closed, "--clients", "2") \
        != _tenant_run(capsys, *closed, "--clients", "64")


def test_tenant_lists_override_inherited_flags(tmp_path, capsys):
    out = tmp_path / "m.json"
    _tenant_run(capsys, "--rate", "6", "--skew", "0.4",
                "--tenant-rates", "5,3", "--json", str(out))
    tenants = json.loads(out.read_text())["config"]["tenants"]
    assert [t["rate"] for t in tenants] == [5.0, 3.0]
    assert [t["theta"] for t in tenants] == [0.4, 0.4]


@pytest.mark.parametrize("argv", [
    ["--engine", "lsm"], ["--fault-rate", "2"],
])
def test_stability_invalid_config_is_a_clean_exit(capsys, argv):
    assert main(["stability", *argv]) == 2
    assert "invalid stability configuration" in capsys.readouterr().err
