"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.__main__ import main


def test_compare_runs(capsys):
    rc = main(["compare", "--messages", "100", "--P", "2", "--B", "16",
               "--leaves", "32", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "worms" in out
    assert "lower bound" in out


def test_compare_with_fanout_and_skew(capsys):
    rc = main(["compare", "--messages", "80", "--fanout", "3",
               "--height", "2", "--skew", "1.0"])
    assert rc == 0
    assert "eager" in capsys.readouterr().out


def test_solve_runs(capsys):
    rc = main(["solve", "--messages", "120", "--P", "2", "--B", "16",
               "--leaves", "32"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "packed sets" in out
    assert "valid schedule cost" in out
    assert "slot utilization" in out


def test_gadget_yes(capsys):
    rc = main(["gadget", "6", "7", "7", "6", "8", "6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "YES" in out
    assert "canonical schedule" in out


def test_gadget_no(capsys):
    rc = main(["gadget", "7", "9", "11", "7", "9", "9"])
    assert rc == 1
    assert "NO" in capsys.readouterr().out


def test_gadget_invalid_input(capsys):
    rc = main(["gadget", "1", "2"])
    assert rc == 2
    assert "invalid" in capsys.readouterr().err


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_faults_runs(capsys):
    rc = main(["faults", "--messages", "120", "--P", "2", "--B", "16",
               "--leaves", "32", "--seed", "0", "--rates", "0.1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "resilience under faults" in out
    for name in ("eager", "lazy-threshold", "greedy-batch", "worms",
                 "online"):
        assert name in out
    assert "p99-x" in out


def test_faults_rejects_bad_rates(capsys):
    rc = main(["faults", "--messages", "50", "--leaves", "16",
               "--rates", "0.1,banana"])
    assert rc == 2
    assert "invalid --rates" in capsys.readouterr().err
    rc = main(["faults", "--messages", "50", "--leaves", "16",
               "--rates", "1.5"])
    assert rc == 2
    assert "must be in [0, 1]" in capsys.readouterr().err


# ----------------------------------------------------------------------
# run + recover: the journaled crash-recovery loop.
# ----------------------------------------------------------------------
RUN_ARGS = ["run", "--messages", "150", "--fanout", "3", "--height", "3",
            "--P", "2", "--B", "12", "--seed", "4",
            "--checkpoint-every", "8"]


def test_run_writes_recoverable_journal(tmp_path, capsys):
    journal = tmp_path / "run.journal"
    rc = main(RUN_ARGS + ["--journal", str(journal)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "completed:" in out
    assert journal.stat().st_size > 0

    rc = main(["recover", str(journal)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "completed run" in out
    assert "validated identical" in out


def test_recover_after_kill(tmp_path, capsys):
    from repro.faults import truncate_at

    journal = tmp_path / "run.journal"
    assert main(RUN_ARGS + ["--journal", str(journal),
                            "--rate", "0.15", "--fault-seed", "2"]) == 0
    capsys.readouterr()
    killed = truncate_at(journal, journal.stat().st_size * 3 // 5,
                         out=tmp_path / "killed.journal")
    rc = main(["recover", str(killed)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "torn tail" in out
    assert "validated identical" in out


def test_recover_burst_run(tmp_path, capsys):
    journal = tmp_path / "burst.journal"
    assert main(RUN_ARGS + ["--journal", str(journal), "--rate", "0.3",
                            "--burst", "--fault-aware"]) == 0
    capsys.readouterr()
    assert main(["recover", str(journal)]) == 0
    assert "validated identical" in capsys.readouterr().out


def test_recover_corrupt_journal_is_typed_exit(tmp_path, capsys):
    from repro.faults import flip_byte

    journal = tmp_path / "run.journal"
    assert main(RUN_ARGS + ["--journal", str(journal)]) == 0
    capsys.readouterr()
    # Damage an early payload byte: mid-file corruption, not a tear.
    flip_byte(journal, 20, in_place=True)
    rc = main(["recover", str(journal)])
    assert rc == 1
    assert "journal corrupt" in capsys.readouterr().err


def test_run_rejects_bad_flags(tmp_path, capsys):
    rc = main(RUN_ARGS[:-2] + ["--journal", str(tmp_path / "x.journal"),
                               "--checkpoint-every", "0"])
    assert rc == 2
    rc = main(RUN_ARGS[:-2] + ["--journal", str(tmp_path / "x.journal"),
                               "--rate", "1.5"])
    assert rc == 2


def _one_line_error(capsys, prefix: str) -> None:
    err = capsys.readouterr().err
    assert err.startswith(prefix), err
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ["run", "--messages", "-5"],
    ["run", "--max-segment-bytes", "10"],
    ["solve", "--P", "0"],
    ["compare", "--B", "0"],
], ids=["run-negative-messages", "run-tiny-segments", "solve-P0",
        "compare-B0"])
def test_batch_bad_input_is_a_clean_exit(tmp_path, capsys, argv):
    cmd = argv[0]
    if cmd == "run":
        journal = tmp_path / "x.journal"
        argv = [*argv, "--journal", str(journal)]
    assert main(argv) == 2
    _one_line_error(capsys, f"invalid {cmd} configuration: ")
    if cmd == "run":
        assert not journal.exists()


@pytest.mark.parametrize("key, value", [("P", 0), ("messages", -3)])
def test_recover_unusable_meta_is_a_clean_exit(tmp_path, capsys, key,
                                               value):
    from repro.dam.journal import JournalWriter, RecoveryManager

    good = tmp_path / "good.journal"
    assert main(RUN_ARGS + ["--journal", str(good)]) == 0
    capsys.readouterr()
    meta = {**RecoveryManager(good).meta, key: value}
    bad = tmp_path / "bad.journal"
    JournalWriter(bad, meta=meta).close()
    assert main(["recover", str(bad)]) == 2
    _one_line_error(capsys, "journal meta unusable: ")


# ----------------------------------------------------------------------
# serve: the online ingestion/serving loop.
# ----------------------------------------------------------------------
SERVE_ARGS = ["serve", "--arrivals", "poisson", "--rate", "6", "--messages",
              "200", "--shards", "3", "--seed", "12"]


def test_serve_runs_and_reports(capsys):
    rc = main(SERVE_ARGS)
    assert rc == 0
    out = capsys.readouterr().out
    assert "serve poisson rate=6.0 shards=3 seed=12" in out
    assert "sojourn" in out
    assert "planner:" in out
    assert "admission:" in out


def test_serve_stdout_is_byte_reproducible(capsys):
    assert main(SERVE_ARGS) == 0
    first = capsys.readouterr().out
    assert main(SERVE_ARGS) == 0
    assert capsys.readouterr().out == first


def test_serve_seed_changes_output(capsys):
    assert main(SERVE_ARGS) == 0
    first = capsys.readouterr().out
    assert main(SERVE_ARGS[:-1] + ["13"]) == 0
    assert capsys.readouterr().out != first


def test_serve_overload_reports_shedding(capsys):
    rc = main(["serve", "--arrivals", "poisson", "--rate", "200",
               "--messages", "800", "--shards", "2", "--seed", "3",
               "--P", "2", "--B", "8", "--max-queue", "64",
               "--max-root-backlog", "32"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "shed" in out
    # The admission line reports a non-zero shed count under overload.
    admission = next(l for l in out.splitlines() if l.startswith("admission:"))
    shed = int(admission.split("admitted,")[1].split("shed")[0].strip())
    assert shed > 0


def test_serve_json_artifact(tmp_path, capsys):
    import json

    out_file = tmp_path / "metrics.json"
    rc = main(SERVE_ARGS + ["--json", str(out_file)])
    assert rc == 0
    data = json.loads(out_file.read_text())
    assert data["completed"] == 200
    assert data["config"]["seed"] == 12
    assert data["sojourn"]["p99"] >= data["sojourn"]["p50"] >= 1


def test_serve_rejects_bad_config(capsys):
    rc = main(["serve", "--arrivals", "poisson", "--rate", "-1",
               "--messages", "10"])
    assert rc == 2
    assert "invalid serve configuration" in capsys.readouterr().err


def test_serve_journal_recovers(tmp_path, capsys):
    journal = tmp_path / "serve.journal"
    rc = main(SERVE_ARGS + ["--journal", str(journal)])
    assert rc == 0
    capsys.readouterr()
    rc = main(["recover", str(journal)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "completed run" in out
    assert "identical to an uninterrupted run" in out


def test_serve_journal_recovers_after_kill(tmp_path, capsys):
    from repro.faults import truncate_at

    journal = tmp_path / "serve.journal"
    assert main(SERVE_ARGS + ["--journal", str(journal),
                              "--checkpoint-every", "4"]) == 0
    capsys.readouterr()
    killed = truncate_at(journal, journal.stat().st_size * 3 // 5,
                         out=tmp_path / "killed.journal")
    rc = main(["recover", str(killed)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "torn tail" in out
    assert "identical to an uninterrupted run" in out


def test_recover_seed_mismatch_is_an_error(tmp_path, capsys):
    journal = tmp_path / "serve.journal"
    assert main(SERVE_ARGS + ["--journal", str(journal)]) == 0
    capsys.readouterr()
    rc = main(["recover", str(journal), "--seed", "99"])
    assert rc == 2
    assert "does not match the journal's own seed" in capsys.readouterr().err
    # The matching seed passes the sanity check.
    assert main(["recover", str(journal), "--seed", "12"]) == 0


def test_gadget_accepts_seed(capsys):
    rc = main(["gadget", "6", "7", "7", "6", "8", "6", "--seed", "5"])
    assert rc == 0
    assert "YES" in capsys.readouterr().out


def test_faults_burst_flag(capsys):
    rc = main(["faults", "--messages", "80", "--fanout", "3", "--height",
               "2", "--P", "2", "--B", "12", "--rates", "0.2", "--burst",
               "--fault-aware"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "correlated bursts" in out
    assert "stalled" in out


#: sha256 of ``faults`` stdout for one iid and one burst argv: the sweep
#: builds its injectors through the same factory ``run`` uses, and its
#: report must not move.
FAULTS_STDOUT = {
    "faults --messages 150 --leaves 32 --B 16 --seed 1 --rates 0,0.1,0.3":
        "025761730008a81d843ddad979f23320b383eda17fe25d98144fa0e3f27e77b7",
    "faults --messages 150 --fanout 3 --height 3 --P 2 --B 12 --seed 2 "
    "--rates 0.1,0.3 --burst --fault-aware --retry-budget 3":
        "3549fa7a2097bcedcfde09285107841255cb3ca8cc3126deb9ac0a096997f918",
}


@pytest.mark.parametrize("argv", list(FAULTS_STDOUT),
                         ids=["iid", "burst"])
def test_faults_stdout_is_pinned(capsys, argv):
    import hashlib

    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FAULTS_STDOUT[argv]
