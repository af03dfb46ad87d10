"""CLI contract: exit codes, key files, env overrides, output stability."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chainlog
from chainlog import signing
from chainlog.cli import (
    DATA_DIR_ENV,
    EXIT_ASSERTION,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_UNREACHABLE,
    load_keypair,
    main,
)

from conftest import forge_tip


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)


def _config(tmp_path, name="solo", unl=(), data_dir=None, db_attached=True):
    obj = {
        "node_id": name,
        "unl": list(unl),
        "role": "full",
        "db_attached": db_attached,
        "consensus": {"round_interval_ms": 100},
    }
    if data_dir is not None:
        obj["data_dir"] = str(data_dir)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(obj))
    return str(path)


def _key(tmp_path, obj, name="key.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _lines(capsys):
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


# ---------------------------------------------------------------------------
# Info commands
# ---------------------------------------------------------------------------


def test_server_info_reports_fresh_node(tmp_path, capsys):
    cfg = _config(tmp_path)
    assert main(["server-info", "--config", cfg]) == EXIT_OK
    (info,) = _lines(capsys)
    assert info["node_id"] == "solo"
    assert info["role"] == "full"
    assert info["validated_seq"] == 0
    assert info["voting"] is True


def test_start_run_ms_advances_and_exits(tmp_path, capsys):
    cfg = _config(tmp_path)
    assert main(["start", "--config", cfg, "--run-ms", "500"]) == EXIT_OK
    before, after = _lines(capsys)
    assert before["uptime_ms"] == 0
    assert after["uptime_ms"] == 500


def test_peers_empty_for_solo_node(tmp_path, capsys):
    cfg = _config(tmp_path)
    assert main(["peers", "--config", cfg]) == EXIT_OK
    (peers,) = _lines(capsys)
    assert peers == []


def test_endpoint_must_match_hosted_node(tmp_path, capsys):
    cfg = _config(tmp_path)
    assert main(["server-info", "--config", cfg, "--endpoint", "other"]) == (
        EXIT_UNREACHABLE
    )
    assert main(["server-info", "--config", cfg, "--endpoint", "solo"]) == EXIT_OK


# ---------------------------------------------------------------------------
# Key files
# ---------------------------------------------------------------------------


def test_load_keypair_label_and_seed_forms(tmp_path):
    label = load_keypair(_key(tmp_path, {"label": "alice"}))
    assert label.public_key == signing.account_keypair("alice").public_key
    seed = "ab" * 32
    explicit = load_keypair(
        _key(tmp_path, {"scheme": "hash-test", "seed_hex": seed}, "k2.json")
    )
    assert explicit.scheme_name == "hash-test"
    default = load_keypair(_key(tmp_path, {"seed_hex": seed}, "k3.json"))
    assert default.scheme_name == "ed25519"


@pytest.mark.parametrize(
    "obj",
    [
        {"seed_hex": "zz"},
        {"seed_hex": "ab"},  # wrong length
        {"scheme": "rot13", "seed_hex": "ab" * 32},
        {},
    ],
)
def test_bad_key_files_exit_config(tmp_path, obj, capsys):
    cfg = _config(tmp_path)
    key = _key(tmp_path, obj)
    code = main(["submit", "--config", cfg, "--key", key, "DROP TABLE t"])
    assert code == EXIT_CONFIG
    assert "bad key file" in capsys.readouterr().err


def test_missing_key_file_exits_config(tmp_path, capsys):
    cfg = _config(tmp_path)
    code = main(["submit", "--config", cfg, "--key", str(tmp_path / "nope"), "DROP TABLE t"])
    assert code == EXIT_CONFIG


# ---------------------------------------------------------------------------
# Submit and select against a persistent solo node
# ---------------------------------------------------------------------------


def test_submit_select_persist_across_invocations(tmp_path, capsys):
    data = tmp_path / "data"
    cfg = _config(tmp_path, data_dir=data)
    key = _key(tmp_path, {"label": "alice"})
    assert (
        main(["submit", "--config", cfg, "--key", key,
              "CREATE TABLE inv (qty INT, name TEXT)"])
        == EXIT_OK
    )
    (out,) = _lines(capsys)
    assert (out["status"], out["ledger_seq"], out["applied"]) == ("validated", 1, True)
    # A second process picks the chain up from disk and continues the account.
    assert (
        main(["submit", "--config", cfg, "--key", key,
              "INSERT INTO inv (qty, name) VALUES (5, 'bolt')"])
        == EXIT_OK
    )
    (out,) = _lines(capsys)
    assert out["ledger_seq"] == 2 and out["applied"] is True
    assert main(["select", "--config", cfg, "--key", key, "SELECT * FROM inv"]) == EXIT_OK
    (row,) = _lines(capsys)
    assert row == {"row_id": 1, "qty": 5, "name": "bolt"}


def test_submit_of_committed_noop_reports_reason(tmp_path, capsys):
    cfg = _config(tmp_path, data_dir=tmp_path / "data")
    key = _key(tmp_path, {"label": "alice"})
    code = main(["submit", "--config", cfg, "--key", key,
                 "INSERT INTO nowhere (x) VALUES (1)"])
    assert code == EXIT_OK  # it validated; the chain recorded the rejection
    (out,) = _lines(capsys)
    assert out["applied"] is False
    assert out["reason"] == "no_such_table"


def test_submit_sql_errors_exit_config(tmp_path, capsys):
    cfg = _config(tmp_path)
    key = _key(tmp_path, {"label": "alice"})
    assert main(["submit", "--config", cfg, "--key", key, "SELEKT"]) == EXIT_CONFIG
    assert main(["submit", "--config", cfg, "--key", key, "SELECT * FROM t"]) == (
        EXIT_CONFIG
    )
    assert main(["select", "--config", cfg, "--key", key, "DROP TABLE t"]) == EXIT_CONFIG


def test_submit_without_quorum_times_out_unreachable(tmp_path, capsys):
    # A config whose UNL names peers that are not running: the tx is accepted
    # but can never validate inside this single-process host.
    cfg = _config(tmp_path, name="n1", unl=("n2", "n3"))
    key = _key(tmp_path, {"label": "alice"})
    code = main(["submit", "--config", cfg, "--key", key, "DROP TABLE t"])
    assert code == EXIT_UNREACHABLE
    out = capsys.readouterr()
    assert json.loads(out.out.splitlines()[0])["status"] == "pending"
    assert "did not validate" in out.err


def test_select_errors_map_to_exit_codes(tmp_path, capsys):
    key = _key(tmp_path, {"label": "alice"})
    cfg = _config(tmp_path)
    assert main(["select", "--config", cfg, "--key", key, "SELECT * FROM ghost"]) == (
        EXIT_ASSERTION
    )
    assert "no_such_table" in capsys.readouterr().err
    detached = _config(tmp_path, name="det", db_attached=False)
    assert main(["select", "--config", detached, "--key", key, "SELECT * FROM t"]) == (
        EXIT_UNREACHABLE
    )


def test_data_dir_env_overrides_config(tmp_path, monkeypatch, capsys):
    cfg = _config(tmp_path)  # no data_dir in the file
    override = tmp_path / "envdata"
    monkeypatch.setenv(DATA_DIR_ENV, str(override))
    key = _key(tmp_path, {"label": "alice"})
    assert main(["submit", "--config", cfg, "--key", key, "CREATE TABLE t (x INT)"]) == (
        EXIT_OK
    )
    capsys.readouterr()
    assert (override / "chain.manifest").exists()
    assert main(["verify-chain", "--data-dir", str(override)]) == EXIT_OK
    (out,) = _lines(capsys)
    assert out["result"] == "Ok"


# ---------------------------------------------------------------------------
# verify-chain
# ---------------------------------------------------------------------------


def test_verify_chain_flags_and_corruption(tmp_path, capsys):
    assert main(["verify-chain"]) == EXIT_CONFIG
    assert main(["verify-chain", "--data-dir", str(tmp_path / "missing")]) == EXIT_CONFIG
    data = tmp_path / "data"
    cfg = _config(tmp_path, data_dir=data)
    key = _key(tmp_path, {"label": "alice"})
    assert main(["submit", "--config", cfg, "--key", key, "CREATE TABLE t (x INT)"]) == (
        EXIT_OK
    )
    assert main(["submit", "--config", cfg, "--key", key, "INSERT INTO t (x) VALUES (1)"]) == (
        EXIT_OK
    )
    capsys.readouterr()
    assert main(["verify-chain", "--config", cfg]) == EXIT_OK
    capsys.readouterr()
    # A forged tip: bad signature and wrong state, re-hashed, manifest re-pinned.
    saved = {p: p.read_bytes() for p in data.iterdir()}
    assert forge_tip(data, bad_signature=True) == 2
    assert main(["verify-chain", "--config", cfg]) == EXIT_ASSERTION
    (out,) = _lines(capsys)
    assert out["result"] in ("BrokenAt(2, bad_signature)", "BrokenAt(2, state_mismatch)")
    for path, raw in saved.items():
        path.write_bytes(raw)
    victim = data / "ledger_1.blk"
    raw = bytearray(victim.read_bytes())
    raw[-1] ^= 0xFF
    victim.write_bytes(bytes(raw))
    assert main(["verify-chain", "--config", cfg]) == EXIT_ASSERTION
    (out,) = _lines(capsys)
    assert out["result"] != "Ok"


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

SCRIPT = [
    {"t": 0, "action": "setup", "args": {"nodes": ["a", "b", "c"]}},
    {"t": 0, "action": "submit",
     "args": {"node": "a", "account": "ops", "id": "mk",
              "sql": "CREATE TABLE t (qty INT)"}},
    {"t": 0, "action": "run_until_tip", "args": {"seq": 1}},
    {"t": 5000, "action": "assert_equal_states", "args": {}},
    {"t": 5000, "action": "assert_status",
     "args": {"id": "mk", "node": "b", "status": "validated"}},
]


def _script(tmp_path, body, name="s.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def test_scenario_runs_and_is_bytewise_deterministic(tmp_path, capsys):
    script = _script(tmp_path, SCRIPT)
    assert main(["scenario", "--script", script, "--seed", "5"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["scenario", "--script", script, "--seed", "5"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    events = [json.loads(line) for line in first.splitlines()]
    assert events[0]["event"] == "setup"
    assert all(e["ok"] for e in events if e["event"] == "assert")


def test_scenario_bad_script_and_failed_assertion(tmp_path, capsys):
    notlist = _script(tmp_path, {"action": "setup"}, "bad.json")
    assert main(["scenario", "--script", notlist]) == EXIT_CONFIG
    assert "bad script" in capsys.readouterr().err
    failing = list(SCRIPT) + [
        {"t": 6000, "action": "assert_status",
         "args": {"id": "mk", "node": "b", "status": "pending"}},
    ]
    script = _script(tmp_path, failing, "fail.json")
    assert main(["scenario", "--script", script]) == EXIT_ASSERTION
    out = capsys.readouterr().out
    statuses = [json.loads(l) for l in out.splitlines() if json.loads(l)["event"] == "assert"]
    assert any(not e["ok"] for e in statuses)


# ---------------------------------------------------------------------------
# Usage errors and packaging
# ---------------------------------------------------------------------------


def test_usage_errors_fold_into_config_exit():
    assert main(["no-such-command"]) == EXIT_CONFIG
    assert main(["server-info"]) == EXIT_CONFIG  # missing --config
    assert main([]) == EXIT_CONFIG


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "chainlog" in capsys.readouterr().out


def test_console_script_entry_point(tmp_path):
    cfg = _config(tmp_path)
    # The child imports the same chainlog as this process, installed or not.
    env = dict(os.environ, PYTHONPATH=str(Path(chainlog.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "chainlog.cli", "server-info", "--config", cfg],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout.splitlines()[-1])["node_id"] == "solo"
