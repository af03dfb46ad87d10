"""Command-line surface: host a node, poke it, or run scripted scenarios.

Hosting model: every command is in-process. Commands that take ``--config``
build the node from its JSON config and data directory; a config with an
empty ``unl`` is a solo node that self-validates (quorum 1 of 1), which makes
``submit`` and ``select`` fully usable against a local data directory.
Multi-node flows run through ``scenario`` scripts, which host a whole
simulated network in one process.

Output is JSON lines on stdout; human-facing errors go to stderr.

Exit codes: 0 success; 1 parse/config errors; 2 unreachable endpoint;
3 assertion or verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional

from . import ledger as lgr
from . import netsim
from . import node as nd
from . import scenario as sc
from . import signing
from . import sqltext
from . import sqlvm
from .node import Node, SelectQuery

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_UNREACHABLE = 2
EXIT_ASSERTION = 3

DATA_DIR_ENV = "CHAINLOG_DATA_DIR"
SUBMIT_TIMEOUT_SIM_MS = 60000


def _print(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


class _CliError(Exception):
    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def _load_config(path: str) -> nd.NodeConfig:
    try:
        config = nd.load_node_config(Path(path))
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise _CliError(f"bad config {path}: {exc}", EXIT_CONFIG) from None
    override = os.environ.get(DATA_DIR_ENV)
    if override:
        config = dataclasses.replace(config, data_dir=Path(override))
    return config


def load_keypair(path: str) -> signing.KeyPair:
    """Key file: {"label": name} or {"scheme": name, "seed_hex": 64 hex}."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise _CliError(f"bad key file {path}: {exc}", EXIT_CONFIG) from None
    try:
        if "label" in obj:
            return signing.account_keypair(obj["label"])
        seed = bytes.fromhex(obj["seed_hex"])
        return signing.keypair_from_name(obj.get("scheme", "ed25519"), seed)
    except (KeyError, ValueError, signing.SigningError) as exc:
        raise _CliError(f"bad key file {path}: {exc}", EXIT_CONFIG) from None


class _StubPeer:
    """Stands in for a UNL member this process does not host.

    The hosted node's heartbeats and proposals land here and vanish, so a
    multi-node config can still be inspected (and times out on submit instead
    of crashing the simulator with an unknown-recipient error).
    """

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id

    def on_message(self, now: int, sender: str, data: bytes) -> list:
        return []


def _host(config: nd.NodeConfig, seed: int) -> tuple:
    """One node plus a private simulated clock to drive it."""
    net = netsim.SimNetwork(seed=seed)
    try:
        node = Node(config)
    except (ValueError, OSError) as exc:
        raise _CliError(f"cannot start node: {exc}", EXIT_CONFIG) from None
    net.register(node)
    for peer in config.unl.trusted:
        net.register(_StubPeer(peer))
    return net, node


def _check_endpoint(args, config: nd.NodeConfig) -> None:
    endpoint = getattr(args, "endpoint", None)
    if endpoint and endpoint != config.node_id:
        raise _CliError(
            f"endpoint {endpoint!r} is not reachable from this config "
            f"(hosts {config.node_id!r})",
            EXIT_UNREACHABLE,
        )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_start(args) -> int:
    config = _load_config(args.config)
    _check_endpoint(args, config)
    net, node = _host(config, args.seed)
    _print(node.server_info(net.now).to_json())
    if args.run_ms is not None:
        net.run_for(args.run_ms)
        _print(node.server_info(net.now).to_json())
        return EXIT_OK
    interval = node.timer_interval_ms
    try:
        while True:
            net.run_for(interval)
            time.sleep(interval / 1000.0)
    except KeyboardInterrupt:
        return EXIT_OK


def cmd_server_info(args) -> int:
    config = _load_config(args.config)
    _check_endpoint(args, config)
    net, node = _host(config, args.seed)
    _print(node.server_info(net.now).to_json())
    return EXIT_OK


def cmd_peers(args) -> int:
    config = _load_config(args.config)
    _check_endpoint(args, config)
    net, node = _host(config, args.seed)
    _print([{"node": p, "last_seen_ms": t} for p, t in node.peers()])
    return EXIT_OK


def cmd_submit(args) -> int:
    config = _load_config(args.config)
    _check_endpoint(args, config)
    keypair = load_keypair(args.key)
    try:
        stmt = sqltext.parse_sql(args.sql)
    except sqltext.SqlSyntaxError as exc:
        return _fail(f"sql: {exc}", EXIT_CONFIG)
    if isinstance(stmt, SelectQuery):
        return _fail("submit takes a write statement; use select", EXIT_CONFIG)
    net, node = _host(config, args.seed)
    account = lgr.AccountId.from_public_key(keypair.public_key)
    tx = lgr.sign_transaction(keypair, node.next_seq_hint(account), stmt)
    result = node.submit_transaction(tx)
    if result.status == "rejected":
        _print({"tx_id": tx.tx_id.hex(), "status": "rejected", "reason": result.reason})
        return EXIT_ASSERTION
    run = net.run_until(
        lambda _n: node.tx_status(tx.tx_id)[0] == "validated",
        net.now + SUBMIT_TIMEOUT_SIM_MS,
    )
    status, outcome = node.tx_status(tx.tx_id)
    if not run.satisfied or outcome is None:
        _print({"tx_id": tx.tx_id.hex(), "status": status})
        return _fail(
            "transaction did not validate; a multi-node config needs its peers "
            "(run it under scenario)",
            EXIT_UNREACHABLE,
        )
    _print(
        {
            "tx_id": tx.tx_id.hex(),
            "status": status,
            "ledger_seq": outcome.ledger_seq,
            "applied": outcome.applied,
            "reason": outcome.reason,
        }
    )
    return EXIT_OK


def cmd_select(args) -> int:
    config = _load_config(args.config)
    _check_endpoint(args, config)
    keypair = load_keypair(args.key)
    try:
        stmt = sqltext.parse_sql(args.sql)
    except sqltext.SqlSyntaxError as exc:
        return _fail(f"sql: {exc}", EXIT_CONFIG)
    if not isinstance(stmt, SelectQuery):
        return _fail("select takes a SELECT statement", EXIT_CONFIG)
    net, node = _host(config, args.seed)
    account = lgr.AccountId.from_public_key(keypair.public_key)
    try:
        rows = node.read_query(stmt, account)
    except nd.DbNotAttachedError as exc:
        return _fail(str(exc), EXIT_UNREACHABLE)
    except nd.NotSyncedError as exc:
        return _fail(str(exc), EXIT_UNREACHABLE)
    except Exception as exc:  # QueryError: table/permission/shape problems
        return _fail(str(exc), EXIT_ASSERTION)
    for row in rows:
        _print({"row_id": row.row_id, **row.values})
    return EXIT_OK


def cmd_scenario(args) -> int:
    try:
        script = sc.load_script(Path(args.script))
    except (OSError, json.JSONDecodeError, sc.ScenarioError) as exc:
        return _fail(f"bad script: {exc}", EXIT_CONFIG)
    data_root = Path(args.data_root) if args.data_root else None
    try:
        result = sc.run_scenario(script, args.seed, data_root)
    except sc.ScenarioError as exc:
        return _fail(f"scenario: {exc}", EXIT_CONFIG)
    sys.stdout.write(result.text)
    return EXIT_OK if result.ok else EXIT_ASSERTION


def cmd_verify_chain(args) -> int:
    if args.data_dir:
        data_dir: Optional[Path] = Path(args.data_dir)
    elif args.config:
        config = _load_config(args.config)
        data_dir = config.data_dir
    else:
        return _fail("verify-chain needs --config or --data-dir", EXIT_CONFIG)
    if data_dir is None or not data_dir.is_dir():
        return _fail(f"no data directory at {data_dir}", EXIT_CONFIG)
    try:
        check = sqlvm.load_data_dir(data_dir, check_signatures=True, check_state=True).check
    except (ValueError, lgr.CodecError) as exc:
        return _fail(f"cannot verify {data_dir}: {exc}", EXIT_CONFIG)
    _print({"result": str(check)})
    return EXIT_OK if check.ok else EXIT_ASSERTION


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainlog", description="chain-backed log database node tools"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="node config JSON path")
        p.add_argument("--endpoint", help="node id to address (must match the config)")
        p.add_argument("--seed", type=int, default=0, help="simulation seed")

    p = sub.add_parser("start", help="host a node from its config")
    common(p)
    p.add_argument("--run-ms", type=int, help="advance this much sim time, then exit")
    p.set_defaults(fn=cmd_start)

    p = sub.add_parser("server-info", help="print the node's info block")
    common(p)
    p.set_defaults(fn=cmd_server_info)

    p = sub.add_parser("peers", help="print the node's peer list")
    common(p)
    p.set_defaults(fn=cmd_peers)

    p = sub.add_parser("submit", help="sign and submit one write statement")
    common(p)
    p.add_argument("--key", required=True, help="account key file")
    p.add_argument("sql", help="the statement to record")
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser("select", help="run a read-only query")
    common(p)
    p.add_argument("--key", required=True, help="account key file")
    p.add_argument("sql", help="the SELECT statement")
    p.set_defaults(fn=cmd_select)

    p = sub.add_parser("scenario", help="run a scripted multi-node scenario")
    p.add_argument("--script", required=True, help="scenario script JSON path")
    p.add_argument("--seed", type=int, default=0, help="simulation seed")
    p.add_argument("--data-root", help="persist node data dirs under this root")
    p.set_defaults(fn=cmd_scenario)

    p = sub.add_parser("verify-chain", help="audit stored chain files and replay their state")
    p.add_argument("--config", help="node config JSON path")
    p.add_argument("--data-dir", help="verify this directory instead")
    p.set_defaults(fn=cmd_verify_chain)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; fold that into the config error class
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except _CliError as exc:
        return _fail(str(exc), exc.code)


if __name__ == "__main__":
    sys.exit(main())
