"""Scripted multi-node runs: a JSON action list driven through the simulator.

A script is a JSON array of ``{"t": sim_ms, "action": name, "args": {...}}``
sorted by time. The runner advances the simulated clock to each action's
time, executes it, and emits one JSON line per observable event. Output is
canonical (sorted keys, no whitespace), so a fixed (script, seed) pair
reproduces byte-identical output - that property is itself asserted by the
test suite.

Supported actions:

  setup            nodes, optional consensus overrides, partial roles,
                   detached databases, optional data_root for persistence
  submit           sign and submit one SQL statement for a named account
  select           run a SELECT on one node as a named account
  kill / revive    node failures
  partition / heal network splits
  run              advance the clock without doing anything
  run_until_tip    drive until nodes reach a ledger seq (or time out)
  server_info      print one node's info block
  peers            print one node's peer list
  checkpoint       write a checkpoint on one node
  prune            prune one partial-record node
  verify_chain     audit a node's held chain: links, signatures, replayed state
  assert_equal_states / assert_tip_at_least / assert_rows / assert_status
  attach_center    wire a RecoveryCenter to a backup node
  declare_failure / promote / measure
                   the disaster-recovery drill steps

Every assert action contributes to the run verdict; the CLI maps a failed
verdict to exit code 3.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from . import ledger as lgr
from . import middleware as mw
from . import netsim
from . import node as nd
from . import signing
from . import sqltext
from . import sqlvm
from .consensus import ConsensusConfig, Unl
from .node import Node, SelectQuery

DEFAULT_RUN_UNTIL_TIMEOUT_MS = 60000


@dataclass
class ScenarioResult:
    lines: List[str] = field(default_factory=list)
    assertions: int = 0
    failures: int = 0

    @property
    def ok(self) -> bool:
        return self.failures == 0

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + ("\n" if self.lines else "")


class ScenarioError(ValueError):
    """Malformed script or reference to something the script never set up."""


def load_script(path: Path) -> list:
    with open(path, "r", encoding="utf-8") as f:
        script = json.load(f)
    return validate_script(script)


def validate_script(script) -> list:
    if not isinstance(script, list):
        raise ScenarioError("script must be a JSON array of actions")
    last_t = 0
    for i, item in enumerate(script):
        if not isinstance(item, dict):
            raise ScenarioError(f"action {i} is not an object")
        t = item.get("t", last_t)
        if not isinstance(t, int) or t < last_t:
            raise ScenarioError(f"action {i}: times must be non-decreasing integers")
        last_t = t
        if not isinstance(item.get("action"), str):
            raise ScenarioError(f"action {i}: missing action name")
        if not isinstance(item.get("args", {}), dict):
            raise ScenarioError(f"action {i}: args must be an object")
    return script


class _Runner:
    def __init__(self, seed: int, data_root: Optional[Path] = None) -> None:
        self.seed = seed
        self.data_root = data_root
        self.net: Optional[netsim.SimNetwork] = None
        self.result = ScenarioResult()
        self.account_seq: Dict[str, int] = {}
        self.named_txs: Dict[str, bytes] = {}
        self.auto_tx = 0
        self.center: Optional[mw.RecoveryCenter] = None
        self.kill_times: Dict[str, int] = {}
        self.pre_failure_ids: tuple = ()
        self.promoted: Optional[Node] = None
        self.first_success_after_promote: Optional[int] = None

    # -- plumbing ---------------------------------------------------------

    def emit(self, event: str, **payload) -> None:
        line = {"t": self.net.now if self.net else 0, "event": event, **payload}
        self.result.lines.append(json.dumps(line, sort_keys=True, separators=(",", ":")))

    def check(self, name: str, passed: bool, **detail) -> None:
        self.result.assertions += 1
        if not passed:
            self.result.failures += 1
        self.emit("assert", name=name, ok=passed, **detail)

    def _net(self) -> netsim.SimNetwork:
        if self.net is None:
            raise ScenarioError("the first action must be setup")
        return self.net

    def _node(self, node_id: str) -> Node:
        net = self._net()
        if node_id not in net.nodes:
            raise ScenarioError(f"unknown node {node_id!r}")
        obj = net.nodes[node_id]
        if not isinstance(obj, Node):
            raise ScenarioError(f"{node_id!r} is not a chain node")
        return obj

    def _keypair(self, label: str) -> signing.KeyPair:
        return signing.account_keypair(label)

    def _next_seq(self, label: str, node: Node) -> int:
        account = lgr.AccountId.from_public_key(self._keypair(label).public_key)
        hint = node.next_seq_hint(account)
        seq = max(self.account_seq.get(label, 0) + 1, hint)
        self.account_seq[label] = seq
        return seq

    # -- actions ------------------------------------------------------------

    def do_setup(self, args: dict) -> None:
        if self.net is not None:
            raise ScenarioError("setup may appear only once")
        nodes = args.get("nodes")
        if not isinstance(nodes, list) or not nodes:
            raise ScenarioError("setup needs a nonempty node list")
        cobj = args.get("consensus", {})
        cfg = ConsensusConfig(
            round_thresholds=tuple(cobj.get("thresholds", (0.50, 0.65, 0.70, 0.80))),
            validation_quorum=float(cobj.get("quorum", 0.80)),
            round_interval_ms=int(cobj.get("round_interval_ms", 1000)),
        )
        partial = args.get("partial", {})
        detached = set(args.get("db_detached", []))
        self.net = netsim.SimNetwork(
            seed=self.seed,
            base_latency_ms=int(args.get("base_latency_ms", 10)),
            jitter_ms=int(args.get("jitter_ms", 5)),
            drop_rate=float(args.get("drop_rate", 0.0)),
        )
        unl_map = args.get("unl", {})  # optional per-node UNL override
        for node_id in nodes:
            trusted = tuple(unl_map.get(node_id, [p for p in nodes if p != node_id]))
            role = (
                nd.NodeRole.partial(int(partial[node_id]))
                if node_id in partial
                else nd.NodeRole.full()
            )
            data_dir = self.data_root / node_id if self.data_root else None
            config = nd.NodeConfig(
                node_id=node_id,
                unl=Unl(trusted),
                role=role,
                db_attached=node_id not in detached,
                consensus=cfg,
                data_dir=data_dir,
            )
            self.net.register(Node(config, voting=bool(args.get("voting", True))))
        self.emit("setup", nodes=sorted(nodes))

    def do_submit(self, args: dict) -> None:
        node = self._node(args["node"])
        label = args.get("account", "default")
        stmt = sqltext.parse_sql(args["sql"])
        if isinstance(stmt, SelectQuery):
            raise ScenarioError("submit takes a write statement; use select for reads")
        keypair = self._keypair(label)
        seq = self._next_seq(label, node)
        tx = lgr.sign_transaction(keypair, seq, stmt)
        name = args.get("id") or f"tx{self.auto_tx + 1}"
        self.auto_tx += 1
        self.named_txs[name] = tx.tx_id
        result = nd.submit_via(self._net(), node.node_id, tx)
        self.emit(
            "submit",
            id=name,
            node=node.node_id,
            status=result.status,
            reason=result.reason,
            tx_id=tx.tx_id.hex()[:16],
        )

    def do_select(self, args: dict) -> None:
        node = self._node(args["node"])
        label = args.get("account", "default")
        stmt = sqltext.parse_sql(args["sql"])
        if not isinstance(stmt, SelectQuery):
            raise ScenarioError("select takes a SELECT statement")
        account = lgr.AccountId.from_public_key(self._keypair(label).public_key)
        try:
            rows = node.read_query(stmt, account)
        except (nd.NotSyncedError, nd.DbNotAttachedError) as exc:
            self.emit("select", node=node.node_id, error=type(exc).__name__)
            return
        payload = [{"row_id": r.row_id, **r.values} for r in rows]
        self.emit("select", node=node.node_id, rows=payload)
        self._note_read_success()

    def do_kill(self, args: dict) -> None:
        net = self._net()
        net.kill(args["node"])
        self.kill_times[args["node"]] = net.now
        self.emit("kill", node=args["node"])

    def do_revive(self, args: dict) -> None:
        self._net().revive(args["node"])
        self.emit("revive", node=args["node"])

    def do_partition(self, args: dict) -> None:
        self._net().partition(args["groups"])
        self.emit("partition", groups=args["groups"])

    def do_heal(self, args: dict) -> None:
        self._net().heal()
        self.emit("heal")

    def do_run(self, args: dict) -> None:
        self._net().run_for(int(args.get("ms", 0)))

    def do_run_until_tip(self, args: dict) -> None:
        net = self._net()
        seq = int(args["seq"])
        nodes = args.get("nodes") or [
            n for n in net.live_nodes() if isinstance(net.nodes[n], Node)
        ]
        timeout = net.now + int(args.get("timeout_ms", DEFAULT_RUN_UNTIL_TIMEOUT_MS))
        run = net.run_until(
            lambda _n: all(self._node(i).tip.seq >= seq for i in nodes), timeout
        )
        self.emit("run_until_tip", seq=seq, satisfied=run.satisfied)

    def do_server_info(self, args: dict) -> None:
        node = self._node(args["node"])
        self.emit("server_info", info=node.server_info(self._net().now).to_json())

    def do_peers(self, args: dict) -> None:
        node = self._node(args["node"])
        self.emit(
            "peers",
            node=node.node_id,
            peers=[{"node": p, "last_seen_ms": t} for p, t in node.peers()],
        )

    def do_checkpoint(self, args: dict) -> None:
        node = self._node(args["node"])
        cp = node.checkpoint()
        self.emit("checkpoint", node=node.node_id, seq=cp.ledger_seq)

    def do_prune(self, args: dict) -> None:
        node = self._node(args["node"])
        pruned = node.prune()
        self.emit(
            "prune",
            node=node.node_id,
            from_seq=pruned.from_seq,
            to_seq=pruned.to_seq,
            checkpoint_seq=pruned.checkpoint_seq,
        )

    def do_verify_chain(self, args: dict) -> None:
        node = self._node(args["node"])
        chain = [node.chain_tail[s] for s in sorted(node.chain_tail)]
        check, _ = sqlvm.replay_from_genesis(chain, check_signatures=True, check_state=True)
        self.emit("verify_chain", node=node.node_id, result=str(check))

    # -- assertions ------------------------------------------------------------

    def do_assert_equal_states(self, args: dict) -> None:
        nodes = args.get("nodes") or [
            n for n in self._net().live_nodes() if isinstance(self._net().nodes[n], Node)
        ]
        hashes = {n: self._node(n).committed_state_hash().hex() for n in nodes}
        distinct = sorted(set(hashes.values()))
        self.check(
            "equal_states",
            len(distinct) == 1,
            nodes=sorted(nodes),
            distinct=len(distinct),
        )

    def do_assert_tip_at_least(self, args: dict) -> None:
        seq = int(args["seq"])
        nodes = args.get("nodes") or self._net().live_nodes()
        tips = {n: self._node(n).tip.seq for n in nodes}
        self.check(
            "tip_at_least", all(t >= seq for t in tips.values()), seq=seq, tips=tips
        )

    def do_assert_rows(self, args: dict) -> None:
        node = self._node(args["node"])
        label = args.get("account", "default")
        stmt = sqltext.parse_sql(args["sql"])
        account = lgr.AccountId.from_public_key(self._keypair(label).public_key)
        rows = [
            {"row_id": r.row_id, **r.values}
            for r in node.read_query(stmt, account)
        ]
        expect = args["rows"]
        self.check("rows", rows == expect, node=node.node_id, got=rows)

    def do_assert_status(self, args: dict) -> None:
        tx_id = self.named_txs.get(args["id"])
        if tx_id is None:
            raise ScenarioError(f"unknown tx id {args['id']!r}")
        node = self._node(args["node"]) if "node" in args else None
        nodes = [node] if node else [
            self._node(n) for n in self._net().live_nodes()
            if isinstance(self._net().nodes[n], Node)
        ]
        statuses = {n.node_id: n.tx_status(tx_id)[0] for n in nodes}
        want = args["status"]
        ok = (
            any(s == want for s in statuses.values())
            if want == "validated"
            else all(s == want for s in statuses.values())
        )
        self.check("status", ok, id=args["id"], want=want, statuses=statuses)

    # -- recovery drill ------------------------------------------------------------

    def do_attach_center(self, args: dict) -> None:
        backup = self._node(args["backup"])
        self.center = mw.RecoveryCenter(
            args.get("id", "dr"),
            backup,
            rpo_window_ms=int(args.get("rpo_window_ms", 10000)),
            ship_interval_ms=int(args.get("ship_interval_ms", 1000)),
        )
        if not bool(args.get("enabled", True)):
            self.center.enabled = False
        self._net().register(self.center)
        self.emit("attach_center", id=self.center.node_id, backup=backup.node_id)

    def _center(self) -> mw.RecoveryCenter:
        if self.center is None:
            raise ScenarioError("no recovery center attached")
        return self.center

    def do_declare_failure(self, args: dict) -> None:
        center = self._center()
        mw.declare_failure(center, self._net().now)
        self.pre_failure_ids = tuple(sorted(center.backup.committed_txs))
        self.emit("declare_failure", pre_failure_txs=len(self.pre_failure_ids))

    def do_promote(self, args: dict) -> None:
        center = self._center()
        try:
            self.promoted = mw.promote_backup(center)
        except mw.PromotionRefused as exc:
            self.emit("promote", ok=False, reason=str(exc))
            return
        self.emit("promote", ok=True, node=self.promoted.node_id)

    def _note_read_success(self) -> None:
        if self.promoted is not None and self.first_success_after_promote is None:
            self.first_success_after_promote = self._net().now

    def do_measure(self, args: dict) -> None:
        center = self._center()
        kill_time = min(self.kill_times.values()) if self.kill_times else 0
        first_ok = (
            self.first_success_after_promote
            if self.first_success_after_promote is not None
            else self._net().now
        )
        drill = mw.DrillRecord(kill_time, self.pre_failure_ids, first_ok)
        m = mw.measure_recovery(center, drill)
        self.emit("measure", rpo_lost_tx=m.rpo_lost_tx, rto_ms=m.rto_ms)
        if "max_rpo_lost" in args:
            self.check("rpo", m.rpo_lost_tx <= int(args["max_rpo_lost"]), got=m.rpo_lost_tx)
        if "max_rto_ms" in args:
            self.check("rto", m.rto_ms <= int(args["max_rto_ms"]), got=m.rto_ms)


_ACTIONS = {
    "setup": _Runner.do_setup,
    "submit": _Runner.do_submit,
    "select": _Runner.do_select,
    "kill": _Runner.do_kill,
    "revive": _Runner.do_revive,
    "partition": _Runner.do_partition,
    "heal": _Runner.do_heal,
    "run": _Runner.do_run,
    "run_until_tip": _Runner.do_run_until_tip,
    "server_info": _Runner.do_server_info,
    "peers": _Runner.do_peers,
    "checkpoint": _Runner.do_checkpoint,
    "prune": _Runner.do_prune,
    "verify_chain": _Runner.do_verify_chain,
    "assert_equal_states": _Runner.do_assert_equal_states,
    "assert_tip_at_least": _Runner.do_assert_tip_at_least,
    "assert_rows": _Runner.do_assert_rows,
    "assert_status": _Runner.do_assert_status,
    "attach_center": _Runner.do_attach_center,
    "declare_failure": _Runner.do_declare_failure,
    "promote": _Runner.do_promote,
    "measure": _Runner.do_measure,
}


def run_scenario(script: list, seed: int, data_root: Optional[Path] = None) -> ScenarioResult:
    """Execute a validated script; raises ScenarioError on malformed actions."""
    validate_script(script)
    runner = _Runner(seed, data_root)
    for item in script:
        target_t = item.get("t", 0)
        if runner.net is not None and target_t > runner.net.now:
            runner.net.run_for(target_t - runner.net.now)
        action = item["action"]
        handler = _ACTIONS.get(action)
        if handler is None:
            raise ScenarioError(f"unknown action {action!r}")
        handler(runner, item.get("args", {}))
    return runner.result
