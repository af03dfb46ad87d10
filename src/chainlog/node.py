"""Node runtime: binds the chain, the consensus engine, and the table store.

A node exposes three access paths: direct chain writes (submit), fast local
reads against the last committed ledger, and a combined endpoint that routes
by operation kind. ``Node.store`` always holds the committed state at the
tip, so reads, submit checks and checkpoints use it directly and never see a
built but unvalidated ledger. Each agreed tx applies once per node: the
ledger a node validates is built on a clone of the store, kept beside the
engine's accepted ledger, and adopted at commit. A ledger the node did not
build arrives through sync or restart, which adopt their verified store the
same way. Clones share row dicts, so each costs a copy of the row maps, not
of the rows.

Wire behavior per tick: heartbeat to known peers, then (if voting) advance
the consensus round machine. Nodes that fall behind catch up by requesting
ledgers from peers; fresh or revived nodes stay non-voting until their state
hash matches a peer's advertised tip.

Each open tx is kept with its wire frame: the bytes it arrived in, or for a
local submit a frame packed once. A node relays the bytes it received on
first sight and floods the stored frame, so it packs no tx frame per send. A
tx frame byte-equal to a stored one is dropped before decoding: strict
decoding is injective, so it would decode to that open tx and be turned away
as a duplicate. Frames leave with their txs, at commit or when a sync or
restart adopts ledgers that applied them.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from . import consensus as cns
from . import ledger as lgr
from . import netsim
from . import signing
from . import sqlvm
from .codec import CodecError
from .consensus import ConsensusConfig, ConsensusEngine, Unl
from .ledger import AccountId, Ledger, Transaction
from .netsim import Info, LedgerData, LedgerRequest

log = logging.getLogger(__name__)

GAP_LIMIT = 1  # ledgers a read may lag the validated tip
CHECKPOINT_EVERY = 5  # partial-record nodes checkpoint every this many ledgers
_MAX_SEQ = (1 << 64) - 1


@dataclass(frozen=True)
class NodeRole:
    kind: str  # "full" | "partial"
    retain_last: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("full", "partial"):
            raise ValueError(f"unknown node role {self.kind!r}")
        if self.kind == "partial" and self.retain_last < 2:
            raise ValueError("partial-record retain_last must be >= 2")

    @classmethod
    def full(cls) -> "NodeRole":
        return cls("full")

    @classmethod
    def partial(cls, retain_last: int) -> "NodeRole":
        return cls("partial", retain_last)

    def to_json(self) -> Union[str, dict]:
        return "full" if self.kind == "full" else {"partial": self.retain_last}


@dataclass(frozen=True)
class NodeConfig:
    node_id: str
    unl: Unl
    role: NodeRole = field(default_factory=NodeRole.full)
    db_attached: bool = True
    consensus: ConsensusConfig = field(default_factory=ConsensusConfig)
    data_dir: Optional[Path] = None


_CONSENSUS_KEYS = {"round_interval_ms", "quorum", "thresholds"}
_CONFIG_KEYS = {"node_id", "unl", "role", "db_attached", "consensus", "data_dir"}


def parse_node_config(obj: dict) -> NodeConfig:
    """Parse the JSON config shape; unknown keys are errors, not warnings."""
    if not isinstance(obj, dict):
        raise ValueError("node config must be a JSON object")
    unknown = set(obj) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key in ("node_id", "unl"):
        if key not in obj:
            raise ValueError(f"config missing required key {key!r}")
    node_id = obj["node_id"]
    if not isinstance(node_id, str) or not node_id:
        raise ValueError("node_id must be a nonempty string")
    unl_ids = obj["unl"]
    if not isinstance(unl_ids, list) or not all(isinstance(n, str) for n in unl_ids):
        raise ValueError("unl must be a list of node id strings")
    role_obj = obj.get("role", "full")
    if role_obj == "full":
        role = NodeRole.full()
    elif isinstance(role_obj, dict) and set(role_obj) == {"partial"}:
        role = NodeRole.partial(int(role_obj["partial"]))
    else:
        raise ValueError(f"role must be \"full\" or {{\"partial\": N}}, got {role_obj!r}")
    db_attached = obj.get("db_attached", True)
    if not isinstance(db_attached, bool):
        raise ValueError("db_attached must be a boolean")
    data_dir = obj.get("data_dir")
    return NodeConfig(
        node_id=node_id,
        unl=Unl(tuple(unl_ids)),
        role=role,
        db_attached=db_attached,
        consensus=parse_consensus_config(obj.get("consensus", {})),
        data_dir=Path(data_dir) if data_dir is not None else None,
    )


def parse_consensus_config(cobj: dict) -> ConsensusConfig:
    """Parse the ``consensus`` object of a node config or a scenario setup."""
    if not isinstance(cobj, dict):
        raise ValueError("consensus must be an object")
    unknown = set(cobj) - _CONSENSUS_KEYS
    if unknown:
        raise ValueError(f"unknown consensus keys: {sorted(unknown)}")
    try:
        return ConsensusConfig(
            round_thresholds=tuple(cobj.get("thresholds", cns.DEFAULT_THRESHOLDS)),
            validation_quorum=float(cobj.get("quorum", cns.DEFAULT_QUORUM)),
            round_interval_ms=int(cobj.get("round_interval_ms", cns.DEFAULT_ROUND_INTERVAL_MS)),
        )
    except TypeError as exc:
        raise ValueError(f"bad consensus value: {exc}") from None


def load_node_config(path: Path) -> NodeConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_node_config(json.load(f))


# ---------------------------------------------------------------------------
# Results and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubmitResult:
    status: str  # "accepted" | "duplicate" | "rejected"
    tx_id: Optional[bytes] = None
    reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status in ("accepted", "duplicate")


@dataclass(frozen=True)
class TxOutcome:
    ledger_seq: int
    applied: bool
    reason: Optional[str] = None  # rejection reason when not applied


@dataclass(frozen=True)
class SyncReport:
    ok: bool
    from_seq: int = 0
    to_seq: int = 0
    used_checkpoint: bool = False
    became_voting: bool = False
    reason: Optional[str] = None


@dataclass(frozen=True)
class PrunedRange:
    from_seq: int
    to_seq: int
    checkpoint_seq: int


@dataclass(frozen=True)
class ServerInfo:
    node_id: str
    role: NodeRole
    peer_count: int
    validated_seq: int
    validated_hash: bytes
    applied_seq: int
    open_tx_count: int
    uptime_ms: int
    voting: bool

    def to_json(self) -> dict:
        return {
            "node_id": self.node_id,
            "role": self.role.to_json(),
            "peer_count": self.peer_count,
            "validated_seq": self.validated_seq,
            "validated_hash": self.validated_hash.hex(),
            "applied_seq": self.applied_seq,
            "open_tx_count": self.open_tx_count,
            "uptime_ms": self.uptime_ms,
            "voting": self.voting,
        }


class NotSyncedError(Exception):
    """The local database lags the validated tip beyond the gap limit."""

    def __init__(self, applied_seq: int, validated_seq: int) -> None:
        super().__init__(f"applied seq {applied_seq} lags validated tip {validated_seq}")
        self.applied_seq = applied_seq
        self.validated_seq = validated_seq


class DbNotAttachedError(Exception):
    pass


@dataclass(frozen=True)
class SelectQuery:
    """A read-only query; never enters the chain."""

    table: str
    where: tuple  # ((column, literal), ...)


class TxHandle:
    """Client-side view of one submitted transaction."""

    def __init__(self, node: "Node", tx_id: bytes) -> None:
        self._node = node
        self.tx_id = tx_id

    def status(self) -> Tuple[str, Optional[TxOutcome]]:
        return self._node.tx_status(self.tx_id)


# ---------------------------------------------------------------------------
# The node
# ---------------------------------------------------------------------------


class Node:
    """One chain node; plugs into SimNetwork as an event-loop object."""

    def __init__(self, config: NodeConfig, now: int = 0, voting: bool = True) -> None:
        self.config = config
        self.node_id = config.node_id
        self.data_dir: Optional[Path] = config.data_dir
        if self.data_dir is not None:
            self.data_dir.mkdir(parents=True, exist_ok=True)
        self.keypair = cns.validator_keypair(config.node_id)
        self.store = sqlvm.TableStore()  # committed state at tip, never a built ledger
        # The ledger this node built for the engine's accepted ledger: (ledger,
        # its store, per-tx results). _commit adopts it; a sync or restart drops it.
        self._built: Optional[Tuple[Ledger, sqlvm.TableStore, list]] = None
        self.engine = ConsensusEngine(
            config.node_id, config.unl, config.consensus, self.keypair, self._build_ledger
        )
        genesis = lgr.genesis_ledger(sqlvm.state_hash(self.store))
        self.tip: lgr.LedgerHeader = genesis.header
        self.chain_tail: Dict[int, Ledger] = {0: genesis}
        self.committed_txs: Dict[bytes, TxOutcome] = {}
        self.last_seen: Dict[str, int] = {}
        self.voting = voting
        self.started_at = now
        self.known_validated_seq = 0
        self._now = now
        self.commit_times: Dict[int, int] = {}  # seq -> sim time of local commit
        self.commit_rounds: Dict[int, int] = {}  # seq -> establish rounds used (own accepts)
        self._sync_requested: Set[Tuple[str, int]] = set()
        self._fetch_requested: Set[int] = set()
        if self.data_dir is not None:
            if (self.data_dir / lgr.MANIFEST_NAME).exists():
                self._load_from_disk()
            else:
                self._persist_ledger(genesis)

    # -- netsim protocol -------------------------------------------------------

    @property
    def timer_interval_ms(self) -> int:
        return self.config.consensus.round_interval_ms

    def on_timer(self, now: int) -> List[Tuple[str, bytes]]:
        self._now = now
        out: List[Tuple[str, bytes]] = []
        hb = Info.of(
            "heartbeat",
            tip_seq=str(self.tip.seq),
            tip_hash=self.tip.hash().hex(),
        )
        frame = netsim.pack_message(hb)
        for peer in self._heartbeat_targets():
            out.append((peer, frame))
        if self.voting:
            step = self.engine.tick(now, proposable=self._proposable_ids())
            out.extend(self._emit(step))
            out.extend(self._try_commit())
        return out

    def on_message(self, now: int, sender: str, data: bytes) -> List[Tuple[str, bytes]]:
        self._now = now
        self.last_seen[sender] = now
        if data in self.engine.known_frames:
            # The frame of an open tx, byte for byte. Strict decoding is
            # injective, so it would decode to that tx, a duplicate.
            return []
        try:
            msg = netsim.unpack_message(data)
        except CodecError as exc:
            log.warning("%s: dropping malformed message from %s: %s", self.node_id, sender, exc)
            return []
        if isinstance(msg, Transaction):
            return self._on_tx_submit(sender, msg, data)
        return self._dispatch(now, sender, msg)

    def on_revive(self, now: int) -> List[Tuple[str, bytes]]:
        """Restart from disk; stay non-voting until a peer confirms our tip."""
        self._now = now
        self.started_at = now
        self.voting = False
        self.last_seen = {}
        self._sync_requested.clear()
        self._fetch_requested.clear()
        if self.data_dir is not None:
            self._load_from_disk()
        req = LedgerRequest(self.node_id, self.tip.seq + 1, _MAX_SEQ)
        frame = netsim.pack_message(req)
        return [(peer, frame) for peer in sorted(self.config.unl.trusted)]

    # -- message dispatch ---------------------------------------------------------

    def _dispatch(self, now: int, sender: str, msg) -> List[Tuple[str, bytes]]:
        if isinstance(msg, cns.Proposal):
            self.engine.receive_proposal(msg)
            return []
        if isinstance(msg, cns.Validation):
            if self.engine.receive_validation(msg):
                self._note_quorum(msg.ledger_seq)
                return self._try_commit()
            return []
        if isinstance(msg, LedgerRequest):
            reply = self._serve_ledgers(msg)
            return [(sender, netsim.pack_message(reply))] if reply else []
        if isinstance(msg, LedgerData):
            report = self.apply_sync(msg)
            if not report.ok and report.reason not in ("peer behind us", "peer sent nothing new"):
                log.warning("%s: sync from %s failed: %s", self.node_id, msg.responder, report.reason)
            return self._try_commit()
        if isinstance(msg, Info):
            return self._on_info(now, sender, msg)
        return []

    def _on_info(self, now: int, sender: str, info: Info) -> List[Tuple[str, bytes]]:
        if info.kind != "heartbeat":
            return []
        try:
            peer_tip = int(info.get("tip_seq", "0"))
        except ValueError:
            return []
        if sender in self.config.unl:
            # The UNL is the trust set; a trusted peer's tip claim bounds
            # how stale our own database may be for the read path.
            self.known_validated_seq = max(self.known_validated_seq, peer_tip)
        if peer_tip > self.tip.seq and (sender, peer_tip) not in self._sync_requested:
            self._sync_requested.add((sender, peer_tip))
            req = LedgerRequest(self.node_id, self.tip.seq + 1, peer_tip)
            return [(sender, netsim.pack_message(req))]
        return []

    def _on_tx_submit(self, sender: str, tx: Transaction, frame: bytes) -> List[Tuple[str, bytes]]:
        result = self.submit_transaction(tx, frame)
        if result.status != "accepted":
            return []
        # First sight: relay the bytes received, so every voter can propose it.
        return [(peer, frame) for peer in sorted(self.config.unl.trusted) if peer != sender]

    # -- client access paths ---------------------------------------------------------

    def submit_transaction(self, tx: Transaction, frame: Optional[bytes] = None) -> SubmitResult:
        """Admit ``tx`` to the open set with ``frame``, the wire frame it came
        in; a local submit has none, and one is packed once on acceptance."""
        if tx.tx_id in self.committed_txs or tx.tx_id in self.engine.open_txs:
            return SubmitResult("duplicate", tx.tx_id)
        if not lgr.verify_signature(tx):
            return SubmitResult("rejected", tx.tx_id, "bad_signature")
        committed_seq = self.store.account_seq.get(tx.account, 0)
        if tx.seq <= committed_seq:
            return SubmitResult("rejected", tx.tx_id, "stale_seq")
        self.engine.add_open_tx(tx, netsim.pack_message(tx) if frame is None else frame)
        return SubmitResult("accepted", tx.tx_id)

    def read_query(self, select: SelectQuery, as_account: AccountId) -> List[sqlvm.Row]:
        if not self.config.db_attached:
            raise DbNotAttachedError(f"node {self.node_id} has no attached database")
        applied = self.store.applied_ledger_seq
        validated = max(self.known_validated_seq, self.tip.seq)
        if validated - applied > GAP_LIMIT:
            raise NotSyncedError(applied, validated)
        return sqlvm.query_select(self.store, select.table, select.where, as_account)

    def combined_access(
        self,
        item: Union[SelectQuery, lgr.SqlOperation],
        as_account: Optional[AccountId] = None,
        signer: Optional[signing.KeyPair] = None,
        seq: Optional[int] = None,
    ):
        """Route by kind: reads go to the local store, writes to the chain."""
        if isinstance(item, SelectQuery):
            if as_account is None:
                raise ValueError("reads require as_account")
            return self.read_query(item, as_account)
        if signer is None:
            raise ValueError("writes require a signing key")
        if seq is None:
            seq = self.next_seq_hint(AccountId.from_public_key(signer.public_key))
        tx = lgr.sign_transaction(signer, seq, item)
        result = self.submit_transaction(tx)
        if not result.ok:
            raise ValueError(f"submit rejected: {result.reason}")
        return TxHandle(self, tx.tx_id)

    def next_seq_hint(self, account: AccountId) -> int:
        """Next usable per-account seq given committed state plus open txs."""
        seq = self.store.account_seq.get(account, 0)
        open_seqs = {
            tx.seq for tx in self.engine.open_txs.values() if tx.account == account
        }
        while seq + 1 in open_seqs:
            seq += 1
        return seq + 1

    def tx_status(self, tx_id: bytes) -> Tuple[str, Optional[TxOutcome]]:
        outcome = self.committed_txs.get(tx_id)
        if outcome is not None:
            return "validated", outcome
        if tx_id in self.engine.open_txs:
            return "pending", None
        return "unknown", None

    def server_info(self, now: int) -> ServerInfo:
        return ServerInfo(
            node_id=self.node_id,
            role=self.config.role,
            peer_count=len(self.last_seen),
            validated_seq=self.tip.seq,
            validated_hash=self.tip.hash(),
            applied_seq=self.store.applied_ledger_seq,
            open_tx_count=len(self.engine.open_txs),
            uptime_ms=max(0, now - self.started_at),
            voting=self.voting,
        )

    def peers(self) -> List[Tuple[str, int]]:
        return sorted(self.last_seen.items())

    @property
    def applied_seq(self) -> int:
        return self.store.applied_ledger_seq

    def committed_state_hash(self) -> bytes:
        return sqlvm.state_hash(self.store)

    # -- consensus plumbing ---------------------------------------------------------

    def _heartbeat_targets(self) -> List[str]:
        targets = set(self.config.unl.trusted) | set(self.last_seen)
        targets.discard(self.node_id)
        return sorted(targets)

    def _proposable_ids(self) -> Set[bytes]:
        """Open tx ids whose account seqs chain contiguously from committed state."""
        by_account: Dict[AccountId, Dict[int, bytes]] = {}
        for tx in self.engine.open_txs.values():
            by_account.setdefault(tx.account, {})[tx.seq] = tx.tx_id
        ok: Set[bytes] = set()
        for account, seq_map in by_account.items():
            seq = self.store.account_seq.get(account, 0) + 1
            while seq in seq_map:
                ok.add(seq_map[seq])
                seq += 1
        return ok

    def _build_ledger(self, txs: tuple, _now: int) -> Ledger:
        store = self.store.clone()
        results = [sqlvm.apply_op(store, tx) for tx in sorted(txs, key=Transaction.sort_key)]
        # close_time must depend only on agreed data: validators can accept the
        # same tx set on different ticks, and a clock-derived value would split
        # the validation vote across otherwise identical headers.
        close_time = self.tip.close_time + self.config.consensus.round_interval_ms
        ledger = lgr.build_ledger(self.tip, txs, sqlvm.state_hash(store), close_time)
        store.applied_ledger_seq = ledger.seq
        self._built = (ledger, store, results)
        return ledger

    def _emit(self, step: cns.StepOutput) -> List[Tuple[str, bytes]]:
        out: List[Tuple[str, bytes]] = []
        peers = sorted(self.config.unl.trusted)
        for frame in step.flood_frames:
            out.extend((p, frame) for p in peers)
        for proposal in step.proposals:
            frame = netsim.pack_message(proposal)
            out.extend((p, frame) for p in peers)
        for validation in step.validations:
            frame = netsim.pack_message(validation)
            out.extend((p, frame) for p in peers)
        return out

    def _note_quorum(self, seq: int) -> None:
        if seq > self.known_validated_seq and self.engine.quorum_hash(seq) is not None:
            self.known_validated_seq = seq

    def _try_commit(self) -> List[Tuple[str, bytes]]:
        """Commit the building seq once one header hash has a validation quorum."""
        seq = self.engine.building_seq
        if seq != self.tip.seq + 1:
            return []
        quorum = self.engine.quorum_hash(seq)
        if quorum is None:
            return []
        accepted = self.engine.accepted_ledger
        if accepted is not None and accepted.header.hash() == quorum:
            self._commit(accepted)
            return []
        # The network validated a ledger we did not build; fetch it. Ask every
        # trusted peer (responses are idempotent and some may be dead).
        if seq in self._fetch_requested:
            return []
        self._fetch_requested.add(seq)
        req = LedgerRequest(self.node_id, seq, seq)
        frame = netsim.pack_message(req)
        return [(peer, frame) for peer in sorted(self.config.unl.trusted)]

    def _commit(self, ledger: Ledger) -> None:
        """Commit ``ledger``, which this node built: adopt the store it was built on."""
        built, self._built = self._built, None
        if built is None or built[0] is not ledger:
            raise RuntimeError(f"{self.node_id}: ledger {ledger.seq} is not the one it built")
        _, self.store, results = built
        self._index_outcomes(ledger, results)
        self.tip = ledger.header
        self.chain_tail[ledger.seq] = ledger
        self.known_validated_seq = max(self.known_validated_seq, ledger.seq)
        self.commit_times[ledger.seq] = self._now
        if self.engine.accepted_round is not None:
            self.commit_rounds[ledger.seq] = self.engine.accepted_round
        self._persist_ledger(ledger)
        self.engine.advance(ledger)
        self._drop_settled_open_txs()
        self._fetch_requested.discard(ledger.seq)
        self._maybe_checkpoint()

    # -- persistence ---------------------------------------------------------

    def _persist_ledger(self, ledger: Ledger) -> None:
        if self.data_dir is None:
            return
        lgr.write_block_file(self.data_dir, ledger)
        lgr.append_manifest(self.data_dir, ledger.seq, ledger.header.hash())

    def _maybe_checkpoint(self) -> None:
        if self.data_dir is None or self.config.role.kind != "partial":
            return
        if self.store.applied_ledger_seq % CHECKPOINT_EVERY == 0:
            self.checkpoint()

    def checkpoint(self) -> sqlvm.Checkpoint:
        cp = sqlvm.make_checkpoint(self.store)
        if self.data_dir is not None:
            sqlvm.write_checkpoint_file(self.data_dir, cp)
        return cp

    def prune(self) -> PrunedRange:
        """Drop old block files; allowed only with a checkpoint at the horizon."""
        if self.config.role.kind != "partial":
            raise ValueError("prune applies to partial-record nodes only")
        if self.data_dir is None:
            raise ValueError("prune requires a data_dir")
        horizon = self.tip.seq - self.config.role.retain_last
        if horizon < 1:
            return PrunedRange(0, 0, 0)
        cps = sorted(
            int(p.name[len("ckpt_"):-len(".snap")])
            for p in self.data_dir.glob("ckpt_*.snap")
        )
        usable = [c for c in cps if c >= horizon]
        if not usable:
            raise ValueError(f"no checkpoint at or above prune horizon {horizon}")
        anchor_cp = usable[0]
        removed_from, removed_to = 0, 0
        for seq in range(1, horizon + 1):
            path = self.data_dir / lgr.BLOCK_FILE_FMT.format(seq=seq)
            if path.exists():
                path.unlink()
                removed_from = removed_from or seq
                removed_to = seq
        for seq in cps:
            if seq < anchor_cp:
                (self.data_dir / sqlvm.CHECKPOINT_FILE_FMT.format(seq=seq)).unlink()
        for seq in list(self.chain_tail):
            if 1 <= seq <= horizon:
                del self.chain_tail[seq]
        return PrunedRange(removed_from, removed_to, anchor_cp)

    def _load_from_disk(self) -> None:
        """Rebuild state from data_dir: latest checkpoint (or genesis) plus the blocks above it."""
        assert self.data_dir is not None
        stored = sqlvm.load_data_dir(self.data_dir, check_signatures=False, check_state=False)
        if not stored.check:
            raise ValueError(f"stored chain is corrupt: {stored.check}")
        self.committed_txs = {}
        for ledger, results in stored.replayed:
            self._index_outcomes(ledger, results)
        self.chain_tail = dict(stored.ledgers)
        self._adopt(stored.store, stored.tip)
        self.known_validated_seq = self.tip.seq

    def _adopt(self, store: sqlvm.TableStore, tip: lgr.LedgerHeader) -> None:
        """Take over a verified ``store`` at ``tip`` that this node did not build."""
        self.store = store
        self.tip = tip
        self._built = None
        self.engine.reset_to_seq(tip.seq + 1)
        self._drop_settled_open_txs()

    def _drop_settled_open_txs(self) -> None:
        """Drop every open tx the committed chain has settled; runs after each
        commit, sync and restart.

        A tx is settled once its id is committed, applied or rejected (a
        reject does not consume its seq), or once its account's committed seq
        reaches its seq (another tx took that seq, and it can never apply).
        """
        seqs = self.store.account_seq
        self.engine.drop_open_txs([
            tx_id for tx_id, tx in self.engine.open_txs.items()
            if tx_id in self.committed_txs or tx.seq <= seqs.get(tx.account, 0)
        ])

    def _index_outcomes(self, ledger: Ledger, results: list) -> None:
        for tx, result in zip(ledger.txs, results):
            self.committed_txs[tx.tx_id] = TxOutcome(
                ledger.seq, result.ok, None if result.ok else result.reason
            )

    # -- serving and consuming sync -------------------------------------------------

    def _serve_ledgers(self, req: LedgerRequest) -> Optional[LedgerData]:
        from_seq = max(req.from_seq, 0)
        to_seq = min(req.to_seq, self.tip.seq)
        have = self.chain_tail
        if all(seq in have for seq in range(from_seq, to_seq + 1)):
            return self._ledger_data([have[seq] for seq in range(from_seq, to_seq + 1)])
        if not req.allow_checkpoint or self.data_dir is None:
            return None
        cp_path = sqlvm.latest_checkpoint_path(self.data_dir)
        if cp_path is None:
            return None
        cp = sqlvm.read_checkpoint_file(cp_path)
        manifest = lgr.read_manifest(self.data_dir)
        anchor = manifest.get(cp.ledger_seq)
        if anchor is None:
            return None
        # Serve the checkpoint block itself too when we still hold it; the
        # first suffix entry then doubles as the receiver's tip header even
        # when the checkpoint sits at the tip.
        served = [have[seq] for seq in range(cp.ledger_seq, self.tip.seq + 1) if seq in have]
        return self._ledger_data(
            served, checkpoint=cp.snapshot, checkpoint_seq=cp.ledger_seq, anchor_hash=anchor
        )

    def _ledger_data(self, served: List[Ledger], **checkpoint) -> LedgerData:
        """Advertise the last header served, or our tip when serving none.

        A capped request is answered up to its cap even after we moved past
        it, so the advertised tip must be one the reply actually reaches.
        """
        tip = served[-1].header if served else self.tip
        blobs = tuple(lgr.serialize_ledger(ledger) for ledger in served)
        return LedgerData(
            self.node_id, tip.seq, tip.hash(), tip.state_hash, blobs, **checkpoint
        )

    def apply_sync(self, data: LedgerData) -> SyncReport:
        """Verify and adopt a peer's chain data; flips voting on state match.

        Any verification failure leaves local state untouched.
        """
        was_voting = self.voting
        if data.tip_seq < self.tip.seq:
            return SyncReport(False, reason="peer behind us")
        if data.tip_seq == self.tip.seq:
            if data.tip_header_hash != self.tip.hash():
                return SyncReport(False, reason="tip hash mismatch at equal seq")
            if data.tip_state_hash != sqlvm.state_hash(self.store):
                return SyncReport(False, reason="state hash mismatch at equal seq")
            self.voting = True
            return SyncReport(
                True, self.tip.seq, self.tip.seq, became_voting=not was_voting
            )

        try:
            ledgers = [lgr.deserialize_ledger(blob) for blob in data.ledgers]
        except CodecError as exc:
            return SyncReport(False, reason=f"BrokenAt(parse: {exc})")

        used_checkpoint = bool(data.checkpoint)
        tip_header: Optional[lgr.LedgerHeader] = None
        if used_checkpoint:
            try:
                scratch = sqlvm.load_snapshot(data.checkpoint_seq, data.checkpoint)
            except sqlvm.CorruptCheckpointError as exc:
                return SyncReport(False, reason=f"BrokenAt(checkpoint: {exc})")
            snapshot_hash = sqlvm.state_hash(scratch)
            new_tail: Dict[int, Ledger] = {}
            anchor_hash = data.anchor_hash
            if ledgers and ledgers[0].seq == data.checkpoint_seq:
                # The checkpoint ledger itself: already reflected in the
                # snapshot, so verify identity and state and keep its header.
                head = ledgers.pop(0)
                if head.header.hash() != data.anchor_hash:
                    return SyncReport(False, reason=f"BrokenAt({head.seq}, parent_mismatch)")
                if head.header.state_hash != snapshot_hash:
                    return SyncReport(False, reason=f"BrokenAt({head.seq}, state_mismatch)")
                new_tail[head.seq] = head
                tip_header = head.header
        else:
            if not ledgers or ledgers[0].seq > self.tip.seq + 1:
                return SyncReport(False, reason="BrokenAt(order_gap)")
            ledgers = [l for l in ledgers if l.seq > self.tip.seq]
            if not ledgers:
                return SyncReport(False, reason="peer sent nothing new")
            scratch = self.store.clone()
            anchor_hash = self.tip.hash()
            new_tail = dict(self.chain_tail)

        check, results = sqlvm.verify_and_apply(
            scratch, anchor_hash, ledgers, check_signatures=True, check_state=True
        )
        if not check:
            return SyncReport(False, reason=str(check))
        if ledgers:
            tip_header = ledgers[-1].header
        if tip_header is None:
            return SyncReport(False, reason="peer sent nothing new")
        if tip_header.seq != data.tip_seq or tip_header.hash() != data.tip_header_hash:
            return SyncReport(False, reason="served chain does not reach advertised tip")

        # Verified: adopt.
        from_seq = ledgers[0].seq if ledgers else tip_header.seq
        self.chain_tail = new_tail
        if used_checkpoint:
            self.committed_txs = {}
            if self.data_dir is not None:
                cp = sqlvm.Checkpoint(data.checkpoint_seq, data.checkpoint, snapshot_hash)
                sqlvm.write_checkpoint_file(self.data_dir, cp)
                lgr.append_manifest(self.data_dir, data.checkpoint_seq, data.anchor_hash)
        for ledger, ledger_results in zip(ledgers, results):
            self.chain_tail[ledger.seq] = ledger
            self._index_outcomes(ledger, ledger_results)
            self._persist_ledger(ledger)
        self._adopt(scratch, tip_header)
        self.known_validated_seq = max(self.known_validated_seq, tip_header.seq)
        self.voting = True
        return SyncReport(
            True,
            from_seq,
            tip_header.seq,
            used_checkpoint=used_checkpoint,
            became_voting=not was_voting,
        )


# ---------------------------------------------------------------------------
# Synchronous helpers used by tests, the CLI, and scenarios
# ---------------------------------------------------------------------------


def sync_from_peer(net: netsim.SimNetwork, node_id: str, peer_id: str) -> SyncReport:
    """One explicit request/response sync, executed synchronously."""
    if peer_id in net.killed:
        return SyncReport(False, reason="peer unreachable")
    node: Node = net.node(node_id)
    peer: Node = net.node(peer_id)
    req = LedgerRequest(node_id, node.tip.seq + 1, _MAX_SEQ)
    reply = peer._serve_ledgers(req)
    if reply is None:
        return SyncReport(False, reason="peer cannot serve the requested range")
    return node.apply_sync(reply)


def submit_via(net: netsim.SimNetwork, node_id: str, tx: Transaction) -> SubmitResult:
    """In-process submit endpoint: deliver a tx to a node and flood it."""
    if node_id in net.killed:
        return SubmitResult("rejected", tx.tx_id, "unreachable")
    node: Node = net.node(node_id)
    result = node.submit_transaction(tx)
    if result.status == "accepted":
        frame = node.engine.open_frames[tx.tx_id]
        net.post(node_id, [(p, frame) for p in sorted(node.config.unl.trusted)])
    return result
