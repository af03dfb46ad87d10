"""Deterministic in-process network fabric for multi-node scenarios.

A single event heap drives everything: message deliveries and node timer
ticks, ordered by (sim time, insertion seq). One seeded RNG supplies latency
jitter and drop decisions in dispatch order, so a fixed seed plus a fixed
scenario script reproduces the exact event trace, byte for byte. Nodes are
plain objects registered with the network; they never touch the clock or
sockets, they only return outbound (recipient, bytes) pairs.

The wire format is real even though the transport is simulated: every payload
is a length-prefixed, tagged, canonical byte string, so a socket transport
could replace this module without touching node logic.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from .codec import CodecError, Reader, Writer, check_sorted_key, read_sorted_ids, strictly_ascending
from .consensus import Proposal, Validation
from .ledger import HASH_LEN, Ledger, Transaction

MSG_TX_SUBMIT = 0
MSG_PROPOSAL = 1
MSG_VALIDATION = 2
MSG_LEDGER_REQUEST = 3
MSG_LEDGER_DATA = 4
MSG_INFO = 5
MSG_TX_REQUEST = 6

MAX_TX_REQUEST_IDS = 1024  # ids one TxRequest may carry; decoding rejects more

_TAG_NAMES = {
    MSG_TX_SUBMIT: "tx_submit",
    MSG_PROPOSAL: "proposal",
    MSG_VALIDATION: "validation",
    MSG_LEDGER_REQUEST: "ledger_request",
    MSG_LEDGER_DATA: "ledger_data",
    MSG_INFO: "info",
    MSG_TX_REQUEST: "tx_request",
}


def encode_wire(tag: int, payload: bytes) -> bytes:
    """4-byte big-endian length of (tag + payload), tag byte, payload."""
    if tag not in _TAG_NAMES:
        raise ValueError(f"unknown message tag {tag}")
    w = Writer()
    w.u32(1 + len(payload))
    w.u8(tag)
    w.raw(payload)
    return w.getvalue()


def decode_wire(data: bytes) -> Tuple[int, bytes]:
    r = Reader(data)
    length = r.u32()
    if length < 1 or length != r.remaining():
        raise CodecError(f"wire length {length} does not match frame")
    tag = r.u8()
    if tag not in _TAG_NAMES:
        raise CodecError(f"unknown message tag {tag}")
    return tag, r.raw(length - 1)


# ---------------------------------------------------------------------------
# Sync and status payloads (proposal/validation/tx live in their own modules)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LedgerRequest:
    """Ask a peer for ledgers from_seq..to_seq (inclusive)."""

    requester: str
    from_seq: int
    to_seq: int
    allow_checkpoint: bool = True

    def encode_into(self, w: Writer) -> None:
        w.str_(self.requester)
        w.u64(self.from_seq)
        w.u64(self.to_seq)
        w.u8(1 if self.allow_checkpoint else 0)

    @classmethod
    def decode_from(cls, r: Reader) -> "LedgerRequest":
        requester = r.str_()
        from_seq = r.u64()
        to_seq = r.u64()
        flag = r.u8()
        if flag > 1:
            raise CodecError("allow_checkpoint flag must be 0 or 1")
        return cls(requester, from_seq, to_seq, bool(flag))


@dataclass(frozen=True)
class LedgerData:
    """A peer's answer: its tip, optionally a checkpoint, and block bytes.

    ``anchor_hash`` is the header hash of the ledger the checkpoint was taken
    at, letting the receiver link the first suffix block without holding the
    pruned prefix.
    """

    responder: str
    tip_seq: int
    tip_header_hash: bytes
    tip_state_hash: bytes
    ledgers: tuple  # serialized ledger byte strings, ascending seq
    checkpoint: bytes = b""  # empty = no checkpoint included
    checkpoint_seq: int = 0
    anchor_hash: bytes = b"\x00" * HASH_LEN

    def __post_init__(self) -> None:
        if len(self.tip_header_hash) != HASH_LEN or len(self.anchor_hash) != HASH_LEN:
            raise ValueError("hash fields must be 32 bytes")
        if len(self.tip_state_hash) != HASH_LEN:
            raise ValueError("hash fields must be 32 bytes")

    def encode_into(self, w: Writer) -> None:
        w.str_(self.responder)
        w.u64(self.tip_seq)
        w.raw(self.tip_header_hash)
        w.raw(self.tip_state_hash)
        w.u32(len(self.ledgers))
        for blob in self.ledgers:
            w.bytes_(blob)
        w.bytes_(self.checkpoint)
        w.u64(self.checkpoint_seq)
        w.raw(self.anchor_hash)

    @classmethod
    def decode_from(cls, r: Reader) -> "LedgerData":
        responder = r.str_()
        tip_seq = r.u64()
        tip_header_hash = r.raw(HASH_LEN)
        tip_state_hash = r.raw(HASH_LEN)
        count = r.u32()
        ledgers = tuple(r.bytes_() for _ in range(count))
        checkpoint = r.bytes_()
        checkpoint_seq = r.u64()
        anchor_hash = r.raw(HASH_LEN)
        return cls(
            responder,
            tip_seq,
            tip_header_hash,
            tip_state_hash,
            ledgers,
            checkpoint,
            checkpoint_seq,
            anchor_hash,
        )


@dataclass(frozen=True)
class Info:
    """Small string-map message for acks and status queries."""

    kind: str
    fields: tuple  # sorted ((key, value), ...) pairs

    @classmethod
    def of(cls, kind: str, **fields: str) -> "Info":
        return cls(kind, tuple(sorted(fields.items())))

    def get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        for k, v in self.fields:
            if k == key:
                return v
        return default

    def encode_into(self, w: Writer) -> None:
        w.str_(self.kind)
        w.u32(len(self.fields))
        for key, value in self.fields:
            w.str_(key)
            w.str_(value)

    @classmethod
    def decode_from(cls, r: Reader) -> "Info":
        kind = r.str_()
        count = r.u32()
        fields = []
        prev = None
        for _ in range(count):
            key = r.str_()
            prev = check_sorted_key(prev, key.encode("utf-8"), "info fields")
            fields.append((key, r.str_()))
        return cls(kind, tuple(fields))


@dataclass(frozen=True)
class TxRequest:
    """Ask a peer for the frames of open txs by id; it sends back a plain tx
    frame for each id it holds open and stays silent on the rest."""

    requester: str
    tx_ids: tuple  # sorted, deduplicated 32-byte ids, at most MAX_TX_REQUEST_IDS

    def __post_init__(self) -> None:
        ids = tuple(self.tx_ids)
        if not strictly_ascending(ids):
            raise ValueError("requested tx_ids must be sorted and deduplicated")
        if len(ids) > MAX_TX_REQUEST_IDS:
            raise ValueError(f"a tx request carries at most {MAX_TX_REQUEST_IDS} ids")
        if any(len(tx_id) != HASH_LEN for tx_id in ids):
            raise ValueError("tx id must be 32 bytes")
        object.__setattr__(self, "tx_ids", ids)

    def encode_into(self, w: Writer) -> None:
        w.str_(self.requester)
        w.u32(len(self.tx_ids))
        for tx_id in self.tx_ids:
            w.raw(tx_id)

    @classmethod
    def decode_from(cls, r: Reader) -> "TxRequest":
        requester = r.str_()
        count = r.u32()
        if count > MAX_TX_REQUEST_IDS:
            raise CodecError(f"tx request of {count} ids exceeds {MAX_TX_REQUEST_IDS}")
        return cls(requester, read_sorted_ids(r, count, HASH_LEN, "requested tx_ids"))


def _encode_payload(msg) -> bytes:
    w = Writer()
    msg.encode_into(w)
    return w.getvalue()


def pack_message(msg) -> bytes:
    """Wrap any protocol message object into a wire frame."""
    if isinstance(msg, Transaction):
        return encode_wire(MSG_TX_SUBMIT, msg.encoded)
    if isinstance(msg, Proposal):
        return encode_wire(MSG_PROPOSAL, _encode_payload(msg))
    if isinstance(msg, Validation):
        return encode_wire(MSG_VALIDATION, _encode_payload(msg))
    if isinstance(msg, LedgerRequest):
        return encode_wire(MSG_LEDGER_REQUEST, _encode_payload(msg))
    if isinstance(msg, LedgerData):
        return encode_wire(MSG_LEDGER_DATA, _encode_payload(msg))
    if isinstance(msg, Info):
        return encode_wire(MSG_INFO, _encode_payload(msg))
    if isinstance(msg, TxRequest):
        return encode_wire(MSG_TX_REQUEST, _encode_payload(msg))
    raise TypeError(f"not a wire message: {type(msg).__name__}")


_DECODERS = {
    MSG_TX_SUBMIT: Transaction.decode_from,
    MSG_PROPOSAL: Proposal.decode_from,
    MSG_VALIDATION: Validation.decode_from,
    MSG_LEDGER_REQUEST: LedgerRequest.decode_from,
    MSG_LEDGER_DATA: LedgerData.decode_from,
    MSG_INFO: Info.decode_from,
    MSG_TX_REQUEST: TxRequest.decode_from,
}


def unpack_message(data: bytes):
    """Parse a wire frame back into its message object."""
    tag, payload = decode_wire(data)
    r = Reader(payload)
    msg = _DECODERS[tag](r)
    r.finish()
    return msg


# ---------------------------------------------------------------------------
# The simulator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Envelope:
    frm: str
    to: str
    payload: bytes
    send_time: int
    deliver_at: int

    def __post_init__(self) -> None:
        if self.deliver_at < self.send_time:
            raise ValueError("deliver_at must be >= send_time")


@dataclass(frozen=True)
class RunResult:
    satisfied: bool
    time: int

    def __bool__(self) -> bool:
        return self.satisfied


class SimNetwork:
    """Single-threaded fabric: owns the clock, the RNG, and all dispatch.

    Registered nodes must expose:
      node_id: str
      timer_interval_ms: int or None (None = no timer)
      on_message(now, sender, data) -> iterable of (to, bytes)
      on_timer(now) -> iterable of (to, bytes)
      on_revive(now) -> iterable of (to, bytes)    (optional)
    """

    def __init__(
        self,
        seed: int,
        base_latency_ms: int = 10,
        jitter_ms: int = 5,
        drop_rate: float = 0.0,
    ) -> None:
        if not 0.0 <= drop_rate <= 1.0:
            raise ValueError("drop_rate must be within [0, 1]")
        self.seed = seed
        self.base_latency_ms = base_latency_ms
        self.jitter_ms = jitter_ms
        self.drop_rate = drop_rate
        self.rng = random.Random(seed)
        self.now = 0
        self.nodes: Dict[str, object] = {}
        self.killed: Set[str] = set()
        self._partition: Optional[Dict[str, int]] = None
        self._heap: List[tuple] = []  # (time, seq, kind, data)
        self._event_seq = 0
        self.trace: List[str] = []
        self.delivered_count = 0
        self.dropped_count = 0
        # Test hook: rewrite payload bytes in transit (corruption injection).
        self.transit_hook: Optional[Callable[[str, str, bytes], bytes]] = None

    # -- membership -----------------------------------------------------------

    def register(self, node) -> None:
        node_id = node.node_id
        if node_id in self.nodes:
            raise ValueError(f"node {node_id!r} already registered")
        self.nodes[node_id] = node
        interval = getattr(node, "timer_interval_ms", None)
        if interval:
            first = ((self.now // interval) + 1) * interval
            self._push(first, "timer", node_id)

    def node(self, node_id: str):
        try:
            return self.nodes[node_id]
        except KeyError:
            raise ValueError(f"unknown node {node_id!r}") from None

    def live_nodes(self) -> List[str]:
        return sorted(n for n in self.nodes if n not in self.killed)

    # -- faults -----------------------------------------------------------------

    def kill(self, node_id: str) -> None:
        self.node(node_id)
        self.killed.add(node_id)
        self.trace.append(f"{self.now} kill {node_id}")

    def revive(self, node_id: str) -> None:
        node = self.node(node_id)
        if node_id not in self.killed:
            return
        self.killed.discard(node_id)
        self.trace.append(f"{self.now} revive {node_id}")
        hook = getattr(node, "on_revive", None)
        if hook is not None:
            self.post(node_id, hook(self.now))

    def partition(self, groups: Iterable[Iterable[str]]) -> None:
        assignment: Dict[str, int] = {}
        for idx, group in enumerate(groups):
            for node_id in group:
                self.node(node_id)
                if node_id in assignment:
                    raise ValueError(f"node {node_id!r} in two partition groups")
                assignment[node_id] = idx
        live = {n for n in self.nodes if n not in self.killed}
        missing = live - set(assignment)
        if missing:
            raise ValueError(f"partition groups must cover live nodes: missing {sorted(missing)}")
        self._partition = assignment
        desc = "|".join(
            ",".join(sorted(n for n, g in assignment.items() if g == idx))
            for idx in sorted(set(assignment.values()))
        )
        self.trace.append(f"{self.now} partition {desc}")

    def heal(self) -> None:
        self._partition = None
        self.trace.append(f"{self.now} heal")

    def _reachable(self, frm: str, to: str) -> bool:
        if frm in self.killed or to in self.killed:
            return False
        if self._partition is None:
            return True
        ga, gb = self._partition.get(frm), self._partition.get(to)
        return ga is not None and ga == gb

    # -- sending ----------------------------------------------------------------

    def _push(self, time: int, kind: str, data) -> None:
        heapq.heappush(self._heap, (time, self._event_seq, kind, data))
        self._event_seq += 1

    def send(self, frm: str, to: str, payload: bytes) -> None:
        self.node(frm)
        self.node(to)
        # RNG draws happen unconditionally and in send order: the schedule of
        # random numbers is then a pure function of the dispatch sequence.
        jitter = self.rng.randint(0, self.jitter_ms) if self.jitter_ms else 0
        dropped = self.rng.random() < self.drop_rate if self.drop_rate else False
        if not self._reachable(frm, to) or dropped:
            self.dropped_count += 1
            return
        if self.transit_hook is not None:
            payload = self.transit_hook(frm, to, payload)
        deliver_at = self.now + self.base_latency_ms + jitter
        self._push(deliver_at, "deliver", Envelope(frm, to, payload, self.now, deliver_at))

    def post(self, frm: str, outbound: Iterable[Tuple[str, bytes]]) -> None:
        """Enqueue a node's outbound batch (used for all handler returns)."""
        for to, payload in outbound:
            self.send(frm, to, payload)

    # -- event loop ----------------------------------------------------------------

    def step(self) -> int:
        """Process the single next event; returns messages delivered (0 or 1)."""
        if not self._heap:
            return 0
        time, _, kind, data = heapq.heappop(self._heap)
        self.now = max(self.now, time)
        if kind == "timer":
            node_id = data
            node = self.nodes[node_id]
            interval = getattr(node, "timer_interval_ms", None)
            if interval:
                self._push(self.now + interval, "timer", node_id)
            if node_id not in self.killed:
                self.trace.append(f"{self.now} tick {node_id}")
                self.post(node_id, node.on_timer(self.now))
            return 0
        env: Envelope = data
        if not self._reachable(env.frm, env.to):
            self.dropped_count += 1
            return 0
        digest = hashlib.sha256(env.payload).hexdigest()[:8]
        self.trace.append(f"{self.now} deliver {env.frm}->{env.to} {digest}")
        self.delivered_count += 1
        node = self.nodes[env.to]
        self.post(env.to, node.on_message(self.now, env.frm, env.payload))
        return 1

    def run_until(
        self,
        predicate: Callable[["SimNetwork"], bool],
        max_sim_time: int,
    ) -> RunResult:
        """Step until the predicate holds or the sim clock would pass the limit."""
        while True:
            if predicate(self):
                return RunResult(True, self.now)
            if not self._heap or self._heap[0][0] > max_sim_time:
                return RunResult(False, min(max(self.now, 0), max_sim_time))
            self.step()

    def run_for(self, sim_ms: int) -> None:
        """Advance the clock by a fixed amount of simulated time."""
        deadline = self.now + sim_ms
        while self._heap and self._heap[0][0] <= deadline:
            self.step()
        self.now = max(self.now, deadline)
