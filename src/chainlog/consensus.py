"""Consensus over a unique node list (UNL).

Each node trusts a fixed peer set and votes itself alongside it, so every
fraction below is computed against ``|UNL| + 1``. Agreement forms in two
layers:

1. Establish rounds: nodes exchange proposals (transaction-id sets) and keep
   a transaction only while its support meets an escalating threshold
   schedule. When a node sees enough peers proposing exactly its own set, it
   accepts and builds the next ledger.
2. Validations: nodes broadcast the header hash they built; a ledger is fully
   validated once a quorum of distinct validators endorses one hash. Only
   fully validated ledgers are committed to the database.

The engine owns no I/O and no clock: the node runtime feeds it received
messages and calls ``tick`` at round boundaries; outbound messages are
returned to the caller.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from . import signing
from .codec import CodecError, Reader, Writer, read_sorted_ids, strictly_ascending
from .ledger import HASH_LEN, Ledger, Transaction, hash32

DEFAULT_THRESHOLDS = (0.50, 0.65, 0.70, 0.80)
DEFAULT_QUORUM = 0.80
DEFAULT_ROUND_INTERVAL_MS = 1000
DEFAULT_MAX_ROUNDS = 10

MAX_NODE_ID_LEN = 64


def min_count(fraction: float, voters: int) -> int:
    """Smallest integer count whose ratio to ``voters`` meets ``fraction``.

    The epsilon guards against float artifacts like 0.8 * 5 = 4.0000000000002
    turning an exact quorum into an unreachable one.
    """
    return max(0, math.ceil(fraction * voters - 1e-9))


@dataclass(frozen=True)
class Unl:
    """Trusted peer node ids; excludes self by convention."""

    trusted: tuple

    def __post_init__(self) -> None:
        # An empty UNL is legal: a solo node is its own 1/1 quorum.
        if len(set(self.trusted)) != len(self.trusted):
            raise ValueError("UNL contains duplicates")
        object.__setattr__(self, "trusted", tuple(self.trusted))

    def __contains__(self, node_id: str) -> bool:
        return node_id in self.trusted

    def __len__(self) -> int:
        return len(self.trusted)

    @property
    def voters(self) -> int:
        # Self votes too.
        return len(self.trusted) + 1


@dataclass(frozen=True)
class ConsensusConfig:
    round_thresholds: tuple = DEFAULT_THRESHOLDS
    validation_quorum: float = DEFAULT_QUORUM
    round_interval_ms: int = DEFAULT_ROUND_INTERVAL_MS
    max_rounds: int = DEFAULT_MAX_ROUNDS

    def __post_init__(self) -> None:
        ts = tuple(self.round_thresholds)
        if not ts:
            raise ValueError("threshold schedule must be nonempty")
        if any(not 0.0 < t <= 1.0 for t in ts):
            raise ValueError("thresholds must lie in (0, 1]")
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise ValueError("thresholds must be nondecreasing")
        if self.validation_quorum < ts[-1]:
            raise ValueError("validation quorum must be >= final threshold")
        if self.round_interval_ms <= 0 or self.max_rounds < 1:
            raise ValueError("round interval and max_rounds must be positive")
        object.__setattr__(self, "round_thresholds", ts)


def threshold(cfg: ConsensusConfig, round_: int) -> float:
    if round_ < 0:
        raise ValueError("round must be >= 0")
    ts = cfg.round_thresholds
    return ts[min(round_, len(ts) - 1)]


class ConsensusPhase(enum.Enum):
    OPEN = "open"
    ESTABLISH = "establish"
    ACCEPTED = "accepted"


# ---------------------------------------------------------------------------
# Signed consensus messages
# ---------------------------------------------------------------------------


def validator_keypair(node_id: str, scheme: int = signing.SCHEME_HASH_TEST) -> signing.KeyPair:
    """Deterministic validator keys: node identity is the trust anchor here,
    so keys derive from the node id instead of living in config files."""
    return signing.generate_keypair(scheme, hash32(b"validator:" + node_id.encode("utf-8")))


def _check_node_id(node_id: str) -> str:
    if not node_id or len(node_id) > MAX_NODE_ID_LEN:
        raise ValueError(f"bad node id: {node_id!r}")
    return node_id


@dataclass(frozen=True)
class Proposal:
    """One node's candidate transaction-id set for the next ledger.

    ``signing_bytes()`` is computed once and kept on the (immutable) object.
    A decoded proposal keeps the prefix it read, which strict decoding makes
    the canonical encoding of its unsigned fields, so checking its signature
    encodes nothing; ``sign_proposal`` hands the bytes it signed to the
    proposal it returns, for the wire encoding.
    """

    node_id: str
    round: int
    ledger_seq: int
    tx_ids: tuple  # sorted, deduplicated 32-byte ids
    public_key: bytes = b""
    signature: bytes = b""
    _signed: Optional[bytes] = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_node_id(self.node_id)
        ids = tuple(self.tx_ids)
        if not strictly_ascending(ids):
            raise ValueError("proposal tx_ids must be sorted and deduplicated")
        if any(len(tx_id) != HASH_LEN for tx_id in ids):
            raise ValueError("tx id must be 32 bytes")
        object.__setattr__(self, "tx_ids", ids)

    @classmethod
    def _assemble(cls, node_id, round_, ledger_seq, tx_ids, public_key, signature, signed) -> "Proposal":
        """A proposal from fields already checked and the bytes they encode to."""
        p = object.__new__(cls)
        for name, value in (
            ("node_id", node_id), ("round", round_), ("ledger_seq", ledger_seq),
            ("tx_ids", tx_ids), ("public_key", public_key), ("signature", signature),
            ("_signed", signed),
        ):
            object.__setattr__(p, name, value)
        return p

    def signing_bytes(self) -> bytes:
        if self._signed is None:
            w = Writer()
            w.str_(self.node_id)
            w.u32(self.round)
            w.u64(self.ledger_seq)
            w.u32(len(self.tx_ids))
            w.raw(b"".join(self.tx_ids))
            object.__setattr__(self, "_signed", w.getvalue())
        return self._signed

    def encode_into(self, w: Writer) -> None:
        w.raw(self.signing_bytes())
        w.bytes_(self.public_key)
        w.bytes_(self.signature)

    @classmethod
    def decode_from(cls, r: Reader) -> "Proposal":
        start = r.tell()
        node_id = r.str_()
        try:
            _check_node_id(node_id)
        except ValueError as exc:
            raise CodecError(str(exc)) from None
        round_ = r.u32()
        ledger_seq = r.u64()
        tx_ids = read_sorted_ids(r, r.u32(), HASH_LEN, "proposal tx_ids")
        signed = r.since(start)
        return cls._assemble(node_id, round_, ledger_seq, tx_ids, r.bytes_(), r.bytes_(), signed)


@dataclass(frozen=True)
class Validation:
    """A node's endorsement of one ledger header hash at one seq."""

    node_id: str
    ledger_seq: int
    ledger_header_hash: bytes
    public_key: bytes = b""
    signature: bytes = b""

    def __post_init__(self) -> None:
        _check_node_id(self.node_id)
        if len(self.ledger_header_hash) != HASH_LEN:
            raise ValueError("ledger header hash must be 32 bytes")

    def signing_bytes(self) -> bytes:
        w = Writer()
        w.str_(self.node_id)
        w.u64(self.ledger_seq)
        w.raw(self.ledger_header_hash)
        return w.getvalue()

    def encode_into(self, w: Writer) -> None:
        w.raw(self.signing_bytes())
        w.bytes_(self.public_key)
        w.bytes_(self.signature)

    @classmethod
    def decode_from(cls, r: Reader) -> "Validation":
        node_id = r.str_()
        ledger_seq = r.u64()
        digest = r.raw(HASH_LEN)
        public_key = r.bytes_()
        signature = r.bytes_()
        try:
            return cls(node_id, ledger_seq, digest, public_key, signature)
        except ValueError as exc:
            raise CodecError(str(exc)) from None


def sign_proposal(keypair: signing.KeyPair, p: Proposal) -> Proposal:
    signed = p.signing_bytes()  # covers no key or signature, so any p will do
    return Proposal._assemble(
        p.node_id, p.round, p.ledger_seq, p.tx_ids, keypair.public_key, keypair.sign(signed), signed
    )


def sign_validation(keypair: signing.KeyPair, v: Validation) -> Validation:
    unsigned = Validation(v.node_id, v.ledger_seq, v.ledger_header_hash)
    sig = keypair.sign(unsigned.signing_bytes())
    return Validation(
        v.node_id, v.ledger_seq, v.ledger_header_hash, keypair.public_key, sig
    )


def verify_consensus_message(msg, expected_key: bytes) -> bool:
    """Signature must verify and the key must be the sender's derived key."""
    if msg.public_key != expected_key:
        return False
    try:
        return signing.verify(msg.public_key, msg.signing_bytes(), msg.signature)
    except signing.SigningError:
        return False


# ---------------------------------------------------------------------------
# Pure voting rules
# ---------------------------------------------------------------------------


def update_candidate(
    own: Set[bytes],
    peer_proposals: Dict[str, Proposal],
    round_: int,
    cfg: ConsensusConfig,
    unl: Unl,
) -> tuple:
    """Keep each tx iff its supporters meet the round's threshold. Sorted."""
    needed = min_count(threshold(cfg, round_), unl.voters)
    # Proposal ids are deduplicated, so one count per voter per id.
    support = Counter(own)
    for p in peer_proposals.values():
        support.update(p.tx_ids)
    return tuple(sorted(tx_id for tx_id, n in support.items() if n >= needed))


def check_consensus(
    own: Set[bytes],
    peer_proposals: Dict[str, Proposal],
    cfg: ConsensusConfig,
    unl: Unl,
) -> bool:
    """True iff enough voters (self included) propose exactly ``own``."""
    own_sorted = tuple(sorted(own))
    agreeing = 1 + sum(
        1 for p in peer_proposals.values() if p.tx_ids == own_sorted
    )
    return agreeing >= min_count(cfg.validation_quorum, unl.voters)


class ValidationTracker:
    """Validation bookkeeping with equivocation discard.

    A node that signs two different header hashes for one seq is counted for
    neither; honest duplicates are idempotent.
    """

    def __init__(self) -> None:
        # seq -> node_id -> set of endorsed header hashes
        self._seen: Dict[int, Dict[str, Set[bytes]]] = {}

    def record(self, v: Validation) -> None:
        self._seen.setdefault(v.ledger_seq, {}).setdefault(v.node_id, set()).add(
            v.ledger_header_hash
        )

    def count(self, seq: int, header_hash: bytes) -> int:
        by_node = self._seen.get(seq, {})
        return sum(1 for hashes in by_node.values() if hashes == {header_hash})

    def equivocators(self, seq: int) -> List[str]:
        return sorted(
            node for node, hashes in self._seen.get(seq, {}).items() if len(hashes) > 1
        )

    def quorum_hash(self, seq: int, unl: Unl, cfg: ConsensusConfig) -> Optional[bytes]:
        """The unique header hash with a validation quorum at ``seq``, if any."""
        needed = min_count(cfg.validation_quorum, unl.voters)
        by_node = self._seen.get(seq, {})
        tally: Dict[bytes, int] = {}
        for hashes in by_node.values():
            if len(hashes) == 1:
                (h,) = hashes
                tally[h] = tally.get(h, 0) + 1
        winners = [h for h, n in tally.items() if n >= needed]
        if not winners:
            return None
        # Two winners would need 2*quorum <= voters; impossible at 0.8.
        return sorted(winners)[0]

    def prune_below(self, seq: int) -> None:
        for old in [s for s in self._seen if s < seq]:
            del self._seen[old]


# ---------------------------------------------------------------------------
# The per-node consensus state machine
# ---------------------------------------------------------------------------


@dataclass
class StepOutput:
    proposals: List[Proposal] = field(default_factory=list)
    validations: List[Validation] = field(default_factory=list)
    accepted: Optional[Ledger] = None


class ConsensusEngine:
    """Round state machine for one node.

    ``build_fn(txs, close_time)`` is supplied by the node runtime and must
    deterministically construct the next ledger from the agreed transactions
    (it owns the database and therefore the state hash). It may return None
    when some agreed transaction bytes have not arrived yet; the engine then
    retries on the next tick while the node fetches the missing bytes by id
    from the peers whose proposals name them.
    """

    def __init__(
        self,
        node_id: str,
        unl: Unl,
        cfg: ConsensusConfig,
        keypair: signing.KeyPair,
        build_fn: Callable[[Tuple[Transaction, ...], int], Optional[Ledger]],
    ) -> None:
        if node_id in unl:
            raise ValueError("UNL must not contain the node itself")
        self.node_id = node_id
        self.unl = unl
        self.cfg = cfg
        self.keypair = keypair
        self.build_fn = build_fn
        self.building_seq = 1
        self.phase = ConsensusPhase.OPEN
        self.round = 0
        self.candidate: tuple = ()
        self.open_txs: Dict[bytes, Transaction] = {}
        # The wire frame of each open tx, by tx id and as bytes: the node
        # relays and serves these and drops byte-identical copies unread.
        self.open_frames: Dict[bytes, bytes] = {}
        self.known_frames: Set[bytes] = set()
        # seq -> node_id -> latest Proposal (highest round wins)
        self.peer_proposals: Dict[int, Dict[str, Proposal]] = {}
        self.validations = ValidationTracker()
        self.accepted_ledger: Optional[Ledger] = None
        self.accepted_round: Optional[int] = None  # round the last accept closed at
        self._expected_keys = {peer: validator_keypair(peer).public_key for peer in unl.trusted}

    # -- inbound ------------------------------------------------------------

    def add_open_tx(self, tx: Transaction, frame: bytes) -> bool:
        """Queue ``tx`` with ``frame``, the wire frame that carries it."""
        if tx.tx_id in self.open_txs:
            return False
        self.open_txs[tx.tx_id] = tx
        self.open_frames[tx.tx_id] = frame
        self.known_frames.add(frame)
        return True

    def drop_open_txs(self, tx_ids: Iterable[bytes]) -> None:
        """The one place open txs leave the queue; each takes its frame along."""
        for tx_id in tx_ids:
            if self.open_txs.pop(tx_id, None) is not None:
                self.known_frames.discard(self.open_frames.pop(tx_id))

    def receive_proposal(self, p: Proposal) -> bool:
        expected = self._expected_keys.get(p.node_id)
        if expected is None or not verify_consensus_message(p, expected):
            return False
        if p.ledger_seq < self.building_seq:
            return False
        per_seq = self.peer_proposals.setdefault(p.ledger_seq, {})
        latest = per_seq.get(p.node_id)
        if latest is None or p.round >= latest.round:
            per_seq[p.node_id] = p
        return True

    def receive_validation(self, v: Validation) -> bool:
        if v.node_id == self.node_id:
            expected = self.keypair.public_key
        else:
            expected = self._expected_keys.get(v.node_id)
        if expected is None or not verify_consensus_message(v, expected):
            return False
        self.validations.record(v)
        return True

    # -- outbound helpers ----------------------------------------------------

    def _make_proposal(self) -> Proposal:
        return sign_proposal(
            self.keypair,
            Proposal(self.node_id, self.round, self.building_seq, self.candidate),
        )

    def _candidate_txs(self) -> Optional[tuple]:
        txs = []
        for tx_id in self.candidate:
            tx = self.open_txs.get(tx_id)
            if tx is None:
                return None
            txs.append(tx)
        return tuple(txs)

    # -- the round machine ----------------------------------------------------

    def tick(self, now: int, proposable: Optional[Set[bytes]] = None) -> StepOutput:
        """Advance one round boundary; returns everything to broadcast.

        ``proposable`` optionally restricts which open tx ids may seed a new
        proposal (the node filters out ids that cannot apply yet, e.g. gapped
        account sequences). Already-running rounds are not re-filtered.
        """
        out = StepOutput()
        peers = self.peer_proposals.get(self.building_seq, {})

        if self.phase is ConsensusPhase.OPEN:
            ids = set(self.open_txs)
            if proposable is not None:
                ids &= proposable
            if not ids and not peers:
                return out  # nothing to agree on; stay quiescent
            self.round = 0
            self.candidate = tuple(sorted(ids))
            self.phase = ConsensusPhase.ESTABLISH
            out.proposals.append(self._make_proposal())
            return out

        if self.phase is ConsensusPhase.ESTABLISH:
            new_candidate = update_candidate(
                set(self.candidate), peers, self.round, self.cfg, self.unl
            )
            if check_consensus(set(new_candidate), peers, self.cfg, self.unl):
                self.candidate = new_candidate
                txs = self._candidate_txs()
                if txs is None:
                    # Agreed ids whose bytes we lack; re-propose and wait for
                    # the node to fetch them from the peers proposing them,
                    # instead of accepting a ledger we cannot build.
                    out.proposals.append(self._make_proposal())
                    return out
                ledger = self.build_fn(txs, now)
                if ledger is None:
                    out.proposals.append(self._make_proposal())
                    return out
                self.phase = ConsensusPhase.ACCEPTED
                self.accepted_ledger = ledger
                self.accepted_round = self.round
                validation = sign_validation(
                    self.keypair,
                    Validation(self.node_id, ledger.seq, ledger.header.hash()),
                )
                self.validations.record(validation)
                out.proposals.append(self._make_proposal())
                out.validations.append(validation)
                out.accepted = ledger
                return out
            self.round += 1
            if self.round > self.cfg.max_rounds:
                # Fall back to the empty set so the chain can advance; the
                # open txs stay queued for the next ledger.
                self.candidate = ()
            else:
                self.candidate = new_candidate
            out.proposals.append(self._make_proposal())
            return out

        # ACCEPTED: keep re-broadcasting until the network fully validates.
        ledger = self.accepted_ledger
        assert ledger is not None
        out.proposals.append(self._make_proposal())
        out.validations.append(
            sign_validation(
                self.keypair,
                Validation(self.node_id, ledger.seq, ledger.header.hash()),
            )
        )
        return out

    # -- commit handoff --------------------------------------------------------

    def quorum_hash(self, seq: Optional[int] = None) -> Optional[bytes]:
        return self.validations.quorum_hash(
            self.building_seq if seq is None else seq, self.unl, self.cfg
        )

    def advance(self, committed: Ledger) -> None:
        """Move to the next seq after the node commits ``committed``."""
        if committed.seq != self.building_seq:
            raise ValueError(
                f"commit for seq {committed.seq} while building {self.building_seq}"
            )
        self.drop_open_txs(tx.tx_id for tx in committed.txs)
        self.building_seq = committed.seq + 1
        self.phase = ConsensusPhase.OPEN
        self.round = 0
        self.candidate = ()
        self.accepted_ledger = None
        self.accepted_round = None
        for old in [s for s in self.peer_proposals if s < self.building_seq]:
            del self.peer_proposals[old]
        self.validations.prune_below(committed.seq)  # keep committed seq for laggards

    def reset_to_seq(self, building_seq: int) -> None:
        """Re-anchor after a sync jump; open txs are kept and re-proposed."""
        self.building_seq = building_seq
        self.phase = ConsensusPhase.OPEN
        self.round = 0
        self.candidate = ()
        self.accepted_ledger = None
        self.accepted_round = None
        for old in [s for s in self.peer_proposals if s < building_seq]:
            del self.peer_proposals[old]
        self.validations.prune_below(building_seq - 1)
