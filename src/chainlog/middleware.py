"""Client-side layers over the chain: failover sessions and recovery tooling.

Three pieces live here:

* ``ClientSession`` - a multi-endpoint writer/reader. It signs operations
  once and resubmits the identical transaction to the next endpoint when one
  dies, so a commit can never happen twice (the tx_id and account seq are the
  idempotency keys).
* Column encryption - values of chosen columns are sealed client-side before
  signing, so nodes replicate and replay ciphertext. Encryption is
  deterministic on purpose: equal plaintexts give equal ciphertexts, keeping
  equality predicates usable on sealed columns. That trades away hiding
  equality patterns; callers who need semantic security should not put such
  data behind WHERE clauses.
* Binlog ingestion and the ``RecoveryCenter`` - an external database's
  operation log is parsed into signed transactions, and a standby site
  continuously receives validated ledgers, re-verifies them, and can be
  promoted when the production side is declared failed.

Encrypted columns must be declared TEXT: ciphertext is stored as a text
literal with a recognizable prefix.
"""

from __future__ import annotations

import base64
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESSIV

from . import ledger as lgr
from . import netsim
from . import node as nd
from . import signing
from . import sqltext
from . import sqlvm
from .codec import CodecError, Reader, Writer
from .ledger import AccountId, Transaction
from .node import Node, SelectQuery


class DecryptError(ValueError):
    """Wrong key, wrong mode, or tampered ciphertext."""


class Unavailable(Exception):
    """No configured endpoint could take the operation."""


class PromotionRefused(Exception):
    """Backup promotion guard failed."""


# ---------------------------------------------------------------------------
# Cipher: AES-SIV, deterministic authenticated encryption
# ---------------------------------------------------------------------------


_KEY_LEN = 32  # AES-SIV key bytes


def aes_siv_encrypt(key: bytes, plaintext: bytes, context: bytes) -> bytes:
    """AES-SIV: misuse-resistant AEAD, deterministic without a nonce."""
    return AESSIV(key).encrypt(plaintext, [context])


def aes_siv_decrypt(key: bytes, ciphertext: bytes, context: bytes) -> bytes:
    try:
        return AESSIV(key).decrypt(ciphertext, [context])
    except InvalidTag:
        raise DecryptError("ciphertext authentication failed") from None


_MODE_NONE = 0
_MODE_SYMMETRIC = 1
_MODE_ASYMMETRIC = 2


@dataclass(frozen=True)
class EncryptionMode:
    """What seals column values: nothing, a shared key, or a recipient key.

    The asymmetric mode is a deterministic hybrid: the ephemeral scalar is
    derived from the recipient key and the plaintext, so the same value seals
    to the same bytes (see the module note on why determinism is wanted).
    """

    kind: int
    key_id: str = ""
    key: bytes = b""
    recipient_public: bytes = b""
    recipient_private: bytes = b""

    @classmethod
    def none(cls) -> "EncryptionMode":
        return cls(_MODE_NONE)

    @classmethod
    def symmetric(cls, key_id: str, key: bytes) -> "EncryptionMode":
        if len(key) != _KEY_LEN:
            raise ValueError(f"aes-siv key must be {_KEY_LEN} bytes")
        return cls(_MODE_SYMMETRIC, key_id=key_id, key=key)

    @classmethod
    def asymmetric(cls, recipient_public: bytes, recipient_private: bytes = b"") -> "EncryptionMode":
        if len(recipient_public) != 32:
            raise ValueError("recipient public key must be 32 raw X25519 bytes")
        return cls(
            _MODE_ASYMMETRIC,
            recipient_public=recipient_public,
            recipient_private=recipient_private,
        )


def recipient_keypair(seed: bytes) -> Tuple[bytes, bytes]:
    """Deterministic X25519 (private, public) raw byte pair from a 32-byte seed."""
    if len(seed) != 32:
        raise ValueError("seed must be 32 bytes")
    priv = X25519PrivateKey.from_private_bytes(seed)
    return seed, priv.public_key().public_bytes_raw()


def _derive_key(shared: bytes, eph_pub: bytes) -> bytes:
    return hashlib.sha256(b"hybrid-key" + shared + eph_pub).digest()  # _KEY_LEN bytes


def encrypt_payload(mode: EncryptionMode, plaintext: bytes) -> bytes:
    """Seal bytes under the mode; mode none is the identity."""
    if mode.kind == _MODE_NONE:
        return plaintext
    w = Writer()
    w.u8(mode.kind)
    if mode.kind == _MODE_SYMMETRIC:
        if not mode.key:
            raise ValueError("symmetric mode has no key material")
        w.str_(mode.key_id)
        w.bytes_(aes_siv_encrypt(mode.key, plaintext, mode.key_id.encode("utf-8")))
        return w.getvalue()
    # Deterministic hybrid: ephemeral scalar from (recipient, plaintext).
    if not mode.recipient_public:
        raise ValueError("asymmetric mode has no recipient public key")
    eph_seed = hashlib.sha256(b"ephemeral" + mode.recipient_public + plaintext).digest()
    eph_priv = X25519PrivateKey.from_private_bytes(eph_seed)
    eph_pub = eph_priv.public_key().public_bytes_raw()
    shared = eph_priv.exchange(X25519PublicKey.from_public_bytes(mode.recipient_public))
    w.bytes_(eph_pub)
    w.bytes_(aes_siv_encrypt(_derive_key(shared, eph_pub), plaintext, eph_pub))
    return w.getvalue()


def decrypt_payload(mode: EncryptionMode, data: bytes) -> bytes:
    """Open sealed bytes; any inconsistency raises DecryptError."""
    if mode.kind == _MODE_NONE:
        return data
    try:
        r = Reader(data)
        kind = r.u8()
        if kind != mode.kind:
            raise DecryptError(f"payload mode {kind} does not match session mode {mode.kind}")
        if kind == _MODE_SYMMETRIC:
            key_id = r.str_()
            ct = r.bytes_()
            r.finish()
            if key_id != mode.key_id:
                raise DecryptError(f"payload key id {key_id!r} does not match {mode.key_id!r}")
            return aes_siv_decrypt(mode.key, ct, key_id.encode("utf-8"))
        eph_pub = r.bytes_()
        ct = r.bytes_()
        r.finish()
        if len(eph_pub) != 32:
            raise DecryptError("bad ephemeral key length")
        if not mode.recipient_private:
            raise DecryptError("asymmetric mode has no private key for decryption")
        priv = X25519PrivateKey.from_private_bytes(mode.recipient_private)
        shared = priv.exchange(X25519PublicKey.from_public_bytes(eph_pub))
        return aes_siv_decrypt(_derive_key(shared, eph_pub), ct, eph_pub)
    except CodecError as exc:
        raise DecryptError(f"malformed sealed payload: {exc}") from None


# ---------------------------------------------------------------------------
# Column-level sealing: literals <-> "~enc:" text values
# ---------------------------------------------------------------------------

ENC_PREFIX = "~enc:"


def encrypt_value(mode: EncryptionMode, value: lgr.Literal) -> str:
    w = Writer()
    lgr.encode_literal(w, lgr.check_literal(value))
    sealed = encrypt_payload(mode, w.getvalue())
    return ENC_PREFIX + base64.b64encode(sealed).decode("ascii")


def decrypt_value(mode: EncryptionMode, text: str) -> lgr.Literal:
    if not is_encrypted_value(text):
        raise DecryptError("not a sealed value")
    try:
        sealed = base64.b64decode(text[len(ENC_PREFIX) :], validate=True)
    except (ValueError, TypeError):
        raise DecryptError("sealed value is not valid base64") from None
    try:
        r = Reader(decrypt_payload(mode, sealed))
        value = lgr.decode_literal(r)
        r.finish()
        return value
    except CodecError as exc:
        raise DecryptError(f"sealed value decodes to garbage: {exc}") from None


def is_encrypted_value(value: lgr.Literal) -> bool:
    return isinstance(value, str) and value.startswith(ENC_PREFIX)


def _seal_map(mode: EncryptionMode, values: dict, columns: Set[str]) -> dict:
    return {
        col: encrypt_value(mode, v) if col in columns else v for col, v in values.items()
    }


def _seal_where(mode: EncryptionMode, where: tuple, columns: Set[str]) -> tuple:
    return tuple(
        (col, encrypt_value(mode, v) if col in columns else v) for col, v in where
    )


def encrypt_operation(mode: EncryptionMode, stmt, columns: Sequence[str]):
    """Return a copy of the op/query with the listed columns sealed."""
    cols = set(columns)
    if mode.kind == _MODE_NONE or not cols:
        return stmt
    if isinstance(stmt, lgr.Insert):
        return lgr.Insert(stmt.table, _seal_map(mode, stmt.values, cols))
    if isinstance(stmt, lgr.Update):
        return lgr.Update(
            stmt.table,
            _seal_where(mode, stmt.where, cols),
            _seal_map(mode, stmt.set_values, cols),
        )
    if isinstance(stmt, lgr.Delete):
        return lgr.Delete(stmt.table, _seal_where(mode, stmt.where, cols))
    if isinstance(stmt, SelectQuery):
        return SelectQuery(stmt.table, _seal_where(mode, stmt.where, cols))
    return stmt


def decrypt_row_values(mode: EncryptionMode, values: dict, columns: Sequence[str]) -> dict:
    cols = set(columns)
    return {
        col: decrypt_value(mode, v) if col in cols and is_encrypted_value(v) else v
        for col, v in values.items()
    }


# ---------------------------------------------------------------------------
# ClientSession: ordered endpoints, sticky active node, idempotent failover
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 6  # submit attempts across endpoints before giving up
    wait_ms: int = 5000  # sim time to await validation per attempt


class MwTxHandle:
    """One signed transaction tracked across submissions and failovers."""

    def __init__(self, session: "ClientSession", tx: Transaction) -> None:
        self.session = session
        self.tx = tx
        self.tx_id = tx.tx_id
        self.validated_at_ms: Optional[int] = None
        self.failure: Optional[str] = None

    def status(self) -> Tuple[str, Optional[nd.TxOutcome]]:
        """pending | validated | failed, polled from any reachable endpoint."""
        if self.failure is not None:
            return "failed", None
        for endpoint in self.session.rotation():
            status, outcome = self.session.net.node(endpoint).tx_status(self.tx_id)
            if status == "validated":
                return "validated", outcome
        return "pending", None


class ClientSession:
    """A single logical caller's view of the cluster.

    Writes are signed once; the same transaction is resubmitted verbatim on
    failover, so the chain sees at most one commit per tx_id no matter how
    many endpoints the session walks through.
    """

    def __init__(
        self,
        net: netsim.SimNetwork,
        endpoints: Sequence[str],
        keypair: signing.KeyPair,
        encryption: EncryptionMode = EncryptionMode.none(),
        encrypted_columns: Sequence[str] = (),
        retry: RetryPolicy = RetryPolicy(),
    ) -> None:
        if not endpoints:
            raise ValueError("a session needs at least one endpoint")
        self.net = net
        self.endpoints: List[str] = list(endpoints)
        self.active: str = self.endpoints[0]
        self.keypair = keypair
        self.account = AccountId.from_public_key(keypair.public_key)
        self.encryption = encryption
        self.encrypted_columns = tuple(encrypted_columns)
        self.retry = retry
        self.handles: Dict[bytes, MwTxHandle] = {}
        self._last_seq = 0
        # Read-your-writes floor: reads only accept endpoints applied at least
        # this far, so a session never sees state older than its own commits.
        self.read_floor_seq = 0

    # -- endpoint management -------------------------------------------------

    def rotation(self) -> List[str]:
        """Endpoints starting at the active one, live ones first."""
        i = self.endpoints.index(self.active) if self.active in self.endpoints else 0
        ordered = self.endpoints[i:] + self.endpoints[:i]
        return [e for e in ordered if e not in self.net.killed] + [
            e for e in ordered if e in self.net.killed
        ]

    def adopt_endpoints(self, endpoints: Sequence[str]) -> None:
        """Point the session somewhere else (e.g. at a promoted backup)."""
        if not endpoints:
            raise ValueError("cannot adopt an empty endpoint list")
        self.endpoints = list(endpoints)
        self.active = self.endpoints[0]

    def _live_endpoint(self) -> Optional[str]:
        for endpoint in self.rotation():
            if endpoint not in self.net.killed:
                return endpoint
        return None

    # -- write path ------------------------------------------------------------

    def _next_seq(self) -> int:
        if self._last_seq == 0:
            endpoint = self._live_endpoint()
            if endpoint is None:
                raise Unavailable("no reachable endpoint to derive the account seq")
            self._last_seq = self.net.node(endpoint).next_seq_hint(self.account) - 1
        self._last_seq += 1
        return self._last_seq

    def submit(self, op: lgr.SqlOperation, wait: bool = True) -> MwTxHandle:
        """Seal, sign, submit; with wait=True, drive the sim until validated."""
        if isinstance(op, SelectQuery):
            raise TypeError("reads go through select(), not submit()")
        sealed = encrypt_operation(self.encryption, op, self.encrypted_columns)
        seq = self._next_seq()
        try:
            tx = lgr.sign_transaction(self.keypair, seq, sealed)
        except Exception:
            self._last_seq -= 1
            raise
        handle = MwTxHandle(self, tx)
        self.handles[tx.tx_id] = handle
        if wait:
            self.await_validated(handle)
        return handle

    def await_validated(self, handle: MwTxHandle) -> nd.TxOutcome:
        """Submit-and-poll loop with failover; Unavailable after the budget.

        A resubmission after an endpoint death reuses the identical signed
        transaction, so duplicate delivery is harmless by construction.
        """
        for _ in range(self.retry.max_attempts):
            status, outcome = handle.status()
            if status == "validated":
                assert outcome is not None
                handle.validated_at_ms = self.net.now
                self.read_floor_seq = max(self.read_floor_seq, outcome.ledger_seq)
                return outcome
            endpoint = self._live_endpoint()
            if endpoint is None:
                break
            self.active = endpoint
            result = nd.submit_via(self.net, endpoint, handle.tx)
            if result.status == "rejected" and result.reason != "unreachable":
                handle.failure = result.reason
                raise Unavailable(f"transaction rejected: {result.reason}")
            deadline = self.net.now + self.retry.wait_ms
            run = self.net.run_until(
                lambda _net: handle.status()[0] == "validated", deadline
            )
            if run.satisfied:
                status, outcome = handle.status()
                assert status == "validated" and outcome is not None
                handle.validated_at_ms = run.time
                self.read_floor_seq = max(self.read_floor_seq, outcome.ledger_seq)
                return outcome
            # Not validated within the window: rotate past the current node.
            nxt = self._after(endpoint)
            if nxt is not None:
                self.active = nxt
        handle.failure = "unavailable"
        raise Unavailable(f"no endpoint validated tx {handle.tx_id.hex()[:16]}")

    def _after(self, endpoint: str) -> Optional[str]:
        live = [e for e in self.endpoints if e not in self.net.killed]
        if not live:
            return None
        if endpoint not in live:
            return live[0]
        return live[(live.index(endpoint) + 1) % len(live)]

    # -- read path ------------------------------------------------------------

    def select(self, query: Union[SelectQuery, str], decrypt: bool = True) -> List[dict]:
        """Run a read on the first endpoint that is both alive and synced."""
        if isinstance(query, str):
            parsed = sqltext.parse_sql(query)
            if not isinstance(parsed, SelectQuery):
                raise TypeError("select() requires a SELECT statement")
            query = parsed
        sealed = encrypt_operation(self.encryption, query, self.encrypted_columns)
        last_error: Optional[Exception] = None
        for attempt in range(2):
            for endpoint in self.rotation():
                if endpoint in self.net.killed:
                    continue
                node = self.net.node(endpoint)
                if node.applied_seq < self.read_floor_seq:
                    last_error = nd.NotSyncedError(node.applied_seq, self.read_floor_seq)
                    continue
                try:
                    rows = node.read_query(sealed, self.account)
                except (nd.NotSyncedError, nd.DbNotAttachedError) as exc:
                    last_error = exc
                    continue
                self.active = endpoint
                out = []
                for row in rows:
                    values = row.values
                    if decrypt and self.encryption.kind != _MODE_NONE:
                        values = decrypt_row_values(
                            self.encryption, values, self.encrypted_columns
                        )
                    out.append({"row_id": row.row_id, **values})
                return out
            if attempt == 0:
                # Every endpoint is stale or lagging; give replication a beat.
                self.net.run_until(
                    lambda _net: any(
                        self.net.node(e).applied_seq >= self.read_floor_seq
                        for e in self.endpoints
                        if e not in self.net.killed
                    ),
                    self.net.now + self.retry.wait_ms,
                )
        raise Unavailable(f"no endpoint served the read (last: {last_error})")


# ---------------------------------------------------------------------------
# Binlog ingestion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinlogEntry:
    source_id: str
    seq: int
    timestamp_ms: int
    sql: str


@dataclass(frozen=True)
class BinlogError:
    line_no: int
    message: str
    seq: Optional[int] = None


@dataclass
class IngestReport:
    transactions: List[Transaction] = field(default_factory=list)
    errors: List[BinlogError] = field(default_factory=list)
    entries_total: int = 0

    @property
    def ok(self) -> bool:
        return not self.errors


def parse_binlog_text(text: str, source_id: str) -> Tuple[List[BinlogEntry], List[BinlogError]]:
    """Parse `seq<TAB>timestamp_ms<TAB>sql` lines; report bad lines by number."""
    entries: List[BinlogEntry] = []
    errors: List[BinlogError] = []
    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t", 2)
        if len(parts) != 3:
            errors.append(BinlogError(line_no, "expected seq<TAB>timestamp_ms<TAB>sql"))
            continue
        try:
            seq = int(parts[0])
            ts = int(parts[1])
        except ValueError:
            errors.append(BinlogError(line_no, f"non-integer seq/timestamp: {parts[0]!r}/{parts[1]!r}"))
            continue
        if not parts[2].strip():
            errors.append(BinlogError(line_no, "empty statement", seq))
            continue
        entries.append(BinlogEntry(source_id, seq, ts, parts[2]))
    return entries, errors


def ingest_binlog(
    entries: Sequence[BinlogEntry],
    signer: signing.KeyPair,
    first_account_seq: int = 1,
) -> IngestReport:
    """Turn ordered binlog entries into signed transactions.

    Per-source entry seqs must strictly increase (a repeat or regression
    raises, naming both seqs). Entries that do not parse, or that are reads,
    become per-entry errors in the report; everything else is signed under
    the service account, preserving entry order.
    """
    report = IngestReport(entries_total=len(entries))
    last_seq: Dict[str, int] = {}
    account_seq = first_account_seq
    for line_no, entry in enumerate(entries, 1):
        prev = last_seq.get(entry.source_id)
        if prev is not None and entry.seq <= prev:
            raise ValueError(
                f"binlog seq not increasing for source {entry.source_id!r}: "
                f"{prev} then {entry.seq}"
            )
        last_seq[entry.source_id] = entry.seq
        try:
            stmt = sqltext.parse_sql(entry.sql)
        except sqltext.SqlSyntaxError as exc:
            report.errors.append(BinlogError(line_no, str(exc), entry.seq))
            continue
        if isinstance(stmt, SelectQuery):
            report.errors.append(
                BinlogError(line_no, "read-only statement cannot be recorded", entry.seq)
            )
            continue
        report.transactions.append(lgr.sign_transaction(signer, account_seq, stmt))
        account_seq += 1
    return report


# ---------------------------------------------------------------------------
# RecoveryCenter: the standby database fed by the backup node
# ---------------------------------------------------------------------------


class RecoveryCenter:
    """A standby table store receiving validated ledgers from a backup node.

    Registers in the simulator as a passive participant: every timer tick it
    pulls newly validated ledgers from the backup node, re-verifies each
    (parse, seq, parent link, signatures, post-apply state hash), and applies
    it. The first inconsistency raises the integrity alarm and freezes the
    store; a frozen center never serves a promotion.
    """

    def __init__(
        self,
        center_id: str,
        backup: Node,
        rpo_window_ms: int = 10000,
        ship_interval_ms: int = 1000,
        transport_hook: Optional[Callable[[int, bytes], bytes]] = None,
    ) -> None:
        self.node_id = center_id
        self.backup = backup
        self.rpo_window_ms = rpo_window_ms
        self.ship_interval_ms = ship_interval_ms
        self.transport_hook = transport_hook
        self.store = sqlvm.TableStore()
        self.last_shipped_seq = 0
        self.shipped_at: Dict[int, int] = {}  # seq -> sim time applied here
        self.alarm: Optional[str] = None
        self.enabled = True
        self.failure_declared = False
        self.failure_time_ms: Optional[int] = None
        self.promoted = False
        self._last_hash = lgr.genesis_ledger(sqlvm.state_hash(self.store)).header.hash()

    # -- sim protocol ---------------------------------------------------------

    @property
    def timer_interval_ms(self) -> int:
        return self.ship_interval_ms

    def on_timer(self, now: int) -> list:
        self.tick(now)
        return []

    def on_message(self, now: int, sender: str, data: bytes) -> list:
        return []

    # -- streaming ------------------------------------------------------------

    def tick(self, now: int) -> Optional[Tuple[int, int]]:
        """Ship every newly validated ledger; returns the shipped seq range."""
        if self.alarm or not self.enabled:
            return None
        first, last = 0, 0
        seq = self.last_shipped_seq + 1
        while seq <= self.backup.tip.seq:
            ledger = self.backup.chain_tail.get(seq)
            if ledger is None:
                break  # backup pruned it already; nothing to ship from here
            blob = lgr.serialize_ledger(ledger)
            if self.transport_hook is not None:
                blob = self.transport_hook(seq, blob)
            if not self._receive(seq, blob, now):
                return None
            first = first or seq
            last = seq
            seq += 1
        return (first, last) if first else None

    def _receive(self, seq: int, blob: bytes, now: int) -> bool:
        try:
            ledger = lgr.deserialize_ledger(blob)
        except CodecError as exc:
            self.alarm = f"ledger {seq} failed to parse: {exc}"
            return False
        scratch = self.store.clone()
        check, _ = sqlvm.verify_and_apply(
            scratch, self._last_hash, [ledger], check_signatures=True, check_state=True
        )
        if not check:
            self.alarm = f"expected seq {seq} to verify, got {check}"
            return False
        self.store = scratch
        self.last_shipped_seq = seq
        self.shipped_at[seq] = now
        self._last_hash = ledger.header.hash()
        return True

    def ship_latency_ms(self, seq: int) -> Optional[int]:
        """Sim-time gap between the backup validating a seq and us applying it."""
        if seq not in self.shipped_at or seq not in self.backup.commit_times:
            return None
        return self.shipped_at[seq] - self.backup.commit_times[seq]


def declare_failure(center: RecoveryCenter, now: int) -> None:
    center.failure_declared = True
    center.failure_time_ms = now


def promote_backup(center: RecoveryCenter) -> Node:
    """Elevate the backup node to production service, with guards."""
    if not center.failure_declared:
        raise PromotionRefused("no production failure has been declared")
    if center.alarm:
        raise PromotionRefused(f"integrity alarm raised: {center.alarm}")
    backup = center.backup
    if backup.known_validated_seq > backup.tip.seq:
        raise PromotionRefused(
            f"backup at seq {backup.tip.seq} lags validated seq {backup.known_validated_seq}"
        )
    if center.last_shipped_seq != backup.tip.seq:
        raise PromotionRefused(
            f"center shipped through seq {center.last_shipped_seq}, "
            f"backup tip is {backup.tip.seq}"
        )
    center.promoted = True
    return backup


@dataclass(frozen=True)
class DrillRecord:
    """What a recovery drill observed, for the measurement step."""

    kill_time_ms: int
    pre_failure_tx_ids: tuple
    first_success_time_ms: int


@dataclass(frozen=True)
class RecoveryMeasurement:
    rpo_lost_tx: int
    rto_ms: int


def measure_recovery(center: RecoveryCenter, drill: DrillRecord) -> RecoveryMeasurement:
    """RPO = validated-before-failure txs missing after promotion; RTO = time."""
    present = center.backup.committed_txs
    lost = sum(1 for tx_id in drill.pre_failure_tx_ids if tx_id not in present)
    return RecoveryMeasurement(
        rpo_lost_tx=lost,
        rto_ms=drill.first_success_time_ms - drill.kill_time_ms,
    )
