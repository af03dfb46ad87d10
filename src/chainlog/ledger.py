"""Transactions, blocks, and the hash chain.

This is the tamper-evident substrate: SQL-shaped operations are wrapped in
per-account-sequenced, signed transactions; validated transactions are grouped
into ledgers whose headers chain by hash. Everything hashes over the canonical
encoding from ``codec``, so every node derives identical digests for identical
values. A ``Transaction`` keeps its canonical bytes (``encoded``), so tx
lists, ledgers, block files and wire frames join them instead of encoding
each tx again; strict decoding makes the bytes a tx was read from its
canonical encoding.

Chain verification is two-layered. This module is the storage layer:
``parse_stored_chain`` pins every stored block against the
``chain.manifest`` header-hash index and checks the links, so a flipped byte
in any block file - including fields of the tip header that no successor
links to - is caught. ``verify_stored_dir`` adds that a stored chain starts at
genesis. A ``Ledger`` checks its own transaction-set hash when built.

The replay layer (seqs and links of an in-memory run, signatures, re-derived
state hashes) needs the table store and lives in ``sqlvm``; ``ChainCheck``
carries both layers' verdicts.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Union

from .codec import MAX_LEN, CodecError, Reader, Writer, check_sorted_key
from . import signing

HASH_LEN = 32
ZERO_HASH = b"\x00" * HASH_LEN
ACCOUNT_LEN = 20

MAX_NAME_LEN = 64
MAX_TEXT_BYTES = 1024
_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def hash32(data: bytes) -> bytes:
    """SHA-256 digest, the network-wide content hash."""
    return hashlib.sha256(data).digest()


class InvalidTransactionError(ValueError):
    """A transaction failed signature or structural checks."""

    def __init__(self, message: str, tx_id: Optional[bytes] = None) -> None:
        super().__init__(message)
        self.tx_id = tx_id


def _check_name(name: str, what: str) -> str:
    if not name or len(name) > MAX_NAME_LEN or not _NAME_RE.match(name):
        raise ValueError(f"invalid {what} name: {name!r}")
    return name


# ---------------------------------------------------------------------------
# Accounts and literals
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class AccountId:
    """20-byte account identifier: first 20 bytes of the public-key hash."""

    id: bytes

    def __post_init__(self) -> None:
        if len(self.id) != ACCOUNT_LEN:
            raise ValueError(f"account id must be {ACCOUNT_LEN} bytes, got {len(self.id)}")

    @classmethod
    def from_public_key(cls, public_key: bytes) -> "AccountId":
        return cls(hash32(public_key)[:ACCOUNT_LEN])

    @classmethod
    def from_hex(cls, text: str) -> "AccountId":
        return cls(bytes.fromhex(text))

    @property
    def hex(self) -> str:
        return self.id.hex()

    def __repr__(self) -> str:
        return f"AccountId({self.hex})"


class ColumnType(enum.Enum):
    INT = "INT"
    TEXT = "TEXT"


_COLTYPE_TAG = {ColumnType.INT: 0, ColumnType.TEXT: 1}
_TAG_COLTYPE = {v: k for k, v in _COLTYPE_TAG.items()}

# A cell value is a signed 64-bit int or a short UTF-8 string; no NULL.
Literal = Union[int, str]


def check_literal(value: Literal) -> Literal:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"literal must be int or str, got {type(value).__name__}")
    if isinstance(value, int):
        if not -(1 << 63) <= value < (1 << 63):
            raise ValueError(f"integer literal out of 64-bit range: {value}")
    else:
        if len(value.encode("utf-8")) > MAX_TEXT_BYTES:
            raise ValueError("text literal exceeds 1 KiB")
    return value


def literal_matches(value: Literal, col_type: ColumnType) -> bool:
    if col_type is ColumnType.INT:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, str)


# An INT is tag 0 and a big-endian i64; a TEXT is tag 1 and u32-prefixed
# UTF-8: exactly codec.Writer's u8 + i64 / u8 + str_.
_int_literal = functools.partial(struct.Struct(">Bq").pack, 0)  # struct.error out of range
_TEXT_HEAD = struct.Struct(">BI")
_COUNT = struct.Struct(">I")  # codec.Writer's u32


def _text_literal(value: str) -> bytes:
    data = value.encode("utf-8")
    if len(data) > MAX_LEN:
        raise ValueError(f"byte string too long: {len(data)}")
    return _TEXT_HEAD.pack(1, len(data)) + data


def literal_encoder(col_type: ColumnType) -> Callable[[Literal], bytes]:
    """The literal codec for the cells of one column type, for bulk encoding.

    The INT encoder runs at C speed and raises ``struct.error`` for a value
    outside i64; callers translate that to ``ValueError``.
    """
    return _int_literal if col_type is ColumnType.INT else _text_literal


def encode_literal(w: Writer, value: Literal) -> None:
    """The one literal codec: chain operations, snapshots and sealed columns."""
    try:
        w.raw((_int_literal if isinstance(value, int) else _text_literal)(value))
    except struct.error:
        raise ValueError(f"i64 out of range: {value}") from None


def decode_literal(r: Reader) -> Literal:
    tag = r.u8()
    if tag == 0:
        return r.i64()
    if tag == 1:
        text = r.str_()
        if len(text.encode("utf-8")) > MAX_TEXT_BYTES:
            raise CodecError("text literal exceeds 1 KiB")
        return text
    raise CodecError(f"unknown literal tag {tag}")


class Perm(enum.Enum):
    SELECT = "select"
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"


_PERM_BIT = {Perm.SELECT: 1, Perm.INSERT: 2, Perm.UPDATE: 4, Perm.DELETE: 8}
ALL_PERMS = frozenset(Perm)


def perms_to_mask(perms: Iterable[Perm]) -> int:
    mask = 0
    for p in perms:
        mask |= _PERM_BIT[p]
    return mask


def perms_from_mask(mask: int) -> frozenset:
    if mask & ~0xF:
        raise CodecError(f"unknown permission bits in mask {mask:#x}")
    return frozenset(p for p, bit in _PERM_BIT.items() if mask & bit)


# ---------------------------------------------------------------------------
# SQL operations (the closed sum type recorded on chain)
# ---------------------------------------------------------------------------


def _check_values(values: Mapping[str, Literal]) -> dict:
    out = {}
    for col, lit in values.items():
        out[_check_name(col, "column")] = check_literal(lit)
    return out


def _check_where(where: Iterable) -> tuple:
    out = []
    for col, lit in where:
        out.append((_check_name(col, "column"), check_literal(lit)))
    return tuple(out)


@dataclass(frozen=True)
class CreateTable:
    table: str
    columns: tuple  # ((name, ColumnType), ...)

    OP_TAG = 0

    def __post_init__(self) -> None:
        _check_name(self.table, "table")
        cols = tuple((_check_name(n, "column"), t) for n, t in self.columns)
        if not cols:
            raise ValueError("CreateTable requires at least one column")
        names = [n for n, _ in cols]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in {self.table!r}")
        for _, t in cols:
            if not isinstance(t, ColumnType):
                raise ValueError(f"bad column type: {t!r}")
        object.__setattr__(self, "columns", cols)

    def encode_body(self, w: Writer) -> None:
        w.str_(self.table)
        w.u32(len(self.columns))
        for name, col_type in self.columns:
            w.str_(name)
            w.u8(_COLTYPE_TAG[col_type])


@dataclass(frozen=True)
class DropTable:
    table: str

    OP_TAG = 1

    def __post_init__(self) -> None:
        _check_name(self.table, "table")

    def encode_body(self, w: Writer) -> None:
        w.str_(self.table)


@dataclass(frozen=True)
class Insert:
    table: str
    values: dict  # column -> literal

    OP_TAG = 2

    def __post_init__(self) -> None:
        _check_name(self.table, "table")
        object.__setattr__(self, "values", _check_values(self.values))

    def encode_body(self, w: Writer) -> None:
        w.str_(self.table)
        _write_value_map(w, self.values)


@dataclass(frozen=True)
class Update:
    table: str
    where: tuple  # ((column, literal), ...) conjunctive equality
    set_values: dict

    OP_TAG = 3

    def __post_init__(self) -> None:
        _check_name(self.table, "table")
        object.__setattr__(self, "where", _check_where(self.where))
        if not self.set_values:
            raise ValueError("Update requires a nonempty SET")
        object.__setattr__(self, "set_values", _check_values(self.set_values))

    def encode_body(self, w: Writer) -> None:
        w.str_(self.table)
        _write_where(w, self.where)
        _write_value_map(w, self.set_values)


@dataclass(frozen=True)
class Delete:
    table: str
    where: tuple

    OP_TAG = 4

    def __post_init__(self) -> None:
        _check_name(self.table, "table")
        object.__setattr__(self, "where", _check_where(self.where))

    def encode_body(self, w: Writer) -> None:
        w.str_(self.table)
        _write_where(w, self.where)


@dataclass(frozen=True)
class Grant:
    table: str
    grantee: AccountId
    perms: frozenset

    OP_TAG = 5

    def __post_init__(self) -> None:
        _check_name(self.table, "table")
        perms = frozenset(self.perms)
        for p in perms:
            if not isinstance(p, Perm):
                raise ValueError(f"bad permission: {p!r}")
        object.__setattr__(self, "perms", perms)

    def encode_body(self, w: Writer) -> None:
        w.str_(self.table)
        w.raw(self.grantee.id)
        w.u8(perms_to_mask(self.perms))


SqlOperation = Union[CreateTable, DropTable, Insert, Update, Delete, Grant]

_OP_BY_TAG = {cls.OP_TAG: cls for cls in (CreateTable, DropTable, Insert, Update, Delete, Grant)}


def _write_value_map(w: Writer, values: Mapping[str, Literal]) -> None:
    w.u32(len(values))
    for col in sorted(values, key=lambda c: c.encode("utf-8")):
        w.str_(col)
        encode_literal(w, values[col])


def _read_value_map(r: Reader) -> dict:
    count = r.u32()
    out = {}
    prev = None
    for _ in range(count):
        col = r.str_()
        prev = check_sorted_key(prev, col.encode("utf-8"), "value map")
        out[col] = decode_literal(r)
    return out


def _write_where(w: Writer, where: tuple) -> None:
    w.u32(len(where))
    for col, lit in where:
        w.str_(col)
        encode_literal(w, lit)


def _read_where(r: Reader) -> tuple:
    count = r.u32()
    return tuple((r.str_(), decode_literal(r)) for _ in range(count))


def encode_operation(w: Writer, op: SqlOperation) -> None:
    w.u8(op.OP_TAG)
    op.encode_body(w)


def decode_operation(r: Reader) -> SqlOperation:
    tag = r.u8()
    cls = _OP_BY_TAG.get(tag)
    if cls is None:
        raise CodecError(f"unknown operation tag {tag}")
    try:
        if cls is CreateTable:
            table = r.str_()
            count = r.u32()
            cols = []
            for _ in range(count):
                name = r.str_()
                type_tag = r.u8()
                if type_tag not in _TAG_COLTYPE:
                    raise CodecError(f"unknown column type tag {type_tag}")
                cols.append((name, _TAG_COLTYPE[type_tag]))
            return CreateTable(table, tuple(cols))
        if cls is DropTable:
            return DropTable(r.str_())
        if cls is Insert:
            return Insert(r.str_(), _read_value_map(r))
        if cls is Update:
            return Update(r.str_(), _read_where(r), _read_value_map(r))
        if cls is Delete:
            return Delete(r.str_(), _read_where(r))
        table = r.str_()
        grantee = AccountId(r.raw(ACCOUNT_LEN))
        return Grant(table, grantee, perms_from_mask(r.u8()))
    except ValueError as exc:
        if isinstance(exc, CodecError):
            raise
        raise CodecError(f"malformed operation: {exc}") from None


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Transaction:
    """A signed, per-account-sequenced operation destined for the chain.

    ``tx_id`` is the hash of the canonical body (account, seq, op); the
    signature covers ``tx_id`` and the embedded public key must hash to the
    account id, so no field can be swapped without detection.

    ``encoded`` is the canonical encoding of the whole tx, body then key and
    signature, and every encoder joins it instead of encoding the fields
    again. A constructed tx appends the key and signature to the body it
    encodes for ``tx_id``; a decoded one keeps the bytes it was read from,
    which strict decoding makes the canonical encoding of the decoded fields.
    A tx is immutable, so the bytes cannot go stale, and ``verify_signature``
    keeps its verdict on the object for the same reason.
    """

    account: AccountId
    seq: int
    op: SqlOperation
    public_key: bytes
    signature: bytes
    tx_id: bytes = field(init=False)
    encoded: bytes = field(init=False, repr=False, compare=False)
    _signature_ok: Optional[bool] = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.seq < 1:
            raise ValueError("transaction seq starts at 1")
        body = self.body_bytes()
        object.__setattr__(self, "tx_id", hash32(body))
        w = Writer()
        w.raw(body)
        w.bytes_(self.public_key)
        w.bytes_(self.signature)
        object.__setattr__(self, "encoded", w.getvalue())

    def body_bytes(self) -> bytes:
        """The canonical body (account, seq, op), encoded from the fields."""
        w = Writer()
        w.raw(self.account.id)
        w.u64(self.seq)
        encode_operation(w, self.op)
        return w.getvalue()

    def encode_into(self, w: Writer) -> None:
        w.raw(self.encoded)

    @classmethod
    def decode_from(cls, r: Reader) -> "Transaction":
        start = r.tell()
        account = AccountId(r.raw(ACCOUNT_LEN))
        seq = r.u64()
        if seq < 1:
            raise CodecError("transaction seq must be >= 1")
        op = decode_operation(r)
        # Strict decoding is injective, so the bytes just read are the
        # canonical body, and with the key and signature the canonical tx:
        # hash and keep them rather than encode again.
        tx_id = hash32(r.since(start))
        public_key, signature = r.bytes_(), r.bytes_()
        return cls._assemble(account, seq, op, public_key, signature, tx_id, r.since(start))

    @classmethod
    def _assemble(cls, account, seq, op, public_key, signature, tx_id, encoded) -> "Transaction":
        """A tx from checked fields, its id and its encoding. Setting the
        fields one by one in field order, as __init__ does, keeps the
        instance as small as a constructed one."""
        tx = object.__new__(cls)
        for name, value in (
            ("account", account), ("seq", seq), ("op", op), ("public_key", public_key),
            ("signature", signature), ("tx_id", tx_id), ("encoded", encoded), ("_signature_ok", None),
        ):
            object.__setattr__(tx, name, value)
        return tx

    def sort_key(self) -> tuple:
        return (self.account.id, self.seq, self.tx_id)


def sign_transaction(keypair: signing.KeyPair, seq: int, op: SqlOperation) -> Transaction:
    """Build and sign a transaction for the account derived from ``keypair``."""
    account = AccountId.from_public_key(keypair.public_key)
    unsigned = Transaction(account, seq, op, keypair.public_key, b"")
    sig = keypair.sign(unsigned.tx_id)
    # The unsigned encoding ends in the empty signature's length prefix.
    encoded = unsigned.encoded[:-_COUNT.size] + _COUNT.pack(len(sig)) + sig
    return Transaction._assemble(account, seq, op, keypair.public_key, sig, unsigned.tx_id, encoded)


def verify_signature(tx: Transaction) -> bool:
    """True iff the embedded key matches the account and signs the tx body.

    The verdict is kept on ``tx``: the object is immutable, so checking it
    again costs an attribute read. It belongs to the object, not to the
    ``tx_id``: a tx decoded from other bytes is checked afresh.
    """
    verdict = tx._signature_ok
    if verdict is None:
        try:
            verdict = AccountId.from_public_key(tx.public_key) == tx.account and signing.verify(
                tx.public_key, tx.tx_id, tx.signature
            )
        except signing.SigningError:
            verdict = False
        object.__setattr__(tx, "_signature_ok", verdict)
    return verdict


def serialize_transaction(tx: Transaction) -> bytes:
    return tx.encoded


def deserialize_transaction(data: bytes) -> Transaction:
    r = Reader(data)
    tx = Transaction.decode_from(r)
    r.finish()
    return tx


# ---------------------------------------------------------------------------
# Ledgers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LedgerHeader:
    seq: int
    parent_hash: bytes
    tx_set_hash: bytes
    state_hash: bytes
    close_time: int  # simulated milliseconds

    def __post_init__(self) -> None:
        for name in ("parent_hash", "tx_set_hash", "state_hash"):
            if len(getattr(self, name)) != HASH_LEN:
                raise ValueError(f"{name} must be {HASH_LEN} bytes")
        if self.seq == 0 and self.parent_hash != ZERO_HASH:
            raise ValueError("genesis parent hash must be zero")

    def encode_into(self, w: Writer) -> None:
        w.u64(self.seq)
        w.raw(self.parent_hash)
        w.raw(self.tx_set_hash)
        w.raw(self.state_hash)
        w.u64(self.close_time)

    @classmethod
    def decode_from(cls, r: Reader) -> "LedgerHeader":
        fields = (r.u64(), r.raw(HASH_LEN), r.raw(HASH_LEN), r.raw(HASH_LEN), r.u64())
        try:
            return cls(*fields)
        except ValueError as exc:
            raise CodecError(str(exc)) from None

    def hash(self) -> bytes:
        w = Writer()
        self.encode_into(w)
        return hash32(w.getvalue())


def _encode_tx_list(txs: tuple) -> bytes:
    return _COUNT.pack(len(txs)) + b"".join([tx.encoded for tx in txs])


def compute_tx_set_hash(txs: Iterable[Transaction]) -> bytes:
    """Hash of the canonically ordered transaction list."""
    ordered = tuple(sorted(txs, key=Transaction.sort_key))
    return hash32(_encode_tx_list(ordered))


@dataclass(frozen=True)
class Ledger:
    header: LedgerHeader
    txs: tuple  # canonically ordered Transactions

    def __post_init__(self) -> None:
        keys = [tx.sort_key() for tx in self.txs]
        if any(b <= a for a, b in zip(keys, keys[1:])):
            raise ValueError("ledger transactions not in strict canonical order")
        if hash32(_encode_tx_list(self.txs)) != self.header.tx_set_hash:
            raise ValueError("tx_set_hash does not match transaction list")

    @property
    def seq(self) -> int:
        return self.header.seq

    def encode_into(self, w: Writer) -> None:
        self.header.encode_into(w)
        w.raw(_encode_tx_list(self.txs))

    @classmethod
    def decode_from(cls, r: Reader) -> "Ledger":
        header = LedgerHeader.decode_from(r)
        count = r.u32()
        txs = tuple(Transaction.decode_from(r) for _ in range(count))
        try:
            return cls(header, txs)
        except ValueError as exc:
            raise CodecError(str(exc)) from None


def serialize_ledger(ledger: Ledger) -> bytes:
    w = Writer()
    ledger.encode_into(w)
    return w.getvalue()


def deserialize_ledger(data: bytes) -> Ledger:
    r = Reader(data)
    ledger = Ledger.decode_from(r)
    r.finish()
    return ledger


def canonical_serialize(value) -> bytes:
    """Canonical bytes for any domain value exposing ``encode_into``."""
    w = Writer()
    if isinstance(value, (CreateTable, DropTable, Insert, Update, Delete, Grant)):
        encode_operation(w, value)
    else:
        value.encode_into(w)
    return w.getvalue()


def genesis_ledger(state_hash: bytes, close_time: int = 0) -> Ledger:
    header = LedgerHeader(0, ZERO_HASH, compute_tx_set_hash(()), state_hash, close_time)
    return Ledger(header, ())


def build_ledger(
    parent: LedgerHeader,
    txs: Iterable[Transaction],
    state_hash: bytes,
    close_time: int,
) -> Ledger:
    """Assemble the next ledger from validated transactions.

    Transactions are canonically ordered regardless of input order. Any
    signature-invalid transaction or duplicate tx_id rejects the whole build,
    naming the offender.
    """
    ordered = sorted(txs, key=Transaction.sort_key)
    seen = set()
    for tx in ordered:
        if not verify_signature(tx):
            raise InvalidTransactionError(
                f"invalid signature on tx {tx.tx_id.hex()}", tx.tx_id
            )
        if tx.tx_id in seen:
            raise InvalidTransactionError(f"duplicate tx {tx.tx_id.hex()}", tx.tx_id)
        seen.add(tx.tx_id)
    ordered = tuple(ordered)
    header = LedgerHeader(
        seq=parent.seq + 1,
        parent_hash=parent.hash(),
        tx_set_hash=hash32(_encode_tx_list(ordered)),
        state_hash=state_hash,
        close_time=close_time,
    )
    return Ledger(header, ordered)


# ---------------------------------------------------------------------------
# Chain verification
# ---------------------------------------------------------------------------


BAD_GENESIS = "bad_genesis"
ORDER_GAP = "order_gap"
PARENT_MISMATCH = "parent_mismatch"
# Replay-layer reasons (sqlvm.verify_and_apply):
BAD_SIGNATURE = "bad_signature"
STATE_MISMATCH = "state_mismatch"
# Stored-layer reasons (file corruption / manifest pinning):
PARSE_ERROR = "parse_error"
MANIFEST_MISMATCH = "manifest_mismatch"
MISSING_BLOCK = "missing_block"


@dataclass(frozen=True)
class ChainCheck:
    """Outcome of a chain verification: ``Ok`` or first break point."""

    ok: bool
    index: Optional[int] = None
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return "Ok"
        return f"BrokenAt({self.index}, {self.reason})"


CHAIN_OK = ChainCheck(True)


# ---------------------------------------------------------------------------
# Block files and manifest
# ---------------------------------------------------------------------------

BLOCK_FILE_FMT = "ledger_{seq}.blk"
MANIFEST_NAME = "chain.manifest"
_BLOCK_FILE_RE = re.compile(r"^ledger_(\d+)\.blk$")


def block_file_bytes(ledger: Ledger) -> bytes:
    payload = serialize_ledger(ledger)
    w = Writer()
    w.bytes_(payload)
    return w.getvalue()


def parse_block_file(data: bytes) -> Ledger:
    r = Reader(data)
    payload = r.bytes_()
    r.finish()
    return deserialize_ledger(payload)


def write_block_file(data_dir: Path, ledger: Ledger) -> Path:
    path = Path(data_dir) / BLOCK_FILE_FMT.format(seq=ledger.seq)
    path.write_bytes(block_file_bytes(ledger))
    return path


def append_manifest(data_dir: Path, seq: int, header_hash: bytes) -> None:
    with open(Path(data_dir) / MANIFEST_NAME, "a", encoding="ascii") as f:
        f.write(f"{seq} {header_hash.hex()}\n")


def read_manifest(data_dir: Path) -> dict:
    """seq -> header hash, from the newline-delimited manifest."""
    path = Path(data_dir) / MANIFEST_NAME
    out = {}
    if not path.exists():
        return out
    for line_no, line in enumerate(path.read_text(encoding="ascii").splitlines(), 1):
        if not line.strip():
            continue
        try:
            seq_text, hex_hash = line.split()
            digest = bytes.fromhex(hex_hash)
            if len(digest) != HASH_LEN:
                raise ValueError("bad digest length")
            out[int(seq_text)] = digest
        except ValueError as exc:
            raise CodecError(f"{MANIFEST_NAME}:{line_no}: malformed line: {exc}") from None
    return out


def read_block_files(data_dir: Path) -> dict:
    """seq -> raw file bytes for every ledger_<seq>.blk present."""
    out = {}
    for path in Path(data_dir).iterdir():
        m = _BLOCK_FILE_RE.match(path.name)
        if m:
            out[int(m.group(1))] = path.read_bytes()
    return out


def parse_stored_chain(blocks: Mapping[int, bytes], manifest: Mapping[int, bytes]) -> tuple:
    """Parse stored blocks once, pin them to the manifest, and check links.

    ``blocks`` maps seq to raw ``.blk`` file bytes. Returns the first break
    (or ``CHAIN_OK``) and seq -> ``Ledger`` for the blocks parsed. Once every
    block is pinned, the manifest is the index of parent hashes, so a block
    links to its predecessor's manifest entry even when that file was pruned.
    One gap between stored blocks is tolerated; whether the chain must start
    at genesis is the caller's rule.
    """
    parsed = {}
    for seq in sorted(blocks):
        try:
            ledger = parse_block_file(blocks[seq])
        except CodecError:
            return ChainCheck(False, seq, PARSE_ERROR), parsed
        if ledger.seq != seq:
            return ChainCheck(False, seq, PARSE_ERROR), parsed
        pinned = manifest.get(seq)
        if pinned is None or ledger.header.hash() != pinned:
            return ChainCheck(False, seq, MANIFEST_MISMATCH), parsed
        parsed[seq] = ledger
    first = min(parsed, default=0)
    gaps = 0
    for seq, ledger in parsed.items():
        if seq == 0:
            continue  # genesis: its header forces a zero parent
        if seq != first and seq - 1 not in parsed:
            gaps += 1
        parent = manifest.get(seq - 1)
        if gaps > 1 or parent is None:
            return ChainCheck(False, seq, ORDER_GAP), parsed
        if ledger.header.parent_hash != parent:
            return ChainCheck(False, seq, PARENT_MISMATCH), parsed
    return CHAIN_OK, parsed


def verify_stored_chain(blocks: Mapping[int, bytes], manifest: Mapping[int, bytes]) -> ChainCheck:
    """``parse_stored_chain`` for a stored chain that must start at genesis."""
    if not blocks:
        raise ValueError("no stored blocks to verify")
    check, parsed = parse_stored_chain(blocks, manifest)
    if check and 0 not in parsed:
        return ChainCheck(False, min(parsed), MISSING_BLOCK)
    return check


def verify_stored_dir(data_dir: Path) -> ChainCheck:
    blocks = read_block_files(data_dir)
    if not blocks:
        raise ValueError(f"no block files under {data_dir}")
    return verify_stored_chain(blocks, read_manifest(data_dir))


def load_chain(data_dir: Path) -> list:
    """Parse all stored blocks in seq order (no verification)."""
    blocks = read_block_files(data_dir)
    return [parse_block_file(blocks[seq]) for seq in sorted(blocks)]
