"""Deterministic replay engine: applies validated ledgers to a table store.

All mutation is funneled through ``apply_op``/``apply_ledger`` so that every
replica, replaying the same chain, lands on the same canonical state hash.
Rejections are total and deterministic (never exceptions), because replicas
must agree on outcomes, not just on successes.

Rows are never mutated in place: ``Update`` stores a new dict for each
matched row. So ``TableStore.clone`` is a cheap snapshot: each table copies
its row map and grants but shares the row dicts. A node builds each ledger
on one clone of its committed store and adopts that clone at commit.

The ``PendingOverlay`` API (``begin_pending`` clones the base, ops apply to
the store in place, ``commit_pending`` keeps them and returns their results,
``rollback_pending`` puts the clone's tables and account seqs back) is not
used by the node. Its users are its own tests, the benchmark's tracer, which
wraps ``begin_pending`` and ``rollback_pending`` by name, and the acceptance
gate, which reads ``TableStore._overlay``.

Each table shares with its clones one cache of ``row_id -> (row dict, row
bytes)``, filled lazily by the state encoding and evicted by ``Delete``. An
entry is trusted only while its dict *is* the row's current dict: a row that
was replaced, in this store or in a clone that shares the cache, is
re-encoded, and since the entry holds its dict alive no other dict can take
its identity. That also keeps the cache right for tables built directly
rather than through ``apply_op``.

A WHERE (conjunctive equality) is answered from an equality index on one of
its columns, ``value -> bucket``, where a bucket is a bare row_id or a tuple
of two or more row_ids in ascending order; the other predicates filter that
bucket. A table builds the index of a column from its current rows the first
time a WHERE names it, so loading a store builds none. From then on
``_apply_checked`` keeps every index the table holds: that is sound because
rows are never mutated in place and ``table.rows`` changes only there.
``Table.clone`` copies each index dict and shares its buckets, which are
immutable, so a clone starts with its parent's indexes and the node's commit
adopts them with the rows. The copies are derived data, never encoded or
hashed; on the 10k-row ``bigtable`` benchmark they cost about 4% peak RSS.

The state encoding behind ``state_hash`` and ``serialize_store`` joins the
cached row bytes into one ``bytearray`` and is byte-identical to ``codec``'s
canonical layout (big-endian fixed-width integers, u32-prefixed UTF-8);
literals come from ``ledger``'s literal codec. Every row holds exactly its
table's columns, each of its type: ``apply_op`` keeps that and
``deserialize_store`` rejects any snapshot that breaks it, so the encoder
walks each table's sorted column names instead of sorting every row. Every
row_id is also below its table's ``next_row_id`` (``deserialize_store``
checks that too), so an INSERT never overwrites a row and a reachable store
keeps its rows in row_id order, where the sorts by row_id are linear.

Chain verification is two-layered: ``ledger`` checks storage, this module
checks replay. Every ledger run a node trusts goes through
``verify_and_apply``; where the ledgers came from sets its checks:

* sync replies, shipped ledgers (``RecoveryCenter``) and audits
  (``verify-chain``, scenario ``verify_chain``): every signature and state;
* ``replay_chain``: every state, as its callers verify signatures themselves;
* restart (``load_data_dir`` from ``Node._load_from_disk``): the manifest
  pin, the links and the tip state, as the node wrote those blocks itself.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Tuple, Union

from . import ledger as lgr
from .codec import CodecError, Reader, Writer, check_sorted_key
from .ledger import (
    AccountId,
    ACCOUNT_LEN,
    ChainCheck,
    ColumnType,
    CreateTable,
    Delete,
    DropTable,
    Grant,
    HASH_LEN,
    Insert,
    Ledger,
    LedgerHeader,
    Perm,
    Transaction,
    Update,
    decode_literal,
    hash32,
    literal_encoder,
    literal_matches,
    perms_from_mask,
    perms_to_mask,
)

REJECT_BAD_SEQ = "bad_seq"
REJECT_NO_SUCH_TABLE = "no_such_table"
REJECT_TABLE_EXISTS = "table_exists"
REJECT_TYPE_MISMATCH = "type_mismatch"
REJECT_PERMISSION_DENIED = "permission_denied"
REJECT_MISSING_COLUMN = "missing_column"

_OP_PERM = {Insert: Perm.INSERT, Update: Perm.UPDATE, Delete: Perm.DELETE}


class OverlayError(RuntimeError):
    """Overlay lifecycle misuse (nested begin, commit without begin, ...)."""


class OutOfOrderLedgerError(ValueError):
    """apply_ledger called with a seq that is not applied_ledger_seq + 1."""


class CorruptCheckpointError(ValueError):
    """Checkpoint bytes fail to parse or do not match their snapshot hash."""


class QueryError(ValueError):
    """Read-path failure; ``reason`` uses the shared rejection vocabulary."""

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(f"{reason}{': ' + detail if detail else ''}")
        self.reason = reason


@dataclass(frozen=True)
class Applied:
    rows_changed: int = 0

    @property
    def ok(self) -> bool:
        return True


@dataclass(frozen=True)
class Rejected:
    reason: str

    @property
    def ok(self) -> bool:
        return False


ApplyResult = Union[Applied, Rejected]


@dataclass(frozen=True)
class Row:
    row_id: int
    values: dict


class Table:
    """One table: schema, ownership, grants, and rows keyed by row_id."""

    __slots__ = ("name", "columns", "owner", "grants", "rows", "next_row_id", "_types", "_encoded", "_index")

    def __init__(
        self,
        name: str,
        columns: tuple,
        owner: AccountId,
        grants: Optional[dict] = None,
        rows: Optional[dict] = None,
        next_row_id: int = 1,
    ) -> None:
        self.name = name
        self.columns = columns  # ((name, ColumnType), ...) in declared order
        self.owner = owner
        self.grants = grants if grants is not None else {}
        self.rows = rows if rows is not None else {}
        self.next_row_id = next_row_id
        self._types = dict(columns)
        self._encoded: dict = {}  # row_id -> (row dict, row bytes), shared by clones
        self._index: dict = {}  # column -> {value: bucket}, built on the first WHERE

    def column_type(self, column: str) -> Optional[ColumnType]:
        return self._types.get(column)

    def holds_perm(self, account: AccountId, perm: Perm) -> bool:
        if account == self.owner:
            return True
        return perm in self.grants.get(account, ())

    def clone(self) -> "Table":
        # Row dicts are never mutated in place, so they are shared.
        out = Table(self.name, self.columns, self.owner, dict(self.grants), dict(self.rows), self.next_row_id)
        out._encoded = self._encoded
        out._index = {col: dict(index) for col, index in self._index.items()}  # buckets are shared
        return out


class TableStore:
    """The replay target. Mutated only through apply_op / apply_ledger."""

    def __init__(self) -> None:
        self.tables: dict = {}  # name -> Table
        self.account_seq: dict = {}  # AccountId -> last applied seq
        self.applied_ledger_seq = 0
        self._overlay: Optional[PendingOverlay] = None

    def clone(self) -> "TableStore":
        if self._overlay is not None:
            raise OverlayError("cannot clone with an active overlay")
        out = TableStore()
        out.tables = {name: t.clone() for name, t in self.tables.items()}
        out.account_seq = dict(self.account_seq)
        out.applied_ledger_seq = self.applied_ledger_seq
        return out


@dataclass
class PendingOverlay:
    """Tentative ops applied to ``store`` in place; ``base`` is the snapshot rollback restores."""

    store: TableStore
    base: TableStore
    results: list = field(default_factory=list)  # one ApplyResult per apply_op, rejects included


# ---------------------------------------------------------------------------
# Canonical serialization and state hashing
# ---------------------------------------------------------------------------


_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_ROW_HEAD = struct.Struct(">QI")  # row_id, cell count


def _prefixed(text: str) -> bytes:
    data = text.encode("utf-8")
    return _U32.pack(len(data)) + data


def _encode_content(buf: bytearray, store: TableStore) -> bytearray:
    # Tables sorted by name, grants by grantee, rows by row_id, cells by
    # column name: the byte stream is a pure function of abstract content.
    # Names sort as str, as UTF-8 keeps code-point order.
    try:
        buf += _U32.pack(len(store.tables))
        for name in sorted(store.tables):
            t = store.tables[name]
            buf += _prefixed(name)
            buf += _U32.pack(len(t.columns))
            for col, col_type in t.columns:
                buf += _prefixed(col)
                buf.append(0 if col_type is ColumnType.INT else 1)
            buf += t.owner.id
            buf += _U32.pack(len(t.grants))
            for grantee in sorted(t.grants, key=lambda a: a.id):
                buf += grantee.id
                buf.append(perms_to_mask(t.grants[grantee]))
            buf += _U64.pack(t.next_row_id)
            buf += _U32.pack(len(t.rows))
            # Every row holds exactly its table's columns (apply_op and
            # deserialize_store keep that), so cells follow the sorted names.
            cells = [(col, _prefixed(col), literal_encoder(t._types[col])) for col in sorted(t._types)]
            rows, cache = t.rows, t._encoded
            for row_id in sorted(rows):
                vals = rows[row_id]
                hit = cache.get(row_id)
                if hit is None or hit[0] is not vals:
                    row = bytearray(_ROW_HEAD.pack(row_id, len(cells)))
                    for col, col_bytes, encode in cells:
                        row += col_bytes
                        row += encode(vals[col])
                    hit = cache[row_id] = (vals, bytes(row))
                buf += hit[1]
        buf += _U32.pack(len(store.account_seq))
        for account in sorted(store.account_seq, key=lambda a: a.id):
            buf += account.id
            buf += _U64.pack(store.account_seq[account])
    except struct.error as exc:
        raise ValueError(f"value out of canonical range: {exc}") from None
    return buf


def state_hash(store: TableStore) -> bytes:
    """Canonical content digest; excludes applied_ledger_seq.

    The ledger header that carries this hash also carries the seq, so hashing
    content alone lets an empty ledger leave the state hash unchanged while
    still advancing the applied counter.
    """
    return hash32(_encode_content(bytearray(), store))


def serialize_store(store: TableStore) -> bytes:
    """Full snapshot bytes: applied_ledger_seq plus canonical content."""
    w = Writer()
    w.u64(store.applied_ledger_seq)
    return bytes(_encode_content(bytearray(w.getvalue()), store))


def deserialize_store(data: bytes) -> TableStore:
    r = Reader(data)
    store = TableStore()
    store.applied_ledger_seq = r.u64()
    ntables = r.u32()
    prev_name = None
    for _ in range(ntables):
        name = r.str_()
        prev_name = check_sorted_key(prev_name, name.encode("utf-8"), "tables")
        ncols = r.u32()
        columns = []
        for _ in range(ncols):
            col = r.str_()
            tag = r.u8()
            if tag > 1:
                raise CodecError(f"unknown column type tag {tag}")
            columns.append((col, ColumnType.INT if tag == 0 else ColumnType.TEXT))
        types = dict(columns)
        if len(types) != ncols:
            raise CodecError(f"duplicate column names in table {name!r}")
        # A row holds exactly the table's columns, each of its type, in
        # column-name order; anything else is not a store apply_op can reach.
        cells = [(col, _prefixed(col), types[col] is ColumnType.INT) for col in sorted(types)]
        owner = AccountId(r.raw(ACCOUNT_LEN))
        grants = {}
        prev_grantee = None
        for _ in range(r.u32()):
            grantee = AccountId(r.raw(ACCOUNT_LEN))
            prev_grantee = check_sorted_key(prev_grantee, grantee.id, "grants")
            grants[grantee] = perms_from_mask(r.u8())
        next_row_id = r.u64()
        rows = {}
        prev_rid = None
        for _ in range(r.u32()):
            row_id = r.u64()
            prev_rid = check_sorted_key(
                prev_rid, row_id.to_bytes(8, "big"), "rows"
            )
            if r.u32() != len(cells):
                raise CodecError(f"row {row_id} of {name!r}: cells are not the table's columns")
            vals = {}
            for col, col_bytes, is_int in cells:
                if r.raw(len(col_bytes)) != col_bytes:
                    raise CodecError(f"row {row_id} of {name!r}: cells are not the table's columns")
                lit = decode_literal(r)
                if isinstance(lit, int) is not is_int:
                    raise CodecError(f"row {row_id} of {name!r}: {col} holds a literal of the wrong type")
                vals[col] = lit
            rows[row_id] = vals
        if rows and next_row_id <= next(reversed(rows)):
            # An INSERT would then overwrite a stored row.
            raise CodecError(f"table {name!r}: next_row_id {next_row_id} is not above its last row")
        store.tables[name] = Table(name, tuple(columns), owner, grants, rows, next_row_id)
    prev_acct = None
    for _ in range(r.u32()):
        account = AccountId(r.raw(ACCOUNT_LEN))
        prev_acct = check_sorted_key(prev_acct, account.id, "account_seq")
        store.account_seq[account] = r.u64()
    r.finish()
    return store


# ---------------------------------------------------------------------------
# Applying transactions
# ---------------------------------------------------------------------------


def _check_where(table: Table, where: tuple) -> Optional[str]:
    for col, lit in where:
        col_type = table.column_type(col)
        if col_type is None:
            return REJECT_MISSING_COLUMN
        if not literal_matches(lit, col_type):
            return REJECT_TYPE_MISMATCH
    return None


def _build_index(table: Table, col: str) -> dict:
    rows = table.rows
    rids = sorted(rows)  # linear on a reachable store, whose rows are in order
    values = [rows[rid][col] for rid in rids]
    index = dict(zip(values, rids))  # each value -> its last row_id
    if len(index) < len(rids):  # some values repeat: their buckets are tuples
        groups: dict = {}
        for value, rid in zip(values, rids):
            groups.setdefault(value, []).append(rid)
        index.update((value, tuple(ids)) for value, ids in groups.items() if len(ids) > 1)
    return index


def _bucket_ids(bucket) -> tuple:
    return bucket if type(bucket) is tuple else (bucket,)


def _set_bucket(index: dict, value, rids) -> None:
    # A bucket is a bare row_id or a tuple of two or more; an empty one goes.
    if len(rids) > 1:
        index[value] = tuple(rids)
    elif rids:
        index[value] = rids[0]
    else:
        del index[value]


def _index_add(index: dict, value, rids: tuple) -> None:
    """Put ascending ``rids`` into ``value``'s bucket, keeping it ascending."""
    have = index.get(value)
    if have is not None:
        have = _bucket_ids(have)
        # An INSERT's row_id is above every row, so only a moved row sorts.
        rids = have + rids if have[-1] < rids[0] else sorted(have + rids)
    _set_bucket(index, value, rids)


def _index_drop(index: dict, rows: dict, col: str, rids: list) -> None:
    """Take ``rids`` out of the buckets of their current ``col`` values."""
    gone: dict = {}
    for rid in rids:
        gone.setdefault(rows[rid][col], set()).add(rid)
    for value, drop in gone.items():
        _set_bucket(index, value, [rid for rid in _bucket_ids(index[value]) if rid not in drop])


def _match_rows(table: Table, where: tuple) -> list:
    # Conjunctive equality: candidates from the index of one predicate (the
    # first whose column is indexed, else the first, building its index),
    # filtered by the others. Buckets ascend, so the ids come out in order.
    if not where:
        return sorted(table.rows)
    indexes = table._index
    pick = next((i for i, (col, _) in enumerate(where) if col in indexes), 0)
    col, lit = where[pick]
    index = indexes.get(col)
    if index is None:
        index = indexes[col] = _build_index(table, col)
    bucket = index.get(lit)
    if bucket is None:
        return []
    out = list(_bucket_ids(bucket))
    rows = table.rows
    for col, lit in where[:pick] + where[pick + 1:]:
        out = [rid for rid in out if rows[rid][col] == lit]
    return out


def _apply_checked(store: TableStore, tx: Transaction) -> ApplyResult:
    op = tx.op
    account = tx.account

    if isinstance(op, CreateTable):
        if op.table in store.tables:
            return Rejected(REJECT_TABLE_EXISTS)
        store.tables[op.table] = Table(op.table, op.columns, account)
        return Applied()

    table = store.tables.get(op.table)
    if table is None:
        return Rejected(REJECT_NO_SUCH_TABLE)

    if isinstance(op, DropTable):
        if account != table.owner:
            return Rejected(REJECT_PERMISSION_DENIED)
        store.tables.pop(op.table)
        return Applied()

    if isinstance(op, Grant):
        if account != table.owner:
            return Rejected(REJECT_PERMISSION_DENIED)
        if op.perms:
            table.grants[op.grantee] = frozenset(op.perms)
        else:
            # Empty grant is revocation; dropping the entry keeps the
            # canonical encoding free of dead grantees.
            table.grants.pop(op.grantee, None)
        return Applied()

    if not table.holds_perm(account, _OP_PERM[type(op)]):
        return Rejected(REJECT_PERMISSION_DENIED)

    if isinstance(op, Insert):
        # Values must cover the schema exactly: no missing, no unknown columns.
        if set(op.values) != set(table._types):
            return Rejected(REJECT_MISSING_COLUMN)
        for col, lit in op.values.items():
            if not literal_matches(lit, table.column_type(col)):
                return Rejected(REJECT_TYPE_MISMATCH)
        rid = table.next_row_id
        for col, index in table._index.items():
            _index_add(index, op.values[col], (rid,))
        table.rows[rid] = dict(op.values)
        table.next_row_id += 1
        return Applied(rows_changed=1)

    if isinstance(op, Update):
        for col in op.set_values:
            if table.column_type(col) is None:
                return Rejected(REJECT_MISSING_COLUMN)
        for col, lit in op.set_values.items():
            if not literal_matches(lit, table.column_type(col)):
                return Rejected(REJECT_TYPE_MISMATCH)
        reason = _check_where(table, op.where)
        if reason is not None:
            return Rejected(reason)
        matched = _match_rows(table, op.where)
        rows = table.rows
        for col, index in table._index.items():
            if col in op.set_values:
                value = op.set_values[col]
                moved = [rid for rid in matched if rows[rid][col] != value]
                if moved:
                    _index_drop(index, rows, col, moved)
                    _index_add(index, value, tuple(moved))
        for rid in matched:
            rows[rid] = {**rows[rid], **op.set_values}  # a new dict: clones share the old one
        return Applied(rows_changed=len(matched))

    assert isinstance(op, Delete)
    reason = _check_where(table, op.where)
    if reason is not None:
        return Rejected(reason)
    matched = _match_rows(table, op.where)
    for col, index in table._index.items():
        _index_drop(index, table.rows, col, matched)
    for rid in matched:
        del table.rows[rid]
        table._encoded.pop(rid, None)
    return Applied(rows_changed=len(matched))


def apply_op(store: TableStore, tx: Transaction) -> ApplyResult:
    """Apply one signature-valid transaction; total and deterministic.

    A rejected transaction leaves the store byte-identical, including the
    account sequence (rejects do not consume a seq).
    """
    if tx.seq != store.account_seq.get(tx.account, 0) + 1:
        result = Rejected(REJECT_BAD_SEQ)
    else:
        result = _apply_checked(store, tx)
        if result.ok:
            store.account_seq[tx.account] = tx.seq
    if store._overlay is not None:
        store._overlay.results.append(result)
    return result


def _check_next_ledger(store: TableStore, ledger_seq: int) -> None:
    if ledger_seq != store.applied_ledger_seq + 1:
        raise OutOfOrderLedgerError(
            f"ledger seq {ledger_seq}, store at {store.applied_ledger_seq}"
        )


def apply_ledger(store: TableStore, ledger: Ledger) -> list:
    """Apply a validated ledger's txs in canonical order; returns per-tx results."""
    if store._overlay is not None:
        raise OverlayError("cannot apply a ledger with an active overlay")
    _check_next_ledger(store, ledger.seq)
    results = [apply_op(store, tx) for tx in ledger.txs]
    store.applied_ledger_seq = ledger.seq
    return results


def verify_and_apply(
    store: TableStore,
    anchor_hash: bytes,
    ledgers: Iterable[Ledger],
    check_signatures: bool,
    check_state: bool,
) -> Tuple[ChainCheck, list]:
    """Check a ledger run against its anchor and apply it to ``store``.

    The anchor is ``store`` plus the header hash it sits on: genesis, a
    checkpoint, or the local tip. Returns the first break as
    ``BrokenAt(seq, reason)`` (or ``CHAIN_OK``) and the per-tx results of
    each ledger applied. The store advances in place, also up to a break, so
    a caller that may reject the run passes a scratch copy.
    """
    parent = anchor_hash
    applied = []
    for ledger in ledgers:
        header = ledger.header
        if header.seq != store.applied_ledger_seq + 1:
            return ChainCheck(False, header.seq, lgr.ORDER_GAP), applied
        if header.parent_hash != parent:
            return ChainCheck(False, header.seq, lgr.PARENT_MISMATCH), applied
        if check_signatures and not all(lgr.verify_signature(tx) for tx in ledger.txs):
            return ChainCheck(False, header.seq, lgr.BAD_SIGNATURE), applied
        results = apply_ledger(store, ledger)
        if check_state and header.state_hash != state_hash(store):
            return ChainCheck(False, header.seq, lgr.STATE_MISMATCH), applied
        applied.append(results)
        parent = header.hash()
    return lgr.CHAIN_OK, applied


def replay_from_genesis(
    ledgers: list, check_signatures: bool, check_state: bool
) -> Tuple[ChainCheck, TableStore]:
    """Replay an in-memory chain that starts at genesis onto an empty store."""
    if not ledgers:
        raise ValueError("cannot verify an empty chain")
    store = TableStore()
    genesis = ledgers[0].header
    if genesis.seq != 0:
        return ChainCheck(False, 0, lgr.BAD_GENESIS), store
    if check_state and genesis.state_hash != state_hash(store):
        return ChainCheck(False, 0, lgr.STATE_MISMATCH), store
    check, _ = verify_and_apply(store, genesis.hash(), ledgers[1:], check_signatures, check_state)
    return check, store


def replay_chain(ledgers: list, check_state: bool = True) -> TableStore:
    """Rebuild a store from a chain starting at genesis (the audit path).

    Signatures are not checked: the audit that calls this verifies them.
    """
    check, store = replay_from_genesis(ledgers, False, check_state)
    if not check:
        what = "state hash mismatch" if check.reason == lgr.STATE_MISMATCH else "broken chain"
        raise ValueError(f"chain does not replay, {what}: {check}")
    return store


# ---------------------------------------------------------------------------
# Pending overlay
# ---------------------------------------------------------------------------


def begin_pending(store: TableStore) -> PendingOverlay:
    if store._overlay is not None:
        raise OverlayError("an overlay is already active")
    overlay = PendingOverlay(store, store.clone())
    store._overlay = overlay
    return overlay


def commit_pending(store: TableStore, ledger_seq: int) -> list:
    """Keep the tentative ops as ledger ``ledger_seq``; returns their results like apply_ledger."""
    overlay = store._overlay
    if overlay is None:
        raise OverlayError("no active overlay to commit")
    _check_next_ledger(store, ledger_seq)
    store._overlay = None
    store.applied_ledger_seq = ledger_seq
    return overlay.results


def rollback_pending(store: TableStore) -> None:
    """Drop every tentative op: the store gets the base snapshot's content back."""
    overlay = store._overlay
    if overlay is None:
        raise OverlayError("no active overlay to roll back")
    store.tables = overlay.base.tables
    store.account_seq = overlay.base.account_seq
    store._overlay = None


# ---------------------------------------------------------------------------
# Read path
# ---------------------------------------------------------------------------


def query_select(
    store: TableStore, table: str, where: tuple, as_account: AccountId
) -> list:
    """Rows matching all equality predicates, ordered by row_id.

    A pure read of the content: it may build the index of a WHERE column,
    which is derived data that no encoding or hash sees.
    """
    t = store.tables.get(table)
    if t is None:
        raise QueryError(REJECT_NO_SUCH_TABLE, table)
    if not t.holds_perm(as_account, Perm.SELECT):
        raise QueryError(REJECT_PERMISSION_DENIED, table)
    reason = _check_where(t, tuple(where))
    if reason is not None:
        raise QueryError(reason, table)
    return [Row(rid, dict(t.rows[rid])) for rid in _match_rows(t, tuple(where))]


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Checkpoint:
    ledger_seq: int
    snapshot: bytes
    snapshot_hash: bytes  # content state hash at ledger_seq


CHECKPOINT_FILE_FMT = "ckpt_{seq}.snap"


def make_checkpoint(store: TableStore) -> Checkpoint:
    if store._overlay is not None:
        raise OverlayError("cannot checkpoint with an active overlay")
    return Checkpoint(store.applied_ledger_seq, serialize_store(store), state_hash(store))


def load_snapshot(ledger_seq: int, snapshot: bytes) -> TableStore:
    """Decode snapshot bytes taken at ``ledger_seq``; the content is unchecked."""
    try:
        store = deserialize_store(snapshot)
    except CodecError as exc:
        raise CorruptCheckpointError(f"snapshot does not parse: {exc}") from None
    if store.applied_ledger_seq != ledger_seq:
        raise CorruptCheckpointError(
            f"snapshot applied seq {store.applied_ledger_seq} != checkpoint seq {ledger_seq}"
        )
    return store


def restore_checkpoint(cp: Checkpoint) -> TableStore:
    store = load_snapshot(cp.ledger_seq, cp.snapshot)
    if state_hash(store) != cp.snapshot_hash:
        raise CorruptCheckpointError("snapshot hash mismatch")
    return store


def write_checkpoint_file(data_dir: Path, cp: Checkpoint) -> Path:
    path = Path(data_dir) / CHECKPOINT_FILE_FMT.format(seq=cp.ledger_seq)
    path.write_bytes(cp.snapshot_hash.hex().encode("ascii") + b"\n" + cp.snapshot)
    return path


def read_checkpoint_file(path: Path) -> Checkpoint:
    path = Path(path)
    name = path.name
    if not (name.startswith("ckpt_") and name.endswith(".snap")):
        raise CorruptCheckpointError(f"not a checkpoint file name: {name}")
    try:
        seq = int(name[len("ckpt_"):-len(".snap")])
    except ValueError:
        raise CorruptCheckpointError(f"bad checkpoint seq in name: {name}") from None
    data = path.read_bytes()
    nl = data.find(b"\n")
    if nl != 2 * HASH_LEN:
        raise CorruptCheckpointError("malformed snapshot hash line")
    try:
        digest = bytes.fromhex(data[:nl].decode("ascii"))
    except (UnicodeDecodeError, ValueError):
        raise CorruptCheckpointError("malformed snapshot hash line") from None
    return Checkpoint(seq, data[nl + 1:], digest)


def latest_checkpoint_path(data_dir: Path) -> Optional[Path]:
    best: Optional[Path] = None
    best_seq = -1
    for path in Path(data_dir).glob("ckpt_*.snap"):
        try:
            seq = int(path.name[len("ckpt_"):-len(".snap")])
        except ValueError:
            continue
        if seq > best_seq:
            best, best_seq = path, seq
    return best


# ---------------------------------------------------------------------------
# Data directories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StoredChain:
    """A data directory read back by ``load_data_dir``; the rest is set when ``check`` is ok."""

    check: ChainCheck
    ledgers: dict  # seq -> Ledger for every stored block parsed
    store: TableStore = field(default_factory=TableStore)  # the state at ``tip``
    tip: Optional[LedgerHeader] = None
    replayed: list = field(default_factory=list)  # (Ledger, per-tx results) above the anchor


def load_data_dir(data_dir: Path, check_signatures: bool, check_state: bool) -> StoredChain:
    """Read a data directory the one way restart and audit share.

    Every block is parsed once and storage-checked. The anchor is the latest
    checkpoint, else the empty store at genesis; a stored anchor block must
    carry its state hash. The blocks above the anchor are replayed with the
    given checks, and the tip state is compared in any case. Raises
    ValueError when there is nothing to check against.
    """
    blocks = lgr.read_block_files(data_dir)
    if not blocks:
        raise ValueError(f"no block files under {data_dir}")
    manifest = lgr.read_manifest(data_dir)
    check, ledgers = lgr.parse_stored_chain(blocks, manifest)
    if not check:
        return StoredChain(check, ledgers)
    cp_path = latest_checkpoint_path(data_dir)
    if cp_path is None:
        if 0 not in ledgers:
            return StoredChain(ChainCheck(False, min(ledgers), lgr.MISSING_BLOCK), ledgers)
        store, anchor_seq = TableStore(), 0
        anchor_state = state_hash(store)
    else:
        cp = read_checkpoint_file(cp_path)
        store, anchor_seq, anchor_state = restore_checkpoint(cp), cp.ledger_seq, cp.snapshot_hash
    anchor_hash = manifest.get(anchor_seq)
    if anchor_hash is None:
        raise ValueError(f"manifest lacks checkpoint anchor seq {anchor_seq}")
    head = ledgers.get(anchor_seq)
    if head is None and anchor_seq == 0:
        head = lgr.genesis_ledger(anchor_state)  # a genesis is fixed by its state
    run = [ledgers[seq] for seq in sorted(ledgers) if seq > anchor_seq]
    tip = run[-1] if run else head
    if tip is None:
        raise ValueError(f"cannot reconstruct the tip header from {data_dir}")
    if head is not None and head.header.state_hash != anchor_state:
        return StoredChain(ChainCheck(False, anchor_seq, lgr.STATE_MISMATCH), ledgers)
    check, results = verify_and_apply(store, anchor_hash, run, check_signatures, check_state)
    if check and run and not check_state and tip.header.state_hash != state_hash(store):
        check = ChainCheck(False, tip.seq, lgr.STATE_MISMATCH)
    if not check:
        return StoredChain(check, ledgers)
    return StoredChain(check, ledgers, store, tip.header, list(zip(run, results)))
