"""Independent reference encoder: the oracle for the store's canonical bytes.

Deliberately naive: one ``codec.Writer`` call per field, every map sorted by
its key bytes at the point of use, and literals written out by hand rather
than through the package's literal codec. It encodes whatever cells a row
holds, so tests can also build malformed snapshots with it.

Layout mirrored (independently re-coded):
  content  = u32 ntables, table*  (by name bytes), u32 naccounts, account*
  table    = str name, u32 ncols, (str col, u8 type 0=INT 1=TEXT)* in
             declared order, raw owner, u32 ngrants, (raw grantee, u8 mask)*
             by grantee bytes, u64 next_row_id, u32 nrows, row* by row id
  row      = u64 row_id, u32 ncells, (str col, literal)* by column bytes
  literal  = u8 0, i64  |  u8 1, str
  account  = raw id, u64 last applied seq            (by id bytes)
  snapshot = u64 applied_ledger_seq, content
"""

from __future__ import annotations

import hashlib

from chainlog.codec import Writer
from chainlog.ledger import ColumnType, Perm

_PERM_BITS = {Perm.SELECT: 1, Perm.INSERT: 2, Perm.UPDATE: 4, Perm.DELETE: 8}


def _utf8(text: str) -> bytes:
    return text.encode("utf-8")


def _literal(w: Writer, value) -> None:
    if isinstance(value, int):
        w.u8(0)
        w.i64(value)
    else:
        w.u8(1)
        w.str_(value)


def encode_content(w: Writer, store) -> None:
    w.u32(len(store.tables))
    for name in sorted(store.tables, key=_utf8):
        table = store.tables[name]
        w.str_(name)
        w.u32(len(table.columns))
        for col, col_type in table.columns:
            w.str_(col)
            w.u8(0 if col_type is ColumnType.INT else 1)
        w.raw(table.owner.id)
        w.u32(len(table.grants))
        for grantee in sorted(table.grants, key=lambda a: a.id):
            w.raw(grantee.id)
            w.u8(sum(_PERM_BITS[p] for p in table.grants[grantee]))
        w.u64(table.next_row_id)
        w.u32(len(table.rows))
        for row_id in sorted(table.rows):
            cells = table.rows[row_id]
            w.u64(row_id)
            w.u32(len(cells))
            for col in sorted(cells, key=_utf8):
                w.str_(col)
                _literal(w, cells[col])
    w.u32(len(store.account_seq))
    for acct in sorted(store.account_seq, key=lambda a: a.id):
        w.raw(acct.id)
        w.u64(store.account_seq[acct])


def reference_state_hash(store) -> bytes:
    w = Writer()
    encode_content(w, store)
    return hashlib.sha256(w.getvalue()).digest()


def reference_snapshot(store) -> bytes:
    w = Writer()
    w.u64(store.applied_ledger_seq)
    encode_content(w, store)
    return w.getvalue()
