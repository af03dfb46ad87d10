"""Deterministic replay: apply semantics, state hashing, overlays, checkpoints."""

import copy
import hashlib
import random

import pytest

from chainlog.codec import CodecError
from chainlog.ledger import (
    AccountId,
    ColumnType,
    CreateTable,
    Delete,
    DropTable,
    Grant,
    Insert,
    Perm,
    Update,
    build_ledger,
    genesis_ledger,
)
from chainlog.sqlvm import (
    Applied,
    CorruptCheckpointError,
    OutOfOrderLedgerError,
    OverlayError,
    QueryError,
    Rejected,
    Table,
    TableStore,
    _match_rows,
    apply_ledger,
    apply_op,
    begin_pending,
    commit_pending,
    deserialize_store,
    latest_checkpoint_path,
    load_snapshot,
    make_checkpoint,
    query_select,
    read_checkpoint_file,
    replay_chain,
    restore_checkpoint,
    rollback_pending,
    serialize_store,
    state_hash,
    write_checkpoint_file,
)
from chainlog.signing import account_keypair

from conftest import account, make_tx, random_workload
from reference_encoding import reference_snapshot, reference_state_hash
from reference_executor import RefExecutor, replay_reference, store_abstract

ALICE = account("alice")
BOB = account("bob")
ALICE_ID = AccountId.from_public_key(ALICE.public_key)
BOB_ID = AccountId.from_public_key(BOB.public_key)

SCHEMA = (("qty", ColumnType.INT), ("name", ColumnType.TEXT))


def _seed_store():
    """Store with one table owned by alice and one row, alice at seq 2."""
    store = TableStore()
    assert apply_op(store, make_tx(ALICE, 1, CreateTable("inv", SCHEMA))).ok
    assert apply_op(store, make_tx(ALICE, 2, Insert("inv", {"qty": 5, "name": "bolt"}))).ok
    return store


def test_empty_store_hash_golden():
    # Content encoding of an empty store is two zero u32 counts; the digest
    # is recomputed here from first principles.
    assert state_hash(TableStore()) == hashlib.sha256(bytes(8)).digest()


def test_state_hash_ignores_applied_seq():
    a, b = TableStore(), TableStore()
    b.applied_ledger_seq = 7
    assert state_hash(a) == state_hash(b)
    assert serialize_store(a) != serialize_store(b)


def test_create_and_insert():
    store = _seed_store()
    t = store.tables["inv"]
    assert t.owner == ALICE_ID
    assert t.rows == {1: {"qty": 5, "name": "bolt"}}
    assert t.next_row_id == 2
    assert store.account_seq[ALICE_ID] == 2


def test_reject_reasons_by_case():
    store = _seed_store()
    cases = [
        (ALICE, 9, Insert("inv", {"qty": 1, "name": "x"}), "bad_seq"),
        (ALICE, 3, CreateTable("inv", SCHEMA), "table_exists"),
        (ALICE, 3, Insert("ghost", {"qty": 1}), "no_such_table"),
        (ALICE, 3, Insert("inv", {"qty": 1}), "missing_column"),
        (ALICE, 3, Insert("inv", {"qty": "one", "name": "x"}), "type_mismatch"),
        (BOB, 1, Insert("inv", {"qty": 1, "name": "x"}), "permission_denied"),
        (BOB, 1, DropTable("inv"), "permission_denied"),
        (BOB, 1, Grant("inv", BOB_ID, frozenset({Perm.SELECT})), "permission_denied"),
        (ALICE, 3, Update("inv", (("ghost", 1),), {"qty": 2}), "missing_column"),
        (ALICE, 3, Update("inv", (("qty", "x"),), {"qty": 2}), "type_mismatch"),
        (ALICE, 3, Update("inv", (), {"qty": "x"}), "type_mismatch"),
        (ALICE, 3, Update("inv", (), {"ghost": 1}), "missing_column"),
        (ALICE, 3, Delete("inv", (("nope", 1),)), "missing_column"),
    ]
    for kp, seq, op, want in cases:
        result = apply_op(store, make_tx(kp, seq, op))
        assert result == Rejected(want), f"{op} -> {result}, wanted {want}"


def test_reject_is_byte_identical_noop():
    store = _seed_store()
    before = serialize_store(store)
    for kp, seq, op in [
        (ALICE, 5, Insert("inv", {"qty": 1, "name": "x"})),
        (BOB, 1, DropTable("inv")),
        (ALICE, 3, Insert("inv", {"qty": "bad", "name": "x"})),
    ]:
        assert not apply_op(store, make_tx(kp, seq, op)).ok
        assert serialize_store(store) == before


def test_rejects_do_not_consume_seq():
    store = _seed_store()
    assert apply_op(store, make_tx(ALICE, 3, Insert("ghost", {"a": 1}))) == Rejected(
        "no_such_table"
    )
    # Seq 3 is still the next expected seq.
    assert apply_op(store, make_tx(ALICE, 3, Insert("inv", {"qty": 1, "name": "y"}))).ok


def test_update_and_delete_semantics():
    store = _seed_store()
    assert apply_op(
        store, make_tx(ALICE, 3, Insert("inv", {"qty": 5, "name": "nut"}))
    ).ok
    r = apply_op(store, make_tx(ALICE, 4, Update("inv", (("qty", 5),), {"qty": 9})))
    assert r == Applied(rows_changed=2)
    assert [row["qty"] for row in store.tables["inv"].rows.values()] == [9, 9]
    r = apply_op(store, make_tx(ALICE, 5, Delete("inv", (("name", "nut"),))))
    assert r == Applied(rows_changed=1)
    assert set(store.tables["inv"].rows) == {1}
    # Empty where matches everything.
    r = apply_op(store, make_tx(ALICE, 6, Delete("inv", ())))
    assert r == Applied(rows_changed=1)
    assert store.tables["inv"].rows == {}


def test_row_ids_never_reused():
    store = _seed_store()
    assert apply_op(store, make_tx(ALICE, 3, Delete("inv", ()))).ok
    assert apply_op(store, make_tx(ALICE, 4, Insert("inv", {"qty": 1, "name": "z"}))).ok
    assert set(store.tables["inv"].rows) == {2}
    assert store.tables["inv"].next_row_id == 3


def test_grant_paths():
    store = _seed_store()
    # Bob cannot insert until granted.
    assert not apply_op(store, make_tx(BOB, 1, Insert("inv", {"qty": 1, "name": "b"}))).ok
    assert apply_op(
        store, make_tx(ALICE, 3, Grant("inv", BOB_ID, frozenset({Perm.INSERT})))
    ).ok
    assert apply_op(store, make_tx(BOB, 1, Insert("inv", {"qty": 1, "name": "b"}))).ok
    # Insert grant does not imply update.
    assert not apply_op(store, make_tx(BOB, 2, Update("inv", (), {"qty": 0}))).ok
    # Empty grant revokes.
    assert apply_op(store, make_tx(ALICE, 4, Grant("inv", BOB_ID, frozenset()))).ok
    assert not apply_op(store, make_tx(BOB, 2, Insert("inv", {"qty": 2, "name": "c"}))).ok


def test_drop_table_clears_state():
    store = _seed_store()
    h_before = state_hash(store)
    assert apply_op(store, make_tx(ALICE, 3, DropTable("inv"))).ok
    assert "inv" not in store.tables
    assert state_hash(store) != h_before
    # Recreating starts fresh (row ids restart with the new table).
    assert apply_op(store, make_tx(ALICE, 4, CreateTable("inv", SCHEMA))).ok
    assert store.tables["inv"].next_row_id == 1


def test_store_serialization_round_trip():
    store = _seed_store()
    blob = serialize_store(store)
    back = deserialize_store(blob)
    assert state_hash(back) == state_hash(store)
    assert serialize_store(back) == blob
    assert store_abstract(back) == store_abstract(store)
    with pytest.raises(CodecError):
        deserialize_store(blob + b"\x00")


def test_store_deserialize_rejects_unsorted():
    store = TableStore()
    assert apply_op(store, make_tx(ALICE, 1, CreateTable("b", SCHEMA))).ok
    assert apply_op(store, make_tx(ALICE, 2, CreateTable("a", SCHEMA))).ok
    blob = bytearray(serialize_store(store))
    # Swap the two single-byte table names in the canonical stream.
    ia, ib = blob.index(b"a", 8), blob.index(b"b", 8)
    blob[ia], blob[ib] = blob[ib], blob[ia]
    with pytest.raises(CodecError, match="ascending"):
        deserialize_store(bytes(blob))


def test_state_hash_is_content_function(rng):
    # Same abstract content reached along different op orders hashes equal.
    a, b = TableStore(), TableStore()
    ins1 = make_tx(ALICE, 2, Insert("inv", {"qty": 1, "name": "x"}))
    ins2 = make_tx(ALICE, 3, Insert("inv", {"qty": 2, "name": "y"}))
    create = make_tx(ALICE, 1, CreateTable("inv", SCHEMA))
    for tx in (create, ins1, ins2):
        assert apply_op(a, tx).ok
    for tx in (create, ins1, ins2):
        assert apply_op(b, tx).ok
    assert state_hash(a) == state_hash(b)
    # Different content: differs.
    assert apply_op(b, make_tx(ALICE, 4, Delete("inv", ()))).ok
    assert state_hash(a) != state_hash(b)


def test_apply_matches_reference_executor(rng):
    # Equivalence against the independent naive executor over 30 seeded
    # workloads of 60 ops, comparing outcome and abstract state each step.
    for trial in range(30):
        workload = random_workload(seed=1000 + trial, count=60)
        store = TableStore()
        ref = RefExecutor()
        for kp, seq, op in workload:
            acct = AccountId.from_public_key(kp.public_key)
            result = apply_op(store, make_tx(kp, seq, op))
            ok, reason = ref.apply(acct, seq, op)
            assert result.ok == ok, f"trial {trial}: {op} vm={result} ref={reason}"
            if not ok:
                assert result.reason == reason
            assert store_abstract(store) == ref.abstract()


def test_apply_ledger_and_replay_chain():
    kp = account_keypair("replayer")
    store = TableStore()
    chain = [genesis_ledger(state_hash(store))]
    txs1 = [
        make_tx(kp, 1, CreateTable("t", SCHEMA)),
        make_tx(kp, 2, Insert("t", {"qty": 1, "name": "a"})),
    ]
    txs2 = [
        make_tx(kp, 3, Insert("t", {"qty": 2, "name": "b"})),
        make_tx(kp, 4, Insert("ghost", {"qty": 0})),  # deterministic reject
    ]
    for txs in (txs1, txs2):
        probe = store.clone()
        for tx in sorted(txs, key=lambda t: t.sort_key()):
            apply_op(probe, tx)
        ledger = build_ledger(chain[-1].header, txs, state_hash(probe), len(chain))
        results = apply_ledger(store, ledger)
        assert state_hash(store) == ledger.header.state_hash
        chain.append(ledger)
    assert [r.ok for r in results] == [True, False]
    replayed = replay_chain(chain)
    assert state_hash(replayed) == state_hash(store)
    assert replayed.applied_ledger_seq == 2
    # Reference executor agrees with the replay.
    ref = replay_reference(txs1 + txs2)
    assert store_abstract(replayed) == ref.abstract()


def test_apply_ledger_rejects_out_of_order():
    store = TableStore()
    genesis = genesis_ledger(state_hash(store))
    ledger2 = build_ledger(
        build_ledger(genesis.header, [], state_hash(store), 1).header,
        [],
        state_hash(store),
        2,
    )
    with pytest.raises(OutOfOrderLedgerError):
        apply_ledger(store, ledger2)


def test_replay_chain_checks_state_hashes():
    store = TableStore()
    genesis = genesis_ledger(state_hash(store))
    bad = build_ledger(genesis.header, [], b"\x09" * 32, 1)
    with pytest.raises(ValueError, match="state hash mismatch"):
        replay_chain([genesis, bad])
    assert state_hash(replay_chain([genesis, bad], check_state=False)) == state_hash(store)


def test_overlay_rollback_restores_exact_state():
    store = _seed_store()
    h0 = state_hash(store)
    blob0 = serialize_store(store)
    begin_pending(store)
    assert apply_op(store, make_tx(ALICE, 3, Insert("inv", {"qty": 7, "name": "n"}))).ok
    assert apply_op(store, make_tx(ALICE, 4, DropTable("inv"))).ok
    assert apply_op(store, make_tx(BOB, 1, CreateTable("inv", SCHEMA))).ok
    assert state_hash(store) != h0
    rollback_pending(store)
    assert state_hash(store) == h0
    assert serialize_store(store) == blob0
    assert store._overlay is None


def test_overlay_commit_returns_results_and_advances_seq():
    store = _seed_store()
    begin_pending(store)
    tx_ok = make_tx(ALICE, 3, Insert("inv", {"qty": 7, "name": "n"}))
    tx_bad = make_tx(ALICE, 9, Insert("inv", {"qty": 7, "name": "n"}))
    assert apply_op(store, tx_ok).ok
    assert not apply_op(store, tx_bad).ok
    with pytest.raises(OutOfOrderLedgerError):
        commit_pending(store, 2)
    assert commit_pending(store, 1) == [Applied(rows_changed=1), Rejected("bad_seq")]
    assert store.applied_ledger_seq == 1
    assert store._overlay is None
    assert store.tables["inv"].rows[2] == {"qty": 7, "name": "n"}


def test_overlay_commit_equals_direct_application():
    direct = _seed_store()
    overlaid = _seed_store()
    txs = [
        make_tx(ALICE, 3, Insert("inv", {"qty": 3, "name": "m"})),
        make_tx(ALICE, 4, Update("inv", (("qty", 3),), {"qty": 4})),
    ]
    ledger = build_ledger(genesis_ledger(state_hash(direct)).header, txs, bytes(32), 1)
    begin_pending(overlaid)
    for tx in txs:
        assert apply_op(overlaid, tx).ok
    assert commit_pending(overlaid, 1) == apply_ledger(direct, ledger)
    assert serialize_store(overlaid) == serialize_store(direct)


def test_overlay_misuse_raises():
    store = TableStore()
    with pytest.raises(OverlayError):
        commit_pending(store, 1)
    with pytest.raises(OverlayError):
        rollback_pending(store)
    begin_pending(store)
    with pytest.raises(OverlayError):
        begin_pending(store)
    with pytest.raises(OverlayError):
        store.clone()
    with pytest.raises(OverlayError):
        make_checkpoint(store)
    rollback_pending(store)


def test_overlay_rollback_property(rng):
    # Random workloads: begin, apply everything, roll back, bytes restored.
    for trial in range(20):
        store = TableStore()
        prefix = random_workload(seed=50 + trial, count=20)
        for kp, seq, op in prefix:
            apply_op(store, make_tx(kp, seq, op))
        base = serialize_store(store)
        begin_pending(store)
        for kp, seq, op in random_workload(seed=900 + trial, count=25):
            apply_op(store, make_tx(kp, seq, op))
        rollback_pending(store)
        assert serialize_store(store) == base


def test_query_select():
    store = _seed_store()
    apply_op(store, make_tx(ALICE, 3, Insert("inv", {"qty": 5, "name": "nut"})))
    apply_op(store, make_tx(ALICE, 4, Insert("inv", {"qty": 6, "name": "nut"})))
    rows = query_select(store, "inv", (("qty", 5),), ALICE_ID)
    assert [(r.row_id, r.values["name"]) for r in rows] == [(1, "bolt"), (2, "nut")]
    assert query_select(store, "inv", (("qty", 5), ("name", "nut")), ALICE_ID)[0].row_id == 2
    assert len(query_select(store, "inv", (), ALICE_ID)) == 3
    assert query_select(store, "inv", (("qty", 99),), ALICE_ID) == []


def test_query_select_errors():
    store = _seed_store()
    with pytest.raises(QueryError) as e:
        query_select(store, "ghost", (), ALICE_ID)
    assert e.value.reason == "no_such_table"
    with pytest.raises(QueryError) as e:
        query_select(store, "inv", (), BOB_ID)
    assert e.value.reason == "permission_denied"
    with pytest.raises(QueryError) as e:
        query_select(store, "inv", (("ghost", 1),), ALICE_ID)
    assert e.value.reason == "missing_column"
    with pytest.raises(QueryError) as e:
        query_select(store, "inv", (("qty", "five"),), ALICE_ID)
    assert e.value.reason == "type_mismatch"
    # SELECT grant opens the read path.
    apply_op(store, make_tx(ALICE, 3, Grant("inv", BOB_ID, frozenset({Perm.SELECT}))))
    assert len(query_select(store, "inv", (), BOB_ID)) == 1


def test_query_select_matches_reference():
    # Single- and multi-column predicates on tables rebuilt with their rows
    # out of row_id order (no apply or rollback path leaves them so): results
    # still come in ascending row_id order and match the reference executor.
    reordered = 0
    for trial in range(10):
        workload = random_workload(seed=300 + trial, count=40)
        store = TableStore()
        ref = RefExecutor()
        for kp, seq, op in workload:
            apply_op(store, make_tx(kp, seq, op))
            ref.apply(AccountId.from_public_key(kp.public_key), seq, op)
        for name, t in sorted(store.tables.items()):
            rows = dict(reversed(list(t.rows.items())))
            store.tables[name] = Table(name, t.columns, t.owner, t.grants, rows, t.next_row_id)
            reordered += list(rows) != sorted(rows)
        pick = random.Random(trial)
        for name, t in sorted(store.tables.items()):
            wheres = [()]
            for rid, cells in sorted(t.rows.items()):
                cols = sorted(cells)
                one = pick.choice(cols)
                wheres.append(((one, cells[one]),))
                wheres.append(tuple((c, cells[c]) for c in pick.sample(cols, len(cols))))
            col, col_type = t.columns[0]
            wheres.append(((col, 10_000 if col_type is ColumnType.INT else "absent"),))
            for where in wheres:
                got = query_select(store, name, where, t.owner)
                ids = [r.row_id for r in got]
                assert ids == sorted(ids)
                assert [(r.row_id, r.values) for r in got] == ref.select(t.owner.hex, name, where)
    assert reordered  # some table did hold its rows out of row_id order


def test_checkpoint_round_trip(tmp_path):
    store = _seed_store()
    store.applied_ledger_seq = 3
    cp = make_checkpoint(store)
    assert cp.ledger_seq == 3
    path = write_checkpoint_file(tmp_path, cp)
    assert path.name == "ckpt_3.snap"
    back = restore_checkpoint(read_checkpoint_file(path))
    assert serialize_store(back) == serialize_store(store)


def test_checkpoint_corruption_detected(tmp_path):
    store = _seed_store()
    store.applied_ledger_seq = 2
    path = write_checkpoint_file(tmp_path, make_checkpoint(store))
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptCheckpointError):
        restore_checkpoint(read_checkpoint_file(path))


def test_checkpoint_hash_line_tamper_detected(tmp_path):
    store = _seed_store()
    path = write_checkpoint_file(tmp_path, make_checkpoint(store))
    raw = path.read_bytes()
    flipped = ("f" if chr(raw[0]) != "f" else "0").encode() + raw[1:]
    path.write_bytes(flipped)
    with pytest.raises(CorruptCheckpointError):
        restore_checkpoint(read_checkpoint_file(path))


def test_latest_checkpoint_path(tmp_path):
    assert latest_checkpoint_path(tmp_path) is None
    store = TableStore()
    for seq in (2, 10, 7):
        store.applied_ledger_seq = seq
        write_checkpoint_file(tmp_path, make_checkpoint(store))
    assert latest_checkpoint_path(tmp_path).name == "ckpt_10.snap"


def test_checkpoint_resume_equals_full_replay():
    # Resuming from a mid-chain checkpoint must land on the same state as
    # replaying the whole chain.
    kp = account_keypair("resumer")
    store = TableStore()
    chain = [genesis_ledger(state_hash(store))]
    ops = [CreateTable("t", SCHEMA)] + [
        Insert("t", {"qty": i, "name": f"r{i}"}) for i in range(1, 8)
    ]
    cp = None
    for i, op in enumerate(ops):
        probe = store.clone()
        tx = make_tx(kp, i + 1, op)
        apply_op(probe, tx)
        ledger = build_ledger(chain[-1].header, [tx], state_hash(probe), len(chain))
        apply_ledger(store, ledger)
        chain.append(ledger)
        if ledger.seq == 4:
            cp = make_checkpoint(store)
    resumed = restore_checkpoint(cp)
    for ledger in chain[5:]:
        apply_ledger(resumed, ledger)
    full = replay_chain(chain)
    assert serialize_store(resumed) == serialize_store(full)
    assert state_hash(resumed) == chain[-1].header.state_hash


# ---------------------------------------------------------------------------
# Canonical state bytes
# ---------------------------------------------------------------------------

I64_MIN, I64_MAX = -(1 << 63), (1 << 63) - 1
GOLDEN_STATE_HASH = "7d7a749923cccaa6bf936a17aa97bb463af6cbc784f53c22f1f41c1ec9a1605a"
GOLDEN_SNAPSHOT_SHA256 = "18c621bf1d6d7b0716531f2b22701e0c897c6a47c2821451724521e7b1afe9e2"


def _golden_store():
    """Two tables, grants (one revoked), deleted rows, non-ASCII text, i64 bounds."""
    store = TableStore()
    carol = AccountId.from_public_key(account("carol").public_key)
    steps = [
        (ALICE, CreateTable("inv", (("qty", ColumnType.INT), ("name", ColumnType.TEXT), ("note", ColumnType.TEXT)))),
        (ALICE, Insert("inv", {"qty": I64_MIN, "name": "bolt", "note": "größe"})),
        (ALICE, Insert("inv", {"qty": I64_MAX, "name": "nut", "note": "日本語"})),
        (ALICE, Insert("inv", {"qty": 0, "name": "", "note": "🦀 crab"})),
        (ALICE, Insert("inv", {"qty": -1, "name": "washer", "note": "x"})),
        (ALICE, Grant("inv", BOB_ID, frozenset({Perm.SELECT, Perm.INSERT}))),
        (ALICE, Grant("inv", carol, frozenset(Perm))),
        (ALICE, Grant("inv", carol, frozenset())),
        (BOB, Insert("inv", {"qty": 7, "name": "ñandú", "note": "bob"})),
        (ALICE, Delete("inv", (("name", "nut"),))),
        (ALICE, Update("inv", (("qty", -1),), {"note": "Ωmega"})),
        (BOB, CreateTable("zeta", (("k", ColumnType.INT), ("a_text", ColumnType.TEXT)))),
        (BOB, Insert("zeta", {"k": 1, "a_text": "é"})),
        (BOB, Insert("zeta", {"k": 2, "a_text": "e"})),
        (BOB, Insert("zeta", {"k": 3, "a_text": "ë"})),
        (BOB, Delete("zeta", (("k", 1),))),
        (BOB, Grant("zeta", ALICE_ID, frozenset({Perm.DELETE}))),
    ]
    seqs = {}
    for kp, op in steps:
        seqs[kp.public_key] = seqs.get(kp.public_key, 0) + 1
        assert apply_op(store, make_tx(kp, seqs[kp.public_key], op)).ok, op
    store.applied_ledger_seq = 41
    return store


def test_state_bytes_golden():
    # Digests pinned from the original Writer-based encoder; any drift in the
    # canonical layout changes every chain's state hashes.
    store = _golden_store()
    assert state_hash(store).hex() == GOLDEN_STATE_HASH
    assert hashlib.sha256(serialize_store(store)).hexdigest() == GOLDEN_SNAPSHOT_SHA256
    assert state_hash(deserialize_store(serialize_store(store))) == state_hash(store)


def test_state_bytes_match_reference_encoder():
    # Seeded workloads, also after an overlay rollback: bytes equal the naive
    # encoder's at every step.
    for trial in range(15):
        store = TableStore()
        for kp, seq, op in random_workload(seed=700 + trial, count=40):
            apply_op(store, make_tx(kp, seq, op))
            assert serialize_store(store) == reference_snapshot(store)
        assert state_hash(store) == reference_state_hash(store)
        begin_pending(store)
        for kp, seq, op in random_workload(seed=700 + trial, count=60)[40:]:
            apply_op(store, make_tx(kp, seq, op))
        rollback_pending(store)
        store.applied_ledger_seq = trial
        assert serialize_store(store) == reference_snapshot(store)
        assert state_hash(store) == reference_state_hash(store)


def test_state_encoding_range_checks_still_raise():
    store = _seed_store()
    store.tables["inv"].rows[1]["qty"] = 1 << 63
    with pytest.raises(ValueError):
        state_hash(store)
    store.tables["inv"].rows[1]["qty"] = 5
    store.tables["inv"].next_row_id = 1 << 64
    with pytest.raises(ValueError):
        serialize_store(store)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda t: t.rows[1].pop("qty"),  # a column missing
        lambda t: t.rows[1].update(v="a"),  # a cell that is no column
        lambda t: t.rows[1].update(qty="five"),  # TEXT in an INT column
        lambda t: t.rows[1].update(name=5),  # INT in a TEXT column
        lambda t: setattr(t, "columns", t.columns + (("qty", ColumnType.INT),)),
    ],
    ids=["missing", "extra", "text_in_int", "int_in_text", "duplicate_column"],
)
def test_snapshot_rows_must_hold_exactly_typed_columns(mutate):
    # Such a row would make a later Update/SELECT on the column raise instead
    # of giving a deterministic Rejected; no apply_op can produce one.
    store = _seed_store()
    store.applied_ledger_seq = 3
    mutate(store.tables["inv"])
    blob = reference_snapshot(store)
    with pytest.raises(CodecError):
        deserialize_store(blob)
    with pytest.raises(CorruptCheckpointError):
        load_snapshot(3, blob)


@pytest.mark.parametrize("next_row_id", [0, 1], ids=["zero", "last_row"])
def test_snapshot_next_row_id_must_be_above_every_row(next_row_id):
    # Loading such a snapshot would let the next INSERT overwrite row 1.
    store = _seed_store()
    store.applied_ledger_seq = 3
    store.tables["inv"].next_row_id = next_row_id
    blob = reference_snapshot(store)
    with pytest.raises(CodecError):
        deserialize_store(blob)
    with pytest.raises(CorruptCheckpointError):
        load_snapshot(3, blob)


# ---------------------------------------------------------------------------
# Shared rows and the row encoding cache
# ---------------------------------------------------------------------------


def _isolation_store():
    """alice's table with two rows and a SELECT grant to bob; alice at seq 4."""
    store = _seed_store()
    assert apply_op(store, make_tx(ALICE, 3, Insert("inv", {"qty": 6, "name": "nut"}))).ok
    assert apply_op(store, make_tx(ALICE, 4, Grant("inv", BOB_ID, frozenset({Perm.SELECT})))).ok
    return store


@pytest.mark.parametrize("mutated", ["clone", "source"])
@pytest.mark.parametrize(
    "signer, seq, op",
    [
        (BOB, 1, CreateTable("other", SCHEMA)),
        (ALICE, 5, DropTable("inv")),
        (ALICE, 5, Grant("inv", BOB_ID, frozenset({Perm.SELECT, Perm.UPDATE}))),
        (ALICE, 5, Grant("inv", BOB_ID, frozenset())),
        (ALICE, 5, Insert("inv", {"qty": 8, "name": "pin"})),
        (ALICE, 5, Update("inv", (("qty", 5),), {"name": "screw"})),
        (ALICE, 5, Delete("inv", (("qty", 5),))),
    ],
    ids=["create", "drop", "grant", "revoke", "insert", "update", "delete"],
)
def test_clone_isolation(mutated, signer, seq, op):
    # Clones share row dicts and the row cache; an op on one side must leave
    # the other's bytes as they were, by the cache and by the naive encoder.
    source = _isolation_store()
    state_hash(source)  # fill the shared cache first
    copy = source.clone()
    target, other = (copy, source) if mutated == "clone" else (source, copy)
    before = serialize_store(other)
    assert apply_op(target, make_tx(signer, seq, op)).ok
    assert serialize_store(target) == reference_snapshot(target) != before
    assert serialize_store(other) == reference_snapshot(other) == before


def test_row_cache_stays_coherent_across_clones_and_overlays():
    # Two lineages walk one op list at their own pace, cloning, overlaying
    # and hashing at random; they share row caches through every clone.
    for trial in range(10):
        pick = random.Random(trial)
        txs = [make_tx(kp, seq, op) for kp, seq, op in random_workload(seed=1100 + trial, count=150)]
        lineages = [[TableStore(), 0], [TableStore(), 0]]
        for _ in range(60):
            me, you = pick.sample(lineages, 2)
            store, at = me
            roll = pick.random()
            if roll < 0.2:
                you[0], you[1] = store.clone(), at
            elif roll < 0.7:
                overlay = roll < 0.5
                if overlay:
                    begin_pending(store)
                step = pick.randint(1, 6)
                for tx in txs[at:at + step]:
                    apply_op(store, tx)
                if overlay:
                    assert state_hash(store) == reference_state_hash(store)
                    if pick.random() < 0.5:
                        rollback_pending(store)
                        step = 0
                    else:
                        commit_pending(store, store.applied_ledger_seq + 1)
                me[1] = min(at + step, len(txs))
            else:
                assert serialize_store(store) == reference_snapshot(store)
            for each, _ in lineages:
                assert state_hash(each) == reference_state_hash(each)


# ---------------------------------------------------------------------------
# The WHERE index against a full scan
# ---------------------------------------------------------------------------

KV = (("k", ColumnType.INT), ("tag", ColumnType.TEXT))
TAGS = ("a", "b", "c")


class _Kv:
    """A store holding alice's ``kv`` table (``k`` unique, ``tag`` one of
    TAGS), its reference executor, and every ``k`` value ever written."""

    def __init__(self, store, ref, seqs, keys):
        self.store, self.ref, self.seqs, self.keys = store, ref, seqs, keys

    @classmethod
    def fresh(cls, rows):
        kv = cls(TableStore(), RefExecutor(), {}, set())
        kv.apply(CreateTable("kv", KV))
        for k in range(rows):
            kv.apply(Insert("kv", {"k": k, "tag": TAGS[k % len(TAGS)]}))
        return kv

    def clone(self):
        return _Kv(self.store.clone(), copy.deepcopy(self.ref), dict(self.seqs), set(self.keys))

    def apply(self, op, signer=ALICE, skip=0):
        seq = self.seqs.get(signer, 0) + 1 + skip
        result = apply_op(self.store, make_tx(signer, seq, op))
        ok, reason = self.ref.apply(AccountId.from_public_key(signer.public_key), seq, op)
        assert (result.ok, getattr(result, "reason", None)) == (ok, reason), op
        if ok:
            self.seqs[signer] = seq
            cells = op.values if isinstance(op, Insert) else getattr(op, "set_values", {})
            self.keys.update(v for c, v in cells.items() if c == "k")
        return result

    def check(self):
        # Every WHERE on either column, alone, paired and empty, gives the
        # ids a full scan gives, ascending, and query_select the reference rows.
        t = self.store.tables["kv"]
        keys = sorted(self.keys | {-1})
        tags = TAGS + ("zz",)
        wheres = [(), (("k", keys[0]), ("k", keys[-1]))]
        wheres += [(("k", k),) for k in keys] + [(("tag", tag),) for tag in tags]
        wheres += [(("tag", tags[k % 4]), ("k", k)) for k in keys]
        wheres += [(("k", k), ("tag", tags[k % 3])) for k in keys]
        for where in wheres:
            scan = [rid for rid in sorted(t.rows) if all(t.rows[rid][c] == v for c, v in where)]
            assert _match_rows(t, where) == scan, where
            got = query_select(self.store, "kv", where, ALICE_ID)
            assert [r.row_id for r in got] == scan, where
            assert [(r.row_id, r.values) for r in got] == self.ref.select(ALICE_ID.hex, "kv", where), where


def _random_op(pick, kv, kinds):
    rows = kv.store.tables["kv"].rows
    live = sorted(vals["k"] for vals in rows.values())
    dead = sorted(kv.keys - set(live))
    fresh = max(kv.keys) + 1
    kind = pick.choice(kinds) if live else "insert"
    k, tag, other = pick.choice(live or [fresh]), pick.choice(TAGS), pick.choice(TAGS)
    if kind == "insert":
        return Insert("kv", {"k": fresh, "tag": tag})
    if kind == "rewrite_key":  # the WHERE column itself, at times to its own value
        return Update("kv", (("k", k),), {"k": pick.choice((fresh, fresh, k))})
    if kind == "set_tag":  # one row, or every row of one tag
        where = pick.choice(((("k", k),), (("tag", other),)))
        return Update("kv", where, {"tag": tag})
    if kind == "delete":
        return Delete("kv", (("k", k),))
    if kind == "reinsert":
        return Insert("kv", {"k": pick.choice(dead), "tag": tag}) if dead else Delete("kv", (("k", k),))
    assert kind == "multi"
    return pick.choice((
        Update("kv", (("tag", other), ("k", k)), {"tag": tag, "k": fresh}),
        Update("kv", (("k", k), ("tag", other)), {"tag": tag}),
        Delete("kv", (("tag", other), ("k", k))),
        Update("kv", (), {"tag": tag}),
        Delete("kv", ()) if pick.random() < 0.2 else Update("kv", (), {"k": fresh}),
    ))


ALL_KINDS = ("insert", "rewrite_key", "set_tag", "delete", "reinsert", "multi")
INDEX_CASES = {
    "insert": ("insert",),
    "update_where_column": ("insert", "rewrite_key"),
    "update_other_column": ("insert", "set_tag"),
    "delete_then_reinsert": ("insert", "delete", "reinsert"),
    "multi_and_empty_where": ("insert", "multi"),
    "sibling_clones": ALL_KINDS,
    "rows_out_of_order": ALL_KINDS,
}


@pytest.mark.parametrize("case", sorted(INDEX_CASES))
def test_where_index_matches_full_scan(case):
    # Random op sequences keep every index a table holds: after each step
    # every WHERE equals a full scan and the reference executor.
    for trial in range(3):
        pick = random.Random(f"{case}:{trial}")
        base = _Kv.fresh(12)
        if case == "rows_out_of_order":
            t = base.store.tables["kv"]
            rows = dict(reversed(list(t.rows.items())))
            base.store.tables["kv"] = Table("kv", t.columns, t.owner, t.grants, rows, t.next_row_id)
        lineages = [base]
        if case == "sibling_clones":
            base.check()  # build both indexes, then let two clones diverge
            lineages = [base.clone(), base.clone()]
            before = serialize_store(base.store)
        for _ in range(25):
            for kv in lineages:
                kv.apply(_random_op(pick, kv, INDEX_CASES[case]))
                kv.check()
        if case == "sibling_clones":
            base.check()
            assert serialize_store(base.store) == before
            assert len({serialize_store(kv.store) for kv in lineages}) == 2


@pytest.mark.parametrize("kind", ["insert", "update", "delete"])
@pytest.mark.parametrize("reason", ["bad_seq", "missing_column", "type_mismatch", "permission_denied"])
def test_rejected_op_leaves_where_index_intact(reason, kind):
    # A reject after the indexes are built changes no index: every later
    # WHERE, also after more accepted ops, still equals the scan.
    ops = {
        "insert": Insert("kv", {"k": 3, "tag": "b"}),
        "update": Update("kv", (("k", 3),), {"k": 50, "tag": "a"}),
        "delete": Delete("kv", (("k", 3),)),
    }
    bad = {
        ("missing_column", "insert"): Insert("kv", {"k": 50}),
        ("missing_column", "update"): Update("kv", (("k", 3), ("nope", 1)), {"k": 50}),
        ("missing_column", "delete"): Delete("kv", (("k", 3), ("nope", 1))),
        ("type_mismatch", "insert"): Insert("kv", {"k": "50", "tag": "a"}),
        ("type_mismatch", "update"): Update("kv", (("k", 3),), {"k": "50"}),
        ("type_mismatch", "delete"): Delete("kv", (("k", 3), ("tag", 1))),
    }
    kv = _Kv.fresh(12)
    kv.check()
    op = bad.get((reason, kind), ops[kind])
    signer = BOB if reason == "permission_denied" else ALICE
    before = serialize_store(kv.store)
    assert kv.apply(op, signer, skip=reason == "bad_seq") == Rejected(reason)
    assert serialize_store(kv.store) == before
    kv.check()
    pick = random.Random(f"{reason}:{kind}")
    for _ in range(5):
        kv.apply(_random_op(pick, kv, ALL_KINDS))
        kv.check()


def test_query_select_may_build_an_index_but_leaves_the_content():
    kv = _Kv.fresh(12)
    store, t = kv.store, kv.store.tables["kv"]
    assert not t._index
    before = serialize_store(store), state_hash(store)
    got = query_select(store, "kv", (("tag", "b"), ("k", 4)), ALICE_ID)
    assert [(r.row_id, r.values) for r in got] == [(5, {"k": 4, "tag": "b"})]
    assert set(t._index) == {"tag"}  # the first predicate's column; "k" filters
    assert (serialize_store(store), state_hash(store)) == before
    # Loading a store builds no index, however the source was read.
    kv.check()
    for loaded in (deserialize_store(serialize_store(store)), restore_checkpoint(make_checkpoint(store))):
        assert not loaded.tables["kv"]._index
        assert state_hash(loaded) == state_hash(store)
