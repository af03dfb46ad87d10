"""Client middleware: sealing, failover sessions, binlog ingestion, recovery."""

import hashlib
import random

import pytest

from chainlog import sqlvm
from chainlog.consensus import ConsensusConfig, Unl
from chainlog.ledger import (
    AccountId,
    ColumnType,
    CreateTable,
    Delete,
    Insert,
    Update,
    deserialize_ledger,
    serialize_ledger,
    sign_transaction,
)
from chainlog.middleware import (
    ENC_PREFIX,
    BinlogEntry,
    ClientSession,
    DecryptError,
    DrillRecord,
    EncryptionMode,
    PromotionRefused,
    RecoveryCenter,
    RetryPolicy,
    Unavailable,
    aes_siv_decrypt,
    aes_siv_encrypt,
    declare_failure,
    decrypt_payload,
    decrypt_row_values,
    decrypt_value,
    encrypt_operation,
    encrypt_payload,
    encrypt_value,
    ingest_binlog,
    is_encrypted_value,
    measure_recovery,
    parse_binlog_text,
    promote_backup,
    recipient_keypair,
)
from chainlog.netsim import SimNetwork
from chainlog.node import Node, NodeConfig, SelectQuery, submit_via
from chainlog.sqlvm import state_hash

from conftest import (
    account,
    build_cluster,
    chain_occurrences,
    forge_ledger,
    run_until_committed,
)
from reference_executor import RefExecutor, store_abstract

KEY = hashlib.sha256(b"column key").digest()
SEED = hashlib.sha256(b"recipient seed").digest()


def _modes():
    priv, pub = recipient_keypair(SEED)
    return [EncryptionMode.symmetric("k1", KEY), EncryptionMode.asymmetric(pub, priv)]


# ---------------------------------------------------------------------------
# Cipher
# ---------------------------------------------------------------------------


def test_cipher_round_trip_and_determinism():
    ct = aes_siv_encrypt(KEY, b"payload", b"ctx")
    assert aes_siv_decrypt(KEY, ct, b"ctx") == b"payload"
    assert aes_siv_encrypt(KEY, b"payload", b"ctx") == ct  # no nonce by design
    assert aes_siv_encrypt(KEY, b"payload", b"other") != ct
    with pytest.raises(DecryptError):
        aes_siv_decrypt(KEY, ct, b"other")
    wrong = hashlib.sha256(b"wrong").digest()
    with pytest.raises(DecryptError):
        aes_siv_decrypt(wrong, ct, b"ctx")


def test_cipher_rejects_every_single_byte_flip():
    ct = aes_siv_encrypt(KEY, b"integrity matters", b"ctx")
    for i in range(len(ct)):
        mutated = bytearray(ct)
        mutated[i] ^= 0x01
        with pytest.raises(DecryptError):
            aes_siv_decrypt(KEY, bytes(mutated), b"ctx")


def test_cipher_rejects_short_ciphertext():
    with pytest.raises(DecryptError):
        aes_siv_decrypt(KEY, b"\x00" * 4, b"ctx")


# ---------------------------------------------------------------------------
# Payload sealing under the three modes
# ---------------------------------------------------------------------------


def test_mode_none_is_identity():
    mode = EncryptionMode.none()
    assert encrypt_payload(mode, b"clear") == b"clear"
    assert decrypt_payload(mode, b"clear") == b"clear"


@pytest.mark.parametrize("mode", _modes())
def test_payload_round_trip_and_determinism(mode):
    sealed = encrypt_payload(mode, b"secret bytes")
    assert sealed != b"secret bytes"
    assert decrypt_payload(mode, sealed) == b"secret bytes"
    # Equal plaintexts seal identically: sealed equality predicates depend on it.
    assert encrypt_payload(mode, b"secret bytes") == sealed
    assert encrypt_payload(mode, b"other") != sealed


@pytest.mark.parametrize("mode", _modes())
def test_payload_tamper_always_detected(mode):
    sealed = encrypt_payload(mode, b"tamper target")
    for i in range(len(sealed)):
        mutated = bytearray(sealed)
        mutated[i] ^= 0xFF
        with pytest.raises(DecryptError):
            decrypt_payload(mode, bytes(mutated))
    with pytest.raises(DecryptError):
        decrypt_payload(mode, sealed[:-1])  # truncation


def test_payload_mode_and_key_id_must_match():
    sym = EncryptionMode.symmetric("k1", KEY)
    priv, pub = recipient_keypair(SEED)
    asym = EncryptionMode.asymmetric(pub, priv)
    sealed = encrypt_payload(sym, b"x")
    with pytest.raises(DecryptError, match="does not match session mode"):
        decrypt_payload(asym, sealed)
    other = EncryptionMode.symmetric("k2", KEY)
    with pytest.raises(DecryptError, match="key id"):
        decrypt_payload(other, sealed)
    wrong_key = EncryptionMode.symmetric("k1", hashlib.sha256(b"z").digest())
    with pytest.raises(DecryptError):
        decrypt_payload(wrong_key, sealed)


def test_asymmetric_needs_private_half_to_open():
    priv, pub = recipient_keypair(SEED)
    write_only = EncryptionMode.asymmetric(pub)
    sealed = encrypt_payload(write_only, b"x")
    with pytest.raises(DecryptError, match="no private key"):
        decrypt_payload(write_only, sealed)
    assert decrypt_payload(EncryptionMode.asymmetric(pub, priv), sealed) == b"x"


def test_mode_construction_guards():
    with pytest.raises(ValueError, match="32 bytes"):
        EncryptionMode.symmetric("k", b"short")
    with pytest.raises(ValueError, match="32 raw X25519"):
        EncryptionMode.asymmetric(b"short")
    with pytest.raises(ValueError, match="seed must be 32 bytes"):
        recipient_keypair(b"short")
    assert recipient_keypair(SEED) == recipient_keypair(SEED)


def test_payload_property_random_round_trips(rng):
    modes = _modes()
    for _ in range(150):
        mode = rng.choice(modes)
        plaintext = bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 80)))
        sealed = encrypt_payload(mode, plaintext)
        assert decrypt_payload(mode, sealed) == plaintext
        if sealed:
            mutated = bytearray(sealed)
            mutated[rng.randrange(len(sealed))] ^= 1 << rng.randrange(8)
            if bytes(mutated) != sealed:
                with pytest.raises(DecryptError):
                    decrypt_payload(mode, bytes(mutated))


# ---------------------------------------------------------------------------
# Column values
# ---------------------------------------------------------------------------


def test_value_sealing_round_trip():
    mode = EncryptionMode.symmetric("k1", KEY)
    for value in ["hush", "", "quote '' safe", 0, -(2**63), 2**63 - 1]:
        text = encrypt_value(mode, value)
        assert text.startswith(ENC_PREFIX)
        assert is_encrypted_value(text)
        assert decrypt_value(mode, text) == value
    assert not is_encrypted_value("plain")
    assert not is_encrypted_value(42)


def test_value_sealing_rejects_bad_inputs():
    mode = EncryptionMode.symmetric("k1", KEY)
    with pytest.raises(ValueError):
        encrypt_value(mode, True)  # bools are not literals
    with pytest.raises(DecryptError, match="not a sealed value"):
        decrypt_value(mode, "plain")
    with pytest.raises(DecryptError, match="base64"):
        decrypt_value(mode, ENC_PREFIX + "!!!not base64!!!")
    with pytest.raises(DecryptError):
        decrypt_value(mode, ENC_PREFIX + "AAAA")  # valid base64, garbage inside


def test_encrypt_operation_seals_only_listed_columns():
    mode = EncryptionMode.symmetric("k1", KEY)
    ins = encrypt_operation(mode, Insert("t", {"id": 7, "secret": "s"}), ["secret"])
    assert ins.values["id"] == 7
    assert is_encrypted_value(ins.values["secret"])
    upd = encrypt_operation(
        mode, Update("t", (("secret", "s"),), {"secret": "n", "id": 1}), ["secret"]
    )
    assert is_encrypted_value(upd.where[0][1])
    assert is_encrypted_value(upd.set_values["secret"])
    assert upd.set_values["id"] == 1
    dele = encrypt_operation(mode, Delete("t", (("secret", "s"),)), ["secret"])
    assert is_encrypted_value(dele.where[0][1])
    sel = encrypt_operation(mode, SelectQuery("t", (("secret", "s"),)), ["secret"])
    assert is_encrypted_value(sel.where[0][1])
    # Mode none and empty column lists are pass-through.
    op = Insert("t", {"secret": "s"})
    assert encrypt_operation(EncryptionMode.none(), op, ["secret"]) is op
    assert encrypt_operation(mode, op, []) is op


def test_decrypt_row_values_unseals_selectively():
    mode = EncryptionMode.symmetric("k1", KEY)
    row = {"id": 7, "secret": encrypt_value(mode, "s"), "note": "clear"}
    out = decrypt_row_values(mode, row, ["secret"])
    assert out == {"id": 7, "secret": "s", "note": "clear"}
    # A plaintext value in a sealed column passes through untouched.
    assert decrypt_row_values(mode, {"secret": "never sealed"}, ["secret"]) == {
        "secret": "never sealed"
    }


# ---------------------------------------------------------------------------
# Sessions over a live cluster
# ---------------------------------------------------------------------------

VAULT = (("qty", ColumnType.INT), ("secret", ColumnType.TEXT))


def _session(net, nodes, label="client", **kw):
    return ClientSession(net, [n.node_id for n in nodes], account(label), **kw)


def test_session_submit_and_read_your_writes():
    net, nodes = build_cluster(3, seed=101)
    sess = _session(net, nodes)
    sess.submit(CreateTable("vault", VAULT))
    handle = sess.submit(Insert("vault", {"qty": 5, "secret": "plain"}))
    assert handle.status()[0] == "validated"
    assert handle.validated_at_ms is not None
    assert sess.read_floor_seq >= 1
    rows = sess.select(SelectQuery("vault", ()))
    assert [r["qty"] for r in rows] == [5]
    rows = sess.select("SELECT * FROM vault WHERE qty = 5")
    assert rows[0]["secret"] == "plain"
    with pytest.raises(TypeError):
        sess.submit(SelectQuery("vault", ()))
    with pytest.raises(TypeError):
        sess.select("INSERT INTO vault (qty, secret) VALUES (1, 'x')")


def test_session_rotation_orders_live_endpoints_first():
    net, nodes = build_cluster(3, seed=103)
    sess = _session(net, nodes)
    sess.active = "n2"
    assert sess.rotation() == ["n2", "n3", "n1"]
    net.kill("n3")
    assert sess.rotation() == ["n2", "n1", "n3"]
    with pytest.raises(ValueError):
        sess.adopt_endpoints([])
    sess.adopt_endpoints(["n1"])
    assert sess.rotation() == ["n1"]


def test_sealed_columns_end_to_end_with_equality_predicates():
    net, nodes = build_cluster(3, seed=107)
    mode = EncryptionMode.symmetric("k1", KEY)
    sess = _session(net, nodes, encryption=mode, encrypted_columns=["secret"])
    sess.submit(CreateTable("vault", VAULT))
    sess.submit(Insert("vault", {"qty": 1, "secret": "hush"}))
    sess.submit(Insert("vault", {"qty": 2, "secret": "hush"}))
    sess.submit(Insert("vault", {"qty": 3, "secret": "loud"}))
    # Equality on the sealed column works because sealing is deterministic.
    rows = sess.select(SelectQuery("vault", (("secret", "hush"),)))
    assert sorted(r["qty"] for r in rows) == [1, 2]
    assert all(r["secret"] == "hush" for r in rows)
    # The replicated rows hold ciphertext, not plaintext.
    raw = nodes[2].read_query(SelectQuery("vault", ()), sess.account)
    assert all(r.values["secret"].startswith(ENC_PREFIX) for r in raw)
    assert all("hush" not in r.values["secret"] for r in raw)
    # Sealed predicates from a wrong-key session match nothing; a full scan
    # fails loudly at decryption instead of returning garbage.
    wrong = ClientSession(
        net,
        [n.node_id for n in nodes],
        account("client"),
        encryption=EncryptionMode.symmetric("k1", hashlib.sha256(b"nope").digest()),
        encrypted_columns=["secret"],
    )
    assert wrong.select(SelectQuery("vault", (("secret", "hush"),))) == []
    with pytest.raises(DecryptError):
        wrong.select(SelectQuery("vault", ()))
    assert wrong.select(SelectQuery("vault", ()), decrypt=False)[0]["secret"].startswith(
        ENC_PREFIX
    )


def test_session_failover_resubmits_identical_tx_exactly_once():
    net, nodes = build_cluster(5, seed=109)
    sess = _session(net, nodes)
    first = sess.submit(CreateTable("vault", VAULT))
    run_until_committed(net, nodes, [first.tx_id])
    # Sign but do not submit; push it through n1 by hand, then kill n1 before
    # the flood can deliver. The session must walk to a live endpoint and
    # resubmit the identical signed transaction.
    handle = sess.submit(Insert("vault", {"qty": 9, "secret": "x"}), wait=False)
    assert submit_via(net, "n1", handle.tx).ok
    net.kill("n1")
    outcome = sess.await_validated(handle)
    assert outcome.applied
    assert sess.active != "n1"
    live = [n for n in nodes if n.node_id != "n1"]
    run_until_committed(net, live, [handle.tx_id])
    for n in live:
        assert chain_occurrences(n, handle.tx_id) == 1


def test_session_unavailable_when_everything_is_dead():
    net, nodes = build_cluster(3, seed=113)
    sess = _session(net, nodes)
    handle = sess.submit(CreateTable("vault", VAULT), wait=False)
    for n in nodes:
        net.kill(n.node_id)
    with pytest.raises(Unavailable):
        sess.await_validated(handle)
    assert handle.status()[0] == "failed"
    with pytest.raises(Unavailable):  # cannot even derive an account seq
        ClientSession(net, ["n1"], account("other")).submit(
            Insert("vault", {"qty": 1, "secret": "x"})
        )
    with pytest.raises(Unavailable):
        sess.select(SelectQuery("vault", ()))


def test_session_surfaces_chain_rejection_as_failure():
    net, nodes = build_cluster(3, seed=127)
    sess = _session(net, nodes)
    sess.submit(CreateTable("vault", VAULT))
    sess.submit(Insert("vault", {"qty": 1, "secret": "x"}))
    stale = _session(net, nodes, label="client")  # same account
    stale._last_seq = 1  # forces a reuse of the committed seq 2
    with pytest.raises(Unavailable, match="stale_seq"):
        stale.submit(Insert("vault", {"qty": 2, "secret": "y"}))
    handle = next(iter(stale.handles.values()))
    assert handle.status() == ("failed", None)
    # The healthy session is unaffected and continues from its own seq.
    assert sess.submit(Insert("vault", {"qty": 3, "secret": "z"})).status()[0] == (
        "validated"
    )


def test_session_reads_skip_detached_endpoints():
    net, nodes = build_cluster(3, seed=131, detached=("n1",))
    sess = _session(net, nodes)
    sess.submit(CreateTable("vault", VAULT))
    sess.submit(Insert("vault", {"qty": 4, "secret": "s"}))
    assert sess.active == "n1"  # writes went through n1 fine
    rows = sess.select(SelectQuery("vault", ()))
    assert [r["qty"] for r in rows] == [4]
    assert sess.active != "n1"  # the read had to walk past the detached node


# ---------------------------------------------------------------------------
# Binlog ingestion
# ---------------------------------------------------------------------------

BINLOG_OK = (
    "1\t1000\tCREATE TABLE t (qty INT, name TEXT)\n"
    "\n"
    "2\t1500\tINSERT INTO t (qty, name) VALUES (5, 'bolt')\n"
    "7\t2000\tUPDATE t SET qty = 6 WHERE name = 'bolt'\n"
)


def test_parse_binlog_text_happy_and_errors():
    entries, errors = parse_binlog_text(BINLOG_OK, "db-a")
    assert errors == []
    assert [e.seq for e in entries] == [1, 2, 7]
    assert [e.timestamp_ms for e in entries] == [1000, 1500, 2000]
    assert all(e.source_id == "db-a" for e in entries)
    bad = "1\t1000\n" "x\t0\tDROP TABLE t\n" "3\t9\t   \n"
    entries, errors = parse_binlog_text(bad, "db-a")
    assert entries == []
    assert [e.line_no for e in errors] == [1, 2, 3]
    assert "seq<TAB>timestamp_ms<TAB>sql" in errors[0].message
    assert "non-integer" in errors[1].message
    assert errors[2].message == "empty statement"
    assert errors[2].seq == 3


def test_ingest_binlog_signs_in_order():
    entries, _ = parse_binlog_text(BINLOG_OK, "db-a")
    signer = account("service")
    report = ingest_binlog(entries, signer, first_account_seq=3)
    assert report.ok and report.entries_total == 3
    assert [tx.seq for tx in report.transactions] == [3, 4, 5]
    acct = AccountId.from_public_key(signer.public_key)
    assert all(tx.account == acct for tx in report.transactions)
    assert isinstance(report.transactions[0].op, CreateTable)
    assert isinstance(report.transactions[2].op, Update)


def test_ingest_binlog_flags_unusable_entries():
    entries = [
        BinlogEntry("db-a", 1, 0, "CREATE TABLE t (qty INT)"),
        BinlogEntry("db-a", 2, 0, "SELECT * FROM t"),
        BinlogEntry("db-a", 3, 0, "MERGE t"),
        BinlogEntry("db-a", 4, 0, "INSERT INTO t (qty) VALUES (1)"),
    ]
    report = ingest_binlog(entries, account("service"))
    assert not report.ok
    assert [tx.seq for tx in report.transactions] == [1, 2]
    assert [e.line_no for e in report.errors] == [2, 3]
    assert report.errors[0].message == "read-only statement cannot be recorded"
    assert "unsupported statement" in report.errors[1].message


def test_ingest_binlog_rejects_seq_regressions():
    mk = lambda src, seq: BinlogEntry(src, seq, 0, "DROP TABLE t")
    with pytest.raises(ValueError, match=r"source 'db-a': 5 then 5"):
        ingest_binlog([mk("db-a", 5), mk("db-a", 5)], account("s"))
    with pytest.raises(ValueError, match=r"source 'db-a': 5 then 3"):
        ingest_binlog([mk("db-a", 5), mk("db-a", 3)], account("s"))
    # Sources track independently; interleaving is fine.
    report = ingest_binlog(
        [mk("db-a", 5), mk("db-b", 1), mk("db-a", 6)], account("s")
    )
    assert len(report.transactions) == 3


def test_ingested_binlog_replays_like_direct_application(rng):
    lines = ["1\t0\tCREATE TABLE t (qty INT, name TEXT)"]
    for i in range(2, 40):
        if rng.random() < 0.75:
            lines.append(f"{i}\t{i * 10}\tINSERT INTO t (qty, name) VALUES ({i}, 'r{i}')")
        else:
            lines.append(f"{i}\t{i * 10}\tDELETE FROM t WHERE qty = {rng.randrange(2, i + 1)}")
    entries, errors = parse_binlog_text("\n".join(lines), "db-a")
    assert not errors
    report = ingest_binlog(entries, account("service"))
    assert report.ok
    store = sqlvm.TableStore()
    ref = RefExecutor()
    for tx in report.transactions:
        got = sqlvm.apply_op(store, tx)
        want_ok, want_reason = ref.apply(tx.account, tx.seq, tx.op)
        assert got.ok == want_ok
        assert want_ok or got.reason == want_reason
    assert store_abstract(store) == ref.abstract()


# ---------------------------------------------------------------------------
# RecoveryCenter
# ---------------------------------------------------------------------------


def _backup_rig(tmp_path=None, **center_kw):
    cfg = NodeConfig(
        node_id="bk",
        unl=Unl(()),
        consensus=ConsensusConfig(round_interval_ms=100),
        data_dir=tmp_path,
    )
    net = SimNetwork(seed=3, jitter_ms=0)
    node = Node(cfg)
    net.register(node)
    center = RecoveryCenter("dr", node, ship_interval_ms=100, **center_kw)
    net.register(center)
    return net, node, center


def _commit_n(net, node, kp, n, start=1):
    for seq in range(start, start + n):
        op = (
            CreateTable("t", (("qty", ColumnType.INT),))
            if seq == 1
            else Insert("t", {"qty": seq})
        )
        res = node.submit_transaction(sign_transaction(kp, seq, op))
        assert res.ok
        target = node.tip.seq + 1
        run = net.run_until(lambda _n: node.tip.seq >= target, net.now + 5000)
        assert run.satisfied


def test_center_streams_and_tracks_latency():
    net, node, center = _backup_rig()
    kp = account("writer")
    assert center.tick(net.now) is None  # nothing validated yet
    _commit_n(net, node, kp, 5)
    net.run_for(300)
    assert center.last_shipped_seq == node.tip.seq == 5
    assert state_hash(center.store) == node.committed_state_hash()
    assert center.alarm is None
    for seq in range(1, 6):
        lat = center.ship_latency_ms(seq)
        assert lat is not None and 0 <= lat <= center.ship_interval_ms
    assert center.ship_latency_ms(99) is None


def test_center_alarm_freezes_store_and_blocks_promotion():
    corrupt_at = 3

    def hook(seq, blob):
        if seq == corrupt_at:
            raw = bytearray(blob)
            raw[len(raw) // 2] ^= 0xFF
            return bytes(raw)
        return blob

    net, node, center = _backup_rig(transport_hook=hook)
    kp = account("writer")
    _commit_n(net, node, kp, 2)
    net.run_for(300)
    assert center.last_shipped_seq == 2
    frozen = state_hash(center.store)
    _commit_n(net, node, kp, 3, start=3)
    net.run_for(500)
    assert center.alarm is not None
    assert center.last_shipped_seq == 2  # nothing past the bad blob applied
    assert state_hash(center.store) == frozen
    declare_failure(center, net.now)
    with pytest.raises(PromotionRefused, match="integrity alarm"):
        promote_backup(center)


def test_center_detects_replayed_and_unchained_blobs():
    # Serving ledger 1's bytes again in place of 2 must trip the seq check.
    net, node, center = _backup_rig(
        transport_hook=lambda seq, blob: blob if seq != 2 else _FIRST[0]
    )
    kp = account("writer")
    _FIRST.clear()
    _commit_n(net, node, kp, 1)
    net.run_for(200)
    from chainlog.ledger import serialize_ledger

    _FIRST.append(serialize_ledger(node.chain_tail[1]))
    _commit_n(net, node, kp, 2, start=2)
    net.run_for(300)
    assert center.alarm is not None
    assert "expected seq 2" in center.alarm


_FIRST: list = []


def test_center_alarms_on_rehashed_ledger_with_bad_signature():
    # The forged ledger links and replays to the right state: only the
    # signature check can tell.
    def hook(seq, blob):
        if seq != 2:
            return blob
        return serialize_ledger(forge_ledger(deserialize_ledger(blob), bad_signature=True))

    net, node, center = _backup_rig(transport_hook=hook)
    _commit_n(net, node, account("writer"), 2)
    net.run_for(300)
    assert center.last_shipped_seq == 1
    assert center.alarm is not None
    assert "expected seq 2" in center.alarm and "bad_signature" in center.alarm


def test_promotion_guards():
    net, node, center = _backup_rig()
    kp = account("writer")
    _commit_n(net, node, kp, 3)
    net.run_for(300)
    with pytest.raises(PromotionRefused, match="no production failure"):
        promote_backup(center)
    declare_failure(center, net.now)
    assert center.failure_declared and center.failure_time_ms == net.now
    # Disable streaming, let the backup advance: the center now lags the tip.
    center.enabled = False
    _commit_n(net, node, kp, 2, start=4)
    with pytest.raises(PromotionRefused, match="shipped through seq 3"):
        promote_backup(center)
    center.enabled = True
    net.run_for(300)
    promoted = promote_backup(center)
    assert promoted is node and center.promoted
    # A backup that knows about validated work it does not hold also refuses.
    node.known_validated_seq = node.tip.seq + 1
    center.promoted = False
    with pytest.raises(PromotionRefused, match="lags validated seq"):
        promote_backup(center)


def test_measure_recovery_counts_missing_txs():
    net, node, center = _backup_rig()
    kp = account("writer")
    _commit_n(net, node, kp, 3)
    present = list(node.committed_txs)
    drill = DrillRecord(
        kill_time_ms=1000,
        pre_failure_tx_ids=tuple(present),
        first_success_time_ms=3500,
    )
    m = measure_recovery(center, drill)
    assert (m.rpo_lost_tx, m.rto_ms) == (0, 2500)
    ghost = hashlib.sha256(b"never committed").digest()
    m = measure_recovery(
        center, DrillRecord(1000, tuple(present) + (ghost,), 4000)
    )
    assert (m.rpo_lost_tx, m.rto_ms) == (1, 3000)
