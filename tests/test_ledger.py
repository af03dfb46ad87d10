"""Transactions, headers, chain verification, and block-file storage."""

import pytest

from chainlog import signing
from chainlog.codec import CodecError, Writer
from chainlog.consensus import Unl
from chainlog.ledger import (
    ACCOUNT_LEN,
    CHAIN_OK,
    ZERO_HASH,
    AccountId,
    ColumnType,
    CreateTable,
    Delete,
    DropTable,
    Grant,
    Insert,
    InvalidTransactionError,
    Ledger,
    LedgerHeader,
    Perm,
    Transaction,
    Update,
    append_manifest,
    block_file_bytes,
    build_ledger,
    canonical_serialize,
    check_literal,
    compute_tx_set_hash,
    deserialize_ledger,
    deserialize_transaction,
    genesis_ledger,
    hash32,
    load_chain,
    parse_block_file,
    perms_from_mask,
    perms_to_mask,
    read_block_files,
    read_manifest,
    serialize_ledger,
    serialize_transaction,
    sign_transaction,
    verify_signature,
    verify_stored_chain,
    verify_stored_dir,
    write_block_file,
)
from chainlog.netsim import pack_message, unpack_message
from chainlog.node import Node, NodeConfig
from chainlog.signing import SCHEME_ED25519, account_keypair
from chainlog.sqlvm import replay_from_genesis

from conftest import make_tx, random_tx

OPS = [
    CreateTable("t", (("a", ColumnType.INT), ("b", ColumnType.TEXT))),
    DropTable("t"),
    Insert("t", {"a": 1, "b": "x"}),
    Update("t", (("a", 1),), {"b": "y"}),
    Delete("t", (("b", "y"),)),
    Grant("t", AccountId(b"\x01" * ACCOUNT_LEN), frozenset({Perm.SELECT, Perm.INSERT})),
]


def test_account_id_from_public_key():
    kp = account_keypair("alice")
    acct = AccountId.from_public_key(kp.public_key)
    assert acct.id == hash32(kp.public_key)[:ACCOUNT_LEN]
    assert AccountId.from_hex(acct.hex) == acct


def test_check_literal_rules():
    check_literal(0)
    check_literal(-(2**63))
    check_literal(2**63 - 1)
    check_literal("x" * 1024)
    with pytest.raises(ValueError):
        check_literal(2**63)
    with pytest.raises(ValueError):
        check_literal(True)  # bool is not an INT literal
    with pytest.raises(ValueError):
        check_literal("é" * 1024)  # 2 bytes each in UTF-8
    with pytest.raises(ValueError):
        check_literal(1.5)


def test_perm_mask_round_trip():
    for mask in range(16):
        assert perms_to_mask(perms_from_mask(mask)) == mask


@pytest.mark.parametrize("op", OPS, ids=lambda op: type(op).__name__)
def test_transaction_round_trip(op):
    kp = account_keypair("alice")
    tx = sign_transaction(kp, 1, op)
    back = deserialize_transaction(serialize_transaction(tx))
    assert back == tx
    assert back.tx_id == tx.tx_id
    assert verify_signature(back)


def test_transaction_ids_distinct_across_ops():
    kp = account_keypair("alice")
    ids = {sign_transaction(kp, i + 1, op).tx_id for i, op in enumerate(OPS)}
    assert len(ids) == len(OPS)


def test_signature_covers_tx_id():
    kp = account_keypair("alice")
    tx = sign_transaction(kp, 1, OPS[2])
    forged = Transaction(tx.account, 2, tx.op, tx.public_key, tx.signature)
    assert not verify_signature(forged)


def test_foreign_key_fails_account_binding():
    # Valid signature from a key that does not hash to the account.
    alice, bob = account_keypair("alice"), account_keypair("bob")
    tx = sign_transaction(alice, 1, OPS[2])
    forged = Transaction(tx.account, 1, tx.op, bob.public_key, bob.sign(tx.tx_id))
    assert not verify_signature(forged)


def test_transaction_blob_strictness():
    kp = account_keypair("alice")
    blob = serialize_transaction(sign_transaction(kp, 1, OPS[2]))
    with pytest.raises(CodecError):
        deserialize_transaction(blob + b"\x00")
    with pytest.raises(CodecError):
        deserialize_transaction(blob[:-1])


def test_insert_values_serialized_sorted():
    kp = account_keypair("alice")
    a = sign_transaction(kp, 1, Insert("t", {"a": 1, "b": "x"}))
    b = sign_transaction(kp, 1, Insert("t", {"b": "x", "a": 1}))
    assert serialize_transaction(a) == serialize_transaction(b)


def test_tx_set_hash_matches_manual_recomputation():
    # Independent oracle: concatenate canonical tx encodings in sort order
    # behind a count, then hash.
    kp_a, kp_b = account_keypair("alice"), account_keypair("bob")
    txs = [
        sign_transaction(kp_b, 1, OPS[2]),
        sign_transaction(kp_a, 2, OPS[1]),
        sign_transaction(kp_a, 1, OPS[0]),
    ]
    ordered = sorted(txs, key=lambda t: t.sort_key())
    w = Writer()
    w.u32(len(ordered))
    for tx in ordered:
        w.raw(canonical_serialize(tx))
    assert compute_tx_set_hash(txs) == hash32(w.getvalue())


def test_empty_tx_set_hash_is_stable():
    assert compute_tx_set_hash([]) == compute_tx_set_hash(())


def test_header_hash_changes_with_every_field():
    base = LedgerHeader(3, b"\x01" * 32, b"\x02" * 32, b"\x03" * 32, 9)
    variants = [
        LedgerHeader(4, base.parent_hash, base.tx_set_hash, base.state_hash, 9),
        LedgerHeader(3, b"\x09" * 32, base.tx_set_hash, base.state_hash, 9),
        LedgerHeader(3, base.parent_hash, b"\x09" * 32, base.state_hash, 9),
        LedgerHeader(3, base.parent_hash, base.tx_set_hash, b"\x09" * 32, 9),
        LedgerHeader(3, base.parent_hash, base.tx_set_hash, base.state_hash, 8),
    ]
    hashes = {base.hash()} | {v.hash() for v in variants}
    assert len(hashes) == 6


def _chain(n_blocks=5, txs_per_block=4, state_hash=b"\x05" * 32):
    """A small valid chain; non-genesis blocks hold txs_per_block txs each."""
    kp = account_keypair("chain-owner")
    chain = [genesis_ledger(state_hash)]
    seq = 1
    for _ in range(n_blocks - 1):
        txs = []
        for _ in range(txs_per_block):
            txs.append(make_tx(kp, seq, Insert("t", {"a": seq})))
            seq += 1
        chain.append(build_ledger(chain[-1].header, txs, state_hash, len(chain) * 10))
    return chain


def _store(tmp_path, chain):
    for ledger in chain:
        write_block_file(tmp_path, ledger)
        append_manifest(tmp_path, ledger.seq, ledger.header.hash())


def test_build_ledger_rejects_bad_signature():
    kp = account_keypair("alice")
    tx = sign_transaction(kp, 1, OPS[2])
    bad = Transaction(tx.account, 1, tx.op, tx.public_key, bytes(32))
    with pytest.raises(InvalidTransactionError):
        build_ledger(genesis_ledger(ZERO_HASH).header, [bad], ZERO_HASH, 1)


def test_build_ledger_rejects_duplicate_tx():
    kp = account_keypair("alice")
    tx = sign_transaction(kp, 1, OPS[2])
    with pytest.raises(InvalidTransactionError):
        build_ledger(genesis_ledger(ZERO_HASH).header, [tx, tx], ZERO_HASH, 1)


def test_ledger_orders_txs_canonically():
    for ledger in _chain()[1:]:
        keys = [t.sort_key() for t in ledger.txs]
        assert keys == sorted(keys)


def test_ledger_round_trip():
    for ledger in _chain():
        back = deserialize_ledger(serialize_ledger(ledger))
        assert back.header == ledger.header
        assert back.txs == ledger.txs
    with pytest.raises(CodecError):
        deserialize_ledger(serialize_ledger(_chain()[-1]) + b"!")


def _verify_chain(ledgers: list):
    """Structural check of an in-memory chain: links and seqs, no state or signatures."""
    check, _ = replay_from_genesis(ledgers, check_signatures=False, check_state=False)
    return check


def test_verify_chain_accepts_valid():
    assert _verify_chain(_chain()) == CHAIN_OK
    assert _verify_chain([genesis_ledger(ZERO_HASH)]).ok


def test_verify_chain_flags_bad_genesis():
    check = _verify_chain(_chain()[1:])
    assert not check.ok
    assert (check.index, check.reason) == (0, "bad_genesis")


def test_verify_chain_flags_gap():
    chain = _chain()
    del chain[2]
    check = _verify_chain(chain)
    # The break is reported at the seq of the ledger that does not follow.
    assert (check.index, check.reason) == (3, "order_gap")


def test_verify_chain_flags_parent_mismatch():
    chain = _chain()
    h = chain[2].header
    forged = LedgerHeader(h.seq, b"\x00" * 32, h.tx_set_hash, h.state_hash, h.close_time)
    chain[2] = Ledger(forged, chain[2].txs)
    check = _verify_chain(chain)
    assert (check.index, check.reason) == (2, "parent_mismatch")


def test_tx_set_tamper_rejected_at_construction():
    chain = _chain()
    with pytest.raises(ValueError):
        Ledger(chain[2].header, chain[3].txs)


def test_stored_chain_round_trip(tmp_path):
    chain = _chain()
    _store(tmp_path, chain)
    assert verify_stored_dir(tmp_path) == CHAIN_OK
    loaded = load_chain(tmp_path)
    assert [l.header.hash() for l in loaded] == [l.header.hash() for l in chain]


def test_manifest_pins_every_header(tmp_path):
    chain = _chain()
    _store(tmp_path, chain)
    manifest = read_manifest(tmp_path)
    assert sorted(manifest) == [l.seq for l in chain]
    for ledger in chain:
        assert manifest[ledger.seq] == ledger.header.hash()


def test_stored_chain_single_byte_flips_all_detected(tmp_path):
    # Every single-byte corruption of every block file must break verification.
    chain = _chain(n_blocks=3, txs_per_block=2)
    _store(tmp_path, chain)
    manifest = read_manifest(tmp_path)
    blocks = read_block_files(tmp_path)
    assert verify_stored_chain(blocks, manifest) == CHAIN_OK
    for seq in list(blocks):
        original = blocks[seq]
        for i in range(len(original)):
            mutated = bytearray(original)
            mutated[i] ^= 0xFF
            blocks[seq] = bytes(mutated)
            assert not verify_stored_chain(blocks, manifest).ok, (
                f"flip at block {seq} offset {i} went undetected"
            )
        blocks[seq] = original


def test_stored_chain_tolerates_one_pruned_gap(tmp_path):
    chain = _chain(n_blocks=6)
    _store(tmp_path, chain)
    manifest = read_manifest(tmp_path)
    blocks = read_block_files(tmp_path)
    # Prune 1..3: genesis plus a manifest-anchored suffix remains.
    for seq in (1, 2, 3):
        del blocks[seq]
    assert verify_stored_chain(blocks, manifest) == CHAIN_OK
    # A second gap is not acceptable.
    del blocks[5]  # blocks now {0, 4}; still one gap
    assert verify_stored_chain(blocks, manifest) == CHAIN_OK
    blocks = read_block_files(tmp_path)
    del blocks[1], blocks[2], blocks[4]  # gaps 0->3 and 3->5
    check = verify_stored_chain(blocks, manifest)
    assert (check.ok, check.reason) == (False, "order_gap")


def test_stored_chain_requires_genesis_file(tmp_path):
    chain = _chain()
    _store(tmp_path, chain)
    blocks = read_block_files(tmp_path)
    del blocks[0]
    check = verify_stored_chain(blocks, read_manifest(tmp_path))
    assert (check.ok, check.reason) == (False, "missing_block")


def test_stored_chain_detects_unpinned_rewrite(tmp_path):
    # Rewriting the tip block self-consistently still trips the manifest pin.
    chain = _chain()
    _store(tmp_path, chain)
    tip = chain[-1]
    forged_header = LedgerHeader(
        tip.seq,
        tip.header.parent_hash,
        compute_tx_set_hash([]),
        tip.header.state_hash,
        tip.header.close_time + 1,
    )
    blocks = read_block_files(tmp_path)
    blocks[tip.seq] = block_file_bytes(Ledger(forged_header, ()))
    check = verify_stored_chain(blocks, read_manifest(tmp_path))
    assert check.reason == "manifest_mismatch"


def test_parse_block_file_rejects_trailing():
    ledger = genesis_ledger(ZERO_HASH)
    blob = block_file_bytes(ledger)
    assert parse_block_file(blob).header == ledger.header
    with pytest.raises(CodecError):
        parse_block_file(blob + b"\x00")


def test_random_transaction_round_trip_property(rng):
    # 300 randomized op shapes survive serialize/deserialize verbatim.
    kp = account_keypair("prop")
    grantee = AccountId.from_public_key(account_keypair("grantee").public_key)
    for trial in range(300):
        kind = rng.randrange(6)
        name = f"t{rng.randrange(5)}"
        if kind == 0:
            cols = tuple(
                (f"c{i}", rng.choice(list(ColumnType)))
                for i in range(rng.randint(1, 4))
            )
            op = CreateTable(name, cols)
        elif kind == 1:
            op = DropTable(name)
        elif kind == 2:
            op = Insert(name, {f"c{i}": rng.randrange(100) for i in range(rng.randint(1, 3))})
        elif kind == 3:
            op = Update(name, (("c0", rng.randrange(9)),), {"c1": "v"})
        elif kind == 4:
            op = Delete(name, ())
        else:
            perms = frozenset(p for p in Perm if rng.random() < 0.5) or frozenset({Perm.SELECT})
            op = Grant(name, grantee, perms)
        tx = sign_transaction(kp, trial + 1, op)
        assert deserialize_transaction(serialize_transaction(tx)) == tx


def test_decoded_tx_id_hashes_the_decoded_body(rng):
    # Decoding takes tx_id from the body bytes it read; over random txs and
    # byte flips that still decode, that equals the hash of the encoded body.
    keypairs = [account_keypair("slice"), account_keypair("slice", SCHEME_ED25519)]
    decoded = 0
    for trial in range(120):
        tx = random_tx(rng, keypairs, trial % 6)
        blob = serialize_transaction(tx)
        assert deserialize_transaction(blob).tx_id == tx.tx_id == hash32(tx.body_bytes())
        for _ in range(10):
            mutated = bytearray(blob)
            mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
            try:
                back = deserialize_transaction(bytes(mutated))
            except CodecError:
                continue
            decoded += 1
            assert back.tx_id == hash32(back.body_bytes())
    assert decoded >= 300


def test_tx_id_golden():
    # Pinned ids, one per signature scheme: built and decoded txs keep them.
    insert = sign_transaction(account_keypair("golden"), 7, Insert("inv", {"qty": 5, "name": "bolt"}))
    update = sign_transaction(
        account_keypair("golden", SCHEME_ED25519), 3, Update("inv", (("qty", 5),), {"name": "nut"})
    )
    for tx, golden in (
        (insert, "223e97c4be7a1e81585af3d19311998b42a35958708f236a35f1315d2d26b5b3"),
        (update, "b50210990f4b25eb1cd2e0fd4a389bcfcba182d827d5b463917ccc114a3e826d"),
    ):
        assert tx.tx_id.hex() == golden
        assert deserialize_transaction(serialize_transaction(tx)).tx_id.hex() == golden


def test_mutated_ledger_blob_never_passes_silently(rng):
    # Random single-byte flips anywhere in a serialized ledger must surface
    # as a parse error or a verification failure when spliced into the chain.
    chain = _chain()
    blob = serialize_ledger(chain[2])
    for _ in range(300):
        i = rng.randrange(len(blob))
        mutated = bytearray(blob)
        mutated[i] ^= 1 << rng.randrange(8)
        try:
            back = deserialize_ledger(bytes(mutated))
        except (CodecError, ValueError):
            continue
        altered = list(chain)
        altered[2] = back
        assert not _verify_chain(altered).ok


# ---------------------------------------------------------------------------
# Byte goldens for the kept encodings
# ---------------------------------------------------------------------------

# Wire frames of one tx per operation kind, and the block file of a 3-tx
# ledger, pinned as hex: a tx keeps its encoding and every encoder joins it,
# so these bytes must not move.
GOLDEN_TX_FRAMES = {
    "CreateTable": (
        "0000008500a762c1d4e1592b6d8d0fcce7c3c7c9761ac88f7300000000000000010000000005706172747300"
        "0000020000000371747900000000046e616d65010000002101b38203791b2e094730403908cab9d697ffd03d"
        "8b0a4841e8cc4e13d37bf603130000002079782992ef138a4e79afb5c255c811ce243aea22b3f58c322edb63"
        "87288e3776"
    ),
    "Insert": (
        "0000009800a762c1d4e1592b6d8d0fcce7c3c7c9761ac88f7300000000000000020200000005706172747300"
        "000002000000046e616d650100000007626f6c7420c3a90000000371747900fffffffffffffff90000002101"
        "b38203791b2e094730403908cab9d697ffd03d8b0a4841e8cc4e13d37bf6031300000020f90282063f323538"
        "0cc0fa8c51a733ef1d5f82428af38cda7b7c07ca2d695f94"
    ),
    "Update": (
        "0000009c00a762c1d4e1592b6d8d0fcce7c3c7c9761ac88f7300000000000000030300000005706172747300"
        "000001000000046e616d650100000007626f6c7420c3a9000000010000000371747900000001000000000000"
        "00002101b38203791b2e094730403908cab9d697ffd03d8b0a4841e8cc4e13d37bf6031300000020791c682b"
        "3fae85e008f4f9dd69b1de39b5a4d45388b3966923b1bc8dc8598dbf"
    ),
    "Delete": (
        "0000009400a762c1d4e1592b6d8d0fcce7c3c7c9761ac88f7300000000000000040400000005706172747300"
        "00000200000003717479000000000000000003000000046e616d6501000000036e75740000002101b3820379"
        "1b2e094730403908cab9d697ffd03d8b0a4841e8cc4e13d37bf6031300000020dcf03201ff056f5b246e415e"
        "becdce773debab984108a41e52f46a42ee0ffb0c"
    ),
    "Grant": (
        "0000008500a762c1d4e1592b6d8d0fcce7c3c7c9761ac88f7300000000000000050500000005706172747316"
        "8faa9060eca45010b540713d629ed71ed007ee050000002101b38203791b2e094730403908cab9d697ffd03d"
        "8b0a4841e8cc4e13d37bf603130000002098b08798873b8b04033b8798abdf2f3835faea80fd5fc2c048e0ca"
        "04638b7e3d"
    ),
    "DropTable": (
        "0000007000a762c1d4e1592b6d8d0fcce7c3c7c9761ac88f7300000000000000060100000005706172747300"
        "00002101b38203791b2e094730403908cab9d697ffd03d8b0a4841e8cc4e13d37bf6031300000020e40b9447"
        "616cdc4457edbe70864abf1f34d41e3d91c5aa071d873ab1d03194f7"
    ),
}
GOLDEN_BLOCK_FILE = (
    "0000022a000000000000000179efdca9c52b948ebecc6dfc51f5b7aa97f8cbdf0cf17822ab0110669b3ef02b"
    "b6a197f6d3ed40065daa23969a723aa61113550e068fb7fcfecacdfdaaf0fe2f222222222222222222222222"
    "222222222222222222222222222222222222222200000000000003ed00000003a762c1d4e1592b6d8d0fcce7"
    "c3c7c9761ac88f73000000000000000100000000057061727473000000020000000371747900000000046e61"
    "6d65010000002101b38203791b2e094730403908cab9d697ffd03d8b0a4841e8cc4e13d37bf6031300000020"
    "79782992ef138a4e79afb5c255c811ce243aea22b3f58c322edb6387288e3776a762c1d4e1592b6d8d0fcce7"
    "c3c7c9761ac88f7300000000000000020200000005706172747300000002000000046e616d65010000000762"
    "6f6c7420c3a90000000371747900fffffffffffffff90000002101b38203791b2e094730403908cab9d697ff"
    "d03d8b0a4841e8cc4e13d37bf6031300000020f90282063f3235380cc0fa8c51a733ef1d5f82428af38cda7b"
    "7c07ca2d695f94a762c1d4e1592b6d8d0fcce7c3c7c9761ac88f730000000000000003030000000570617274"
    "7300000001000000046e616d650100000007626f6c7420c3a900000001000000037174790000000100000000"
    "000000002101b38203791b2e094730403908cab9d697ffd03d8b0a4841e8cc4e13d37bf6031300000020791c"
    "682b3fae85e008f4f9dd69b1de39b5a4d45388b3966923b1bc8dc8598dbf"
)


def _golden_txs():
    owner, other = account_keypair("golden-owner"), account_keypair("golden-other")
    ops = (
        CreateTable("parts", (("qty", ColumnType.INT), ("name", ColumnType.TEXT))),
        Insert("parts", {"qty": -7, "name": "bolt \u00e9"}),
        Update("parts", (("name", "bolt \u00e9"),), {"qty": 1 << 40}),
        Delete("parts", (("qty", 3), ("name", "nut"))),
        Grant("parts", AccountId.from_public_key(other.public_key), frozenset({Perm.SELECT, Perm.UPDATE})),
        DropTable("parts"),
    )
    return [sign_transaction(owner, seq, op) for seq, op in enumerate(ops, 1)]


def _golden_ledger():
    parent = genesis_ledger(b"\x11" * 32, close_time=5).header
    return build_ledger(parent, _golden_txs()[:3], b"\x22" * 32, 1005)


def test_tx_frame_and_block_file_goldens():
    txs = _golden_txs()
    assert [type(tx.op).__name__ for tx in txs] == list(GOLDEN_TX_FRAMES)
    for tx, golden in zip(txs, GOLDEN_TX_FRAMES.values()):
        frame = pack_message(tx)
        assert frame.hex() == golden
        decoded = unpack_message(frame)
        assert decoded == tx and pack_message(decoded) == frame
        assert decoded.encoded == tx.encoded == serialize_transaction(tx) == frame[5:]
        fresh = Transaction(decoded.account, decoded.seq, decoded.op, decoded.public_key, decoded.signature)
        assert fresh.encoded == decoded.encoded
    block = block_file_bytes(_golden_ledger())
    assert block.hex() == GOLDEN_BLOCK_FILE
    parsed = parse_block_file(block)
    assert block_file_bytes(parsed) == block
    for tx in parsed.txs:
        assert pack_message(tx).hex() == GOLDEN_TX_FRAMES[type(tx.op).__name__]


def test_signature_verdict_belongs_to_the_tx_object(monkeypatch):
    # verify_signature keeps its verdict on the tx object. A frame that
    # differs from a verified one only in a signature byte decodes to a new
    # object with the same tx_id, which is checked afresh and rejected.
    frame = pack_message(_golden_txs()[1])
    tx = unpack_message(frame)
    calls = []
    real_verify = signing.verify

    def verify(*args):
        calls.append(args[1])
        return real_verify(*args)

    monkeypatch.setattr(signing, "verify", verify)
    assert verify_signature(tx) and verify_signature(tx)
    assert calls == [tx.tx_id]
    forged_frame = frame[:-1] + bytes([frame[-1] ^ 1])
    forged = unpack_message(forged_frame)
    assert forged.tx_id == tx.tx_id and forged.signature != tx.signature
    assert not verify_signature(forged) and not verify_signature(forged)
    assert calls == [tx.tx_id, tx.tx_id]
    solo = Node(NodeConfig(node_id="solo", unl=Unl(())))
    assert solo.on_message(0, "client", forged_frame) == []
    assert solo.submit_transaction(unpack_message(forged_frame)).reason == "bad_signature"
    assert solo.submit_transaction(tx).status == "accepted"
    assert len(calls) == 4  # the fresh forged object is checked; the verified tx is not
