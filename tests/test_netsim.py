"""Simulated network: wire framing, determinism, faults, and scheduling."""

import pytest

from chainlog import signing
from chainlog.codec import CodecError, Reader, Writer, check_sorted_key
from chainlog.consensus import Proposal, sign_proposal, validator_keypair
from chainlog.ledger import HASH_LEN, Insert
from chainlog.netsim import (
    MAX_TX_REQUEST_IDS,
    MSG_INFO,
    MSG_TX_REQUEST,
    MSG_TX_SUBMIT,
    Envelope,
    Info,
    LedgerData,
    LedgerRequest,
    SimNetwork,
    TxRequest,
    decode_wire,
    encode_wire,
    pack_message,
    unpack_message,
)

from conftest import account, make_tx, random_tx


class Recorder:
    """Minimal sim node: logs deliveries, optionally echoes to a peer."""

    def __init__(self, node_id, interval=None, reply_to=None):
        self.node_id = node_id
        self.timer_interval_ms = interval
        self.reply_to = reply_to
        self.seen = []  # (now, sender, data)
        self.ticks = []
        self.revived_at = None

    def on_message(self, now, sender, data):
        self.seen.append((now, sender, data))
        if self.reply_to:
            return [(self.reply_to, b"echo:" + data)]
        return []

    def on_timer(self, now):
        self.ticks.append(now)
        return []

    def on_revive(self, now):
        self.revived_at = now
        return []


# ---------------------------------------------------------------------------
# Wire framing
# ---------------------------------------------------------------------------


def test_wire_frame_round_trip():
    frame = encode_wire(MSG_INFO, b"abc")
    assert decode_wire(frame) == (MSG_INFO, b"abc")
    assert frame[:4] == (4).to_bytes(4, "big")  # tag byte + 3 payload bytes


def test_wire_frame_strictness():
    frame = encode_wire(MSG_TX_SUBMIT, b"xy")
    with pytest.raises(CodecError):
        decode_wire(frame + b"\x00")
    with pytest.raises(CodecError):
        decode_wire(frame[:-1])
    with pytest.raises(CodecError):
        decode_wire(b"\x00\x00\x00\x01\x63")  # unknown tag 0x63
    with pytest.raises(ValueError):
        encode_wire(99, b"")


@pytest.mark.parametrize(
    "msg",
    [
        make_tx(account("wire"), 1, Insert("t", {"a": 1})),
        sign_proposal(validator_keypair("n1"), Proposal("n1", 0, 1, ())),
        LedgerRequest("n2", 3, 9, allow_checkpoint=False),
        LedgerData("n3", 4, b"\x01" * 32, b"\x02" * 32, (b"blob1", b"blob2")),
        LedgerData(
            "n3", 4, b"\x01" * 32, b"\x02" * 32, (), b"snap", 2, b"\x03" * 32
        ),
        Info.of("heartbeat", tip_seq="4", tip_hash="ab"),
        TxRequest("n4", (b"\x01" * 32, b"\x07" * 32)),
        TxRequest("n4", ()),
    ],
    ids=lambda m: type(m).__name__,
)
def test_pack_unpack_round_trip(msg):
    assert unpack_message(pack_message(msg)) == msg


def test_tx_request_decoding_is_strict():
    def frame(ids):
        w = Writer()
        w.str_("n4")
        w.u32(len(ids))
        for tx_id in ids:
            w.raw(tx_id)
        return encode_wire(MSG_TX_REQUEST, w.getvalue())

    a, b = b"\x01" * 32, b"\x02" * 32
    assert unpack_message(frame([a, b])) == TxRequest("n4", (a, b))
    full = [i.to_bytes(32, "big") for i in range(MAX_TX_REQUEST_IDS + 1)]
    assert unpack_message(frame(full[:-1])).tx_ids == tuple(full[:-1])
    for bad in ([b, a], [a, a], full):
        with pytest.raises(CodecError):
            unpack_message(frame(bad))
    good = frame([a, b])
    for cut in range(5, len(good)):
        truncated = good[:cut]
        with pytest.raises(CodecError):
            unpack_message((len(truncated) - 4).to_bytes(4, "big") + truncated[4:])
    for bad in ((b, a), (a, a), tuple(full), (b"\x01" * 31,)):
        with pytest.raises(ValueError):
            TxRequest("n4", bad)


def test_tx_frames_reencode_to_themselves(rng):
    # A node relays the tx frames it receives and drops byte-identical copies
    # unread; both rest on packing a decoded frame giving back its bytes.
    keypairs = [
        signing.account_keypair("reencode"),
        signing.account_keypair("reencode", signing.SCHEME_ED25519),
    ]
    frames = [pack_message(random_tx(rng, keypairs, trial % 6)) for trial in range(120)]
    for frame in frames:
        assert pack_message(unpack_message(frame)) == frame
    decoded = 0
    for _ in range(1500):
        mutated = bytearray(rng.choice(frames))
        mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
        try:
            msg = unpack_message(bytes(mutated))
        except CodecError:
            continue
        decoded += 1
        assert pack_message(msg) == bytes(mutated)
    assert decoded >= 300  # most flips land in values, keys and signatures


# The per-id decoders these messages had before ``codec.read_sorted_ids``,
# kept as the reference the one-slice decoders must agree with.


def _reference_decode_proposal(r):
    node_id = r.str_()
    round_ = r.u32()
    ledger_seq = r.u64()
    count = r.u32()
    ids = []
    prev = None
    for _ in range(count):
        tx_id = r.raw(HASH_LEN)
        prev = check_sorted_key(prev, tx_id, "proposal tx_ids")
        ids.append(tx_id)
    public_key = r.bytes_()
    signature = r.bytes_()
    try:
        return Proposal(node_id, round_, ledger_seq, tuple(ids), public_key, signature)
    except ValueError as exc:
        raise CodecError(str(exc)) from None


def _reference_decode_tx_request(r):
    requester = r.str_()
    count = r.u32()
    if count > MAX_TX_REQUEST_IDS:
        raise CodecError(f"tx request of {count} ids exceeds {MAX_TX_REQUEST_IDS}")
    ids = []
    prev = None
    for _ in range(count):
        prev = check_sorted_key(prev, r.raw(HASH_LEN), "requested tx_ids")
        ids.append(prev)
    return TxRequest(requester, tuple(ids))


def _decoded_or_none(decode, payload):
    r = Reader(payload)
    try:
        msg = decode(r)
        r.finish()
    except CodecError:
        return None
    return msg


def _id_variants(ids):
    """``ids`` itself, then copies with one id swapped with its successor,
    duplicated over its successor, or one byte short."""
    yield list(ids)
    for j in range(len(ids)):
        if j + 1 < len(ids):
            yield ids[:j] + [ids[j + 1], ids[j]] + ids[j + 2:]
            yield ids[:j + 1] + [ids[j]] + ids[j + 2:]
        yield ids[:j] + [ids[j][:-1]] + ids[j + 1:]


def test_one_slice_id_decoders_match_per_id_reference(rng):
    # Over random proposals and tx requests, every truncation of each, and
    # copies with one id swapped, duplicated or shortened, the decoders
    # accept and reject the same payloads and return equal messages.
    kp = validator_keypair("n1")
    checked = accepted = 0
    for trial in range(24):
        ids = sorted({rng.randbytes(HASH_LEN) for _ in range(rng.choice((0, 1, 2, 5, 17)))})
        node_id = rng.choice(("n1", "", "n" * 64, "n" * 65, "n\u00e9"))
        round_, seq = rng.randrange(1 << 32), rng.randrange(1 << 64)
        sig = kp.sign(rng.randbytes(8))
        for variant in _id_variants(ids):
            w = Writer()
            w.str_(node_id)
            w.u32(round_)
            w.u64(seq)
            w.u32(len(variant))
            w.raw(b"".join(variant))
            signed = w.getvalue()
            w.bytes_(kp.public_key)
            w.bytes_(sig)
            proposal = w.getvalue()
            w = Writer()
            w.str_(node_id)
            w.u32(len(variant) + (trial % 3 == 0) * MAX_TX_REQUEST_IDS)
            w.raw(b"".join(variant))
            request = w.getvalue()
            for payload, new, old in (
                (proposal, Proposal.decode_from, _reference_decode_proposal),
                (request, TxRequest.decode_from, _reference_decode_tx_request),
            ):
                cuts = range(len(payload) + 1) if variant == ids else (len(payload),)
                for cut in cuts:
                    got = _decoded_or_none(new, payload[:cut])
                    assert got == _decoded_or_none(old, payload[:cut]), (trial, cut)
                    checked += 1
                    if got is None:
                        continue
                    accepted += 1
                    assert pack_message(got)[5:] == payload[:cut]
                    if isinstance(got, Proposal):
                        assert got.signing_bytes() == signed
                        fresh = Proposal(got.node_id, got.round, got.ledger_seq, got.tx_ids)
                        assert fresh.signing_bytes() == signed
    assert checked > 5000 and accepted >= 20, (checked, accepted)


def test_info_helpers():
    info = Info.of("ack", b="2", a="1")
    assert info.fields == (("a", "1"), ("b", "2"))  # sorted at construction
    assert info.get("a") == "1"
    assert info.get("zz", "dflt") == "dflt"


def test_envelope_ordering_sanity():
    with pytest.raises(ValueError):
        Envelope("a", "b", b"", 10, 9)


# ---------------------------------------------------------------------------
# Scheduling and determinism
# ---------------------------------------------------------------------------


def _pair(seed=1, **kw):
    net = SimNetwork(seed, **kw)
    a, b = Recorder("a"), Recorder("b")
    net.register(a)
    net.register(b)
    return net, a, b


def test_latency_is_base_plus_bounded_jitter():
    net, a, b = _pair(seed=3, base_latency_ms=10, jitter_ms=5)
    for i in range(50):
        net.send("a", "b", bytes([i]))
    net.run_for(100)
    assert len(b.seen) == 50
    for t, _, _ in b.seen:
        assert 10 <= t <= 15


def test_zero_jitter_is_exact():
    net, a, b = _pair(seed=3, base_latency_ms=7, jitter_ms=0)
    net.send("a", "b", b"x")
    net.run_for(100)
    assert b.seen == [(7, "a", b"x")]


def test_same_seed_same_trace():
    def run(seed):
        net = SimNetwork(seed, drop_rate=0.2)
        a, b = Recorder("a", interval=50, reply_to="b"), Recorder("b", interval=70)
        net.register(a)
        net.register(b)
        for i in range(30):
            net.send("a", "b", bytes([i]))
            net.send("b", "a", bytes([i]))
        net.run_for(500)
        return list(net.trace), [s for s in b.seen]

    t1, seen1 = run(42)
    t2, seen2 = run(42)
    t3, _ = run(43)
    assert t1 == t2
    assert seen1 == seen2
    assert t1 != t3


def test_drop_rate_drops_messages():
    net, a, b = _pair(seed=9, drop_rate=1.0)
    for _ in range(10):
        net.send("a", "b", b"x")
    net.run_for(100)
    assert b.seen == []
    assert net.dropped_count == 10
    net2, a2, b2 = _pair(seed=9, drop_rate=0.5)
    for _ in range(200):
        net2.send("a", "b", b"x")
    net2.run_for(100)
    # Seeded coin: roughly half arrive, deterministically for this seed.
    assert 0 < len(b2.seen) < 200
    assert len(b2.seen) + net2.dropped_count == 200


def test_rng_draws_are_unconditional():
    # The jitter/drop draws happen even for unreachable sends, so a killed
    # receiver does not shift the randomness seen by later sends.
    def deliveries(kill_first):
        net = SimNetwork(5, jitter_ms=5, drop_rate=0.3)
        a, b, c = Recorder("a"), Recorder("b"), Recorder("c")
        for n in (a, b, c):
            net.register(n)
        if kill_first:
            net.kill("b")
        net.send("a", "b", b"1")
        for i in range(30):
            net.send("a", "c", bytes([i]))
        net.run_for(100)
        return [(t, d) for t, _, d in c.seen]

    assert deliveries(False) == deliveries(True)


def test_timer_cadence_and_registration_alignment():
    net = SimNetwork(1)
    early = Recorder("early", interval=100)
    net.register(early)
    net.run_for(250)  # clock at 250
    late = Recorder("late", interval=100)
    net.register(late)  # first tick aligned to the next multiple: 300
    net.run_for(350)
    assert early.ticks == [100, 200, 300, 400, 500, 600]
    assert late.ticks == [300, 400, 500, 600]


def test_killed_node_neither_sends_nor_receives():
    net, a, b = _pair()
    net.kill("b")
    net.send("a", "b", b"x")
    net.send("b", "a", b"y")
    net.run_for(100)
    assert b.seen == [] and a.seen == []
    assert net.dropped_count == 2
    # Timers on killed nodes keep rescheduling but do not fire handlers.
    net2 = SimNetwork(1)
    t = Recorder("t", interval=50)
    net2.register(t)
    net2.kill("t")
    net2.run_for(200)
    assert t.ticks == []
    net2.revive("t")
    net2.run_for(100)
    assert t.revived_at == 200
    assert t.ticks and all(tick > 200 for tick in t.ticks)


def test_kill_between_send_and_delivery_drops():
    net, a, b = _pair(seed=1, base_latency_ms=10, jitter_ms=0)
    net.send("a", "b", b"x")
    net.kill("b")  # in flight
    net.run_for(100)
    assert b.seen == []
    assert net.dropped_count == 1


def test_partition_blocks_cross_group_only():
    net = SimNetwork(2, jitter_ms=0)
    nodes = {nid: Recorder(nid) for nid in ("a", "b", "c")}
    for n in nodes.values():
        net.register(n)
    net.partition([("a", "b"), ("c",)])
    net.send("a", "b", b"in-group")
    net.send("a", "c", b"cross")
    net.run_for(100)
    assert [d for _, _, d in nodes["b"].seen] == [b"in-group"]
    assert nodes["c"].seen == []
    net.heal()
    net.send("a", "c", b"healed")
    net.run_for(100)
    assert [d for _, _, d in nodes["c"].seen] == [b"healed"]


def test_partition_checked_at_delivery_too():
    net, a, b = _pair(seed=1, base_latency_ms=20, jitter_ms=0)
    net.send("a", "b", b"x")
    net.partition([("a",), ("b",)])  # splits while in flight
    net.run_for(100)
    assert b.seen == []


def test_partition_must_cover_live_nodes():
    net, a, b = _pair()
    with pytest.raises(ValueError, match="cover live nodes"):
        net.partition([("a",)])
    with pytest.raises(ValueError, match="two partition groups"):
        net.partition([("a", "b"), ("b",)])


def test_transit_hook_rewrites_payloads():
    net, a, b = _pair(seed=1, jitter_ms=0)
    net.transit_hook = lambda frm, to, data: data.upper()
    net.send("a", "b", b"quiet")
    net.run_for(50)
    assert [d for _, _, d in b.seen] == [b"QUIET"]


def test_run_until_absolute_deadline():
    net = SimNetwork(1)
    t = Recorder("t", interval=100)
    net.register(t)
    res = net.run_until(lambda n: len(t.ticks) >= 3, max_sim_time=1000)
    assert res.satisfied and res.time == 300
    # Absolute limit: a second call with the same deadline has headroom left.
    res = net.run_until(lambda n: len(t.ticks) >= 5, max_sim_time=400)
    assert not res.satisfied
    assert len(t.ticks) == 4  # events up to t=400 ran
    res = net.run_until(lambda n: len(t.ticks) >= 5, max_sim_time=1000)
    assert res.satisfied and res.time == 500


def test_run_for_advances_relative():
    net = SimNetwork(1)
    t = Recorder("t", interval=100)
    net.register(t)
    net.run_for(250)
    assert net.now == 250
    net.run_for(250)
    assert net.now == 500
    assert t.ticks == [100, 200, 300, 400, 500]


def test_trace_records_ticks_and_deliveries():
    net, a, b = _pair(seed=1, jitter_ms=0)
    net.send("a", "b", b"x")
    net.run_for(50)
    assert any(line.startswith("10 deliver a->b ") for line in net.trace)
    net.kill("a")
    net.revive("a")
    assert f"{net.now} kill a" in net.trace
    assert f"{net.now} revive a" in net.trace


def test_duplicate_registration_rejected():
    net = SimNetwork(1)
    net.register(Recorder("a"))
    with pytest.raises(ValueError):
        net.register(Recorder("a"))
    with pytest.raises(ValueError):
        net.node("ghost")
