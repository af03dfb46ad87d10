"""Voting arithmetic, message codecs, validation tracking, and the round machine."""

import random
from fractions import Fraction

import pytest

from chainlog.codec import CodecError, Reader, Writer
from chainlog.consensus import (
    DEFAULT_MAX_ROUNDS,
    DEFAULT_QUORUM,
    DEFAULT_THRESHOLDS,
    ConsensusConfig,
    ConsensusEngine,
    ConsensusPhase,
    Proposal,
    Unl,
    Validation,
    ValidationTracker,
    check_consensus,
    min_count,
    sign_proposal,
    sign_validation,
    threshold,
    update_candidate,
    validator_keypair,
    verify_consensus_message,
)
from chainlog.ledger import ZERO_HASH, Insert, build_ledger, genesis_ledger
from chainlog.netsim import pack_message

from conftest import account, make_tx


def _ids(*vals):
    return tuple(sorted(bytes([v]) * 32 for v in vals))


def _proposal(node, tx_ids, round_=0, seq=1):
    return Proposal(node, round_, seq, tuple(sorted(tx_ids)))


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


def test_min_count_golden_values():
    assert min_count(0.80, 5) == 4  # exactly 4/5
    assert min_count(0.80, 4) == 4  # 3.2 rounds up: 3/4 is not enough
    assert min_count(0.80, 1) == 1  # solo node is its own quorum
    assert min_count(0.50, 5) == 3
    assert min_count(0.65, 5) == 4
    assert min_count(0.70, 5) == 4
    assert min_count(1.00, 7) == 7
    assert min_count(0.50, 2) == 1


def test_min_count_matches_exact_rational_oracle():
    # Smallest k with k/n >= f, computed in exact arithmetic.
    for f in (0.5, 0.65, 0.7, 0.8, 1.0):
        frac = Fraction(f).limit_denominator(100)
        for n in range(1, 60):
            want = 0
            while Fraction(want, n) < frac:
                want += 1
            assert min_count(f, n) == want, (f, n)


def test_threshold_schedule_and_clamp():
    cfg = ConsensusConfig()
    assert [threshold(cfg, r) for r in range(4)] == list(DEFAULT_THRESHOLDS)
    assert threshold(cfg, 4) == DEFAULT_THRESHOLDS[-1]
    assert threshold(cfg, 99) == DEFAULT_QUORUM
    with pytest.raises(ValueError):
        threshold(cfg, -1)


def test_config_validation():
    ConsensusConfig(round_thresholds=(0.5, 0.8), validation_quorum=0.8)
    with pytest.raises(ValueError):
        ConsensusConfig(round_thresholds=())
    with pytest.raises(ValueError):
        ConsensusConfig(round_thresholds=(0.5, 1.5))
    with pytest.raises(ValueError):
        ConsensusConfig(round_thresholds=(0.7, 0.5))
    with pytest.raises(ValueError):
        ConsensusConfig(validation_quorum=0.5)  # below final threshold
    with pytest.raises(ValueError):
        ConsensusConfig(round_interval_ms=0)
    with pytest.raises(ValueError):
        ConsensusConfig(max_rounds=0)


def test_unl_rules():
    assert Unl(()).voters == 1
    assert Unl(("a", "b")).voters == 3
    assert "a" in Unl(("a",))
    with pytest.raises(ValueError):
        Unl(("a", "a"))


# ---------------------------------------------------------------------------
# Signed messages
# ---------------------------------------------------------------------------


def test_proposal_codec_round_trip():
    kp = validator_keypair("n1")
    p = sign_proposal(kp, _proposal("n1", _ids(1, 2, 3), round_=2, seq=7))
    w = Writer()
    p.encode_into(w)
    back = Proposal.decode_from(Reader(w.getvalue()))
    assert back == p
    assert verify_consensus_message(back, kp.public_key)


def test_validation_codec_round_trip():
    kp = validator_keypair("n2")
    v = sign_validation(kp, Validation("n2", 5, b"\x07" * 32))
    w = Writer()
    v.encode_into(w)
    back = Validation.decode_from(Reader(w.getvalue()))
    assert back == v
    assert verify_consensus_message(back, kp.public_key)


def test_proposal_requires_sorted_unique_ids():
    with pytest.raises(ValueError):
        Proposal("n1", 0, 1, (_ids(2)[0], _ids(1)[0]))
    with pytest.raises(ValueError):
        Proposal("n1", 0, 1, _ids(1) + _ids(1))
    with pytest.raises(ValueError):
        Proposal("n1", 0, 1, (b"\x01" * 31,))


def test_proposal_decode_rejects_unsorted_wire():
    kp = validator_keypair("n1")
    p = sign_proposal(kp, _proposal("n1", _ids(1, 2)))
    w = Writer()
    p.encode_into(w)
    raw = bytearray(w.getvalue())
    # The two 32-byte ids sit back to back after the u32 count; swap them.
    prefix = 4 + len("n1") + 4 + 8 + 4
    raw[prefix : prefix + 32], raw[prefix + 32 : prefix + 64] = (
        raw[prefix + 32 : prefix + 64],
        raw[prefix : prefix + 32],
    )
    with pytest.raises(CodecError):
        Proposal.decode_from(Reader(bytes(raw)))


def test_message_tamper_and_wrong_key_fail_verification():
    kp = validator_keypair("n1")
    other = validator_keypair("n9")
    p = sign_proposal(kp, _proposal("n1", _ids(1)))
    assert not verify_consensus_message(p, other.public_key)
    forged = Proposal("n1", p.round + 1, p.ledger_seq, p.tx_ids, p.public_key, p.signature)
    assert not verify_consensus_message(forged, kp.public_key)
    v = sign_validation(kp, Validation("n1", 3, b"\x01" * 32))
    forged_v = Validation("n1", 3, b"\x02" * 32, v.public_key, v.signature)
    assert not verify_consensus_message(forged_v, kp.public_key)


# ---------------------------------------------------------------------------
# Pure voting rules
# ---------------------------------------------------------------------------


def test_update_candidate_threshold_progression():
    unl = Unl(("p1", "p2", "p3", "p4"))  # 5 voters
    cfg = ConsensusConfig()
    own = set(_ids(1))
    peers = {
        "p1": _proposal("p1", _ids(1, 2)),
        "p2": _proposal("p2", _ids(2)),
        "p3": _proposal("p3", _ids(2, 3)),
    }
    # Round 0 (0.50 of 5 -> 3): tx1 has 2 supporters, tx2 has 3, tx3 has 1.
    assert update_candidate(own, peers, 0, cfg, unl) == _ids(2)
    # Round 3 (0.80 of 5 -> 4): nothing survives.
    assert update_candidate(own, peers, 3, cfg, unl) == ()


def test_update_candidate_matches_recount_oracle(rng):
    cfg = ConsensusConfig()
    for _ in range(200):
        n_peers = rng.randint(0, 6)
        unl = Unl(tuple(f"p{i}" for i in range(n_peers)))
        pool = _ids(*range(1, 8))
        own = {t for t in pool if rng.random() < 0.4}
        peers = {
            f"p{i}": _proposal(f"p{i}", [t for t in pool if rng.random() < 0.4])
            for i in range(n_peers)
        }
        round_ = rng.randrange(6)
        got = update_candidate(own, peers, round_, cfg, unl)
        needed = min_count(threshold(cfg, round_), n_peers + 1)
        expect = sorted(
            t
            for t in pool
            if (t in own) + sum(t in p.tx_ids for p in peers.values()) >= needed
        )
        assert list(got) == expect


def _per_proposal_update_candidate(own, peer_proposals, round_, cfg, unl):
    """The rule as first written: a membership test per id per proposal."""
    needed = min_count(threshold(cfg, round_), unl.voters)
    universe = set(own)
    for p in peer_proposals.values():
        universe.update(p.tx_ids)
    kept = []
    for tx_id in universe:
        support = (1 if tx_id in own else 0) + sum(
            1 for p in peer_proposals.values() if tx_id in p.tx_ids
        )
        if support >= needed:
            kept.append(tx_id)
    return tuple(sorted(kept))


def test_update_candidate_matches_the_per_proposal_rule(rng):
    # The one-pass count must keep exactly what the per-proposal rule kept,
    # at every round's threshold, with empty, disjoint and overlapping sets.
    cfg = ConsensusConfig()
    pool = [rng.randbytes(32) for _ in range(60)]
    for trial in range(150):
        n_peers = rng.randint(0, 6)
        unl = Unl(tuple(f"p{i}" for i in range(n_peers)))
        if trial % 3 == 0:  # disjoint: every voter draws from its own slice
            slices = [pool[i * 8:(i + 1) * 8] for i in range(n_peers + 1)]
        else:
            slices = [pool] * (n_peers + 1)
        density = rng.choice((0.0, 0.2, 0.7, 1.0))
        own = {t for t in slices[0] if rng.random() < density}
        peers = {
            f"p{i}": _proposal(f"p{i}", [t for t in slices[i + 1] if rng.random() < density])
            for i in range(n_peers)
        }
        for round_ in range(len(cfg.round_thresholds) + 2):
            assert update_candidate(own, peers, round_, cfg, unl) == (
                _per_proposal_update_candidate(own, peers, round_, cfg, unl)
            )


def test_check_consensus_exhaustive_counts():
    cfg = ConsensusConfig()
    own = set(_ids(1, 2))
    for n_peers in range(0, 7):
        unl = Unl(tuple(f"p{i}" for i in range(n_peers)))
        for agreeing in range(n_peers + 1):
            peers = {}
            for i in range(n_peers):
                ids = _ids(1, 2) if i < agreeing else _ids(3)
                peers[f"p{i}"] = _proposal(f"p{i}", ids)
            got = check_consensus(own, peers, cfg, unl)
            want = (1 + agreeing) >= min_count(0.8, n_peers + 1)
            assert got == want, (n_peers, agreeing)


def test_five_voter_quorum_tolerates_exactly_one_fault():
    # 4 of 5 exact agreement passes; 3 of 5 does not.
    cfg = ConsensusConfig()
    unl = Unl(("p1", "p2", "p3", "p4"))
    own = set(_ids(1))
    agree3 = {f"p{i}": _proposal(f"p{i}", _ids(1)) for i in (1, 2, 3)}
    assert check_consensus(own, agree3, cfg, unl)  # 4/5
    agree2 = {f"p{i}": _proposal(f"p{i}", _ids(1)) for i in (1, 2)}
    assert not check_consensus(own, agree2, cfg, unl)  # 3/5


# ---------------------------------------------------------------------------
# Validation tracking
# ---------------------------------------------------------------------------


def _validation(node, seq, h):
    return sign_validation(validator_keypair(node), Validation(node, seq, h))


def test_tracker_counts_and_quorum():
    unl = Unl(("a", "b", "c", "d"))  # 5 voters, quorum 4
    cfg = ConsensusConfig()
    tracker = ValidationTracker()
    good, bad = b"\x01" * 32, b"\x02" * 32
    for node in ("a", "b", "c"):
        tracker.record(_validation(node, 1, good))
    tracker.record(_validation("d", 1, bad))
    assert tracker.count(1, good) == 3
    assert tracker.quorum_hash(1, unl, cfg) is None
    tracker.record(_validation("e", 1, good))
    assert tracker.count(1, good) == 4
    assert tracker.quorum_hash(1, unl, cfg) == good


def test_tracker_duplicates_idempotent():
    tracker = ValidationTracker()
    v = _validation("a", 1, b"\x01" * 32)
    tracker.record(v)
    tracker.record(v)
    assert tracker.count(1, v.ledger_header_hash) == 1


def test_tracker_discards_equivocators():
    unl = Unl(("a", "b", "c", "d"))
    cfg = ConsensusConfig()
    tracker = ValidationTracker()
    h1, h2 = b"\x01" * 32, b"\x02" * 32
    for node in ("a", "b", "c"):
        tracker.record(_validation(node, 1, h1))
    # d endorses both hashes: counted for neither.
    tracker.record(_validation("d", 1, h1))
    tracker.record(_validation("d", 1, h2))
    assert tracker.equivocators(1) == ["d"]
    assert tracker.count(1, h1) == 3
    assert tracker.quorum_hash(1, unl, cfg) is None


def test_tracker_prune():
    tracker = ValidationTracker()
    for seq in (1, 2, 3):
        tracker.record(_validation("a", seq, b"\x01" * 32))
    tracker.prune_below(3)
    assert tracker.count(1, b"\x01" * 32) == 0
    assert tracker.count(3, b"\x01" * 32) == 1


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


def _engine(node_id, unl_ids, parent_holder, cfg=None):
    """Engine whose build_fn extends a shared mutable parent header."""

    def build(txs, close_time):
        return build_ledger(parent_holder[0], txs, ZERO_HASH, close_time)

    return ConsensusEngine(
        node_id,
        Unl(tuple(unl_ids)),
        cfg or ConsensusConfig(),
        validator_keypair(node_id),
        build,
    )


def test_engine_rejects_self_in_unl():
    with pytest.raises(ValueError):
        _engine("a", ("a", "b"), [genesis_ledger(ZERO_HASH).header])


def test_solo_engine_accepts_alone():
    parent = [genesis_ledger(ZERO_HASH).header]
    eng = _engine("solo", (), parent)
    assert eng.tick(1000).proposals == []  # quiescent with nothing to do
    kp = account("solo-client")
    tx = make_tx(kp, 1, Insert("t", {"a": 1}))
    eng.add_open_tx(tx, pack_message(tx))
    out = eng.tick(2000)
    assert eng.phase is ConsensusPhase.ESTABLISH
    assert [p.tx_ids for p in out.proposals] == [(tx.tx_id,)]
    out = eng.tick(3000)
    assert out.accepted is not None
    assert out.accepted.txs == (tx,)
    assert eng.accepted_round == 0
    assert eng.quorum_hash(1) == out.accepted.header.hash()
    eng.advance(out.accepted)
    assert eng.building_seq == 2
    assert eng.phase is ConsensusPhase.OPEN
    assert tx.tx_id not in eng.open_txs


def test_two_engines_converge_on_union():
    parent = [genesis_ledger(ZERO_HASH).header]
    a = _engine("a", ("b",), parent)
    b = _engine("b", ("a",), parent)
    kp = account("pair-client")
    tx1, tx2 = (make_tx(kp, s, Insert("t", {"a": s})) for s in (1, 2))
    for eng in (a, b):
        for tx in (tx1, tx2):
            eng.add_open_tx(tx, pack_message(tx))
    accepted = {}
    for now in range(1000, 9000, 1000):
        outs = {"a": a.tick(now), "b": b.tick(now)}
        for src, dst in (("a", b), ("b", a)):
            for p in outs[src].proposals:
                assert dst.receive_proposal(p)
            for v in outs[src].validations:
                assert dst.receive_validation(v)
        for name, out in outs.items():
            if out.accepted is not None:
                accepted[name] = out.accepted
        if len(accepted) == 2:
            break
    assert set(accepted) == {"a", "b"}
    assert accepted["a"].header.hash() == accepted["b"].header.hash()
    assert {t.tx_id for t in accepted["a"].txs} == {tx1.tx_id, tx2.tx_id}
    # Both now see a 2/2 validation quorum.
    assert a.quorum_hash(1) == accepted["a"].header.hash()
    assert b.quorum_hash(1) == accepted["a"].header.hash()


def test_engine_stale_and_latest_round_proposals():
    parent = [genesis_ledger(ZERO_HASH).header]
    eng = _engine("a", ("b",), parent)
    kp = validator_keypair("b")
    old = sign_proposal(kp, _proposal("b", _ids(1), round_=0, seq=0))
    assert not eng.receive_proposal(old)  # below building_seq
    r0 = sign_proposal(kp, _proposal("b", _ids(1), round_=0, seq=1))
    r2 = sign_proposal(kp, _proposal("b", _ids(2), round_=2, seq=1))
    assert eng.receive_proposal(r2)
    assert eng.receive_proposal(r0)  # accepted as a message...
    assert eng.peer_proposals[1]["b"] == r2  # ...but the higher round is kept
    unsigned = _proposal("b", _ids(3), round_=3, seq=1)
    assert not eng.receive_proposal(unsigned)
    stranger = sign_proposal(validator_keypair("zz"), _proposal("zz", _ids(1), seq=1))
    assert not eng.receive_proposal(stranger)


def test_engine_max_rounds_falls_back_to_empty_set():
    parent = [genesis_ledger(ZERO_HASH).header]
    cfg = ConsensusConfig(max_rounds=3)
    eng = _engine("a", ("b",), parent, cfg)  # 2 voters; quorum needs both
    kp = account("lonely")
    tx = make_tx(kp, 1, Insert("t", {"a": 1}))
    eng.add_open_tx(tx, pack_message(tx))
    eng.tick(1000)  # OPEN -> ESTABLISH
    last = None
    for now in range(2000, 8000, 1000):
        last = eng.tick(now)
    assert eng.candidate == ()
    assert eng.phase is ConsensusPhase.ESTABLISH
    assert last.proposals[-1].tx_ids == ()
    assert len(eng.open_txs) == 1  # the tx stays queued for later


def test_engine_advance_checks_seq():
    parent = [genesis_ledger(ZERO_HASH).header]
    eng = _engine("a", (), parent)
    wrong = build_ledger(
        build_ledger(parent[0], [], ZERO_HASH, 1).header, [], ZERO_HASH, 2
    )
    with pytest.raises(ValueError):
        eng.advance(wrong)


def test_engine_waits_for_missing_tx_bytes():
    # Agreement on ids the node cannot materialize yet must not accept.
    parent = [genesis_ledger(ZERO_HASH).header]
    eng = _engine("a", ("b",), parent)
    kp = account("ghost-writer")
    tx = make_tx(kp, 1, Insert("t", {"a": 1}))
    peer_kp = validator_keypair("b")
    eng.receive_proposal(sign_proposal(peer_kp, _proposal("b", (tx.tx_id,), seq=1)))
    out = eng.tick(1000)  # OPEN: adopts peer activity, proposes own (empty) set
    assert eng.phase is ConsensusPhase.ESTABLISH
    # Peer keeps proposing the tx at later rounds; 0.5 of 2 voters -> 1, so the
    # id joins the candidate, and with both proposing {tx} consensus is reached;
    # the engine still must not accept while the tx bytes are missing.
    for now in (2000, 3000, 4000):
        eng.receive_proposal(
            sign_proposal(peer_kp, _proposal("b", (tx.tx_id,), round_=eng.round, seq=1))
        )
        out = eng.tick(now)
        assert out.accepted is None
        assert eng.phase is ConsensusPhase.ESTABLISH
    eng.add_open_tx(tx, pack_message(tx))
    eng.receive_proposal(
        sign_proposal(peer_kp, _proposal("b", (tx.tx_id,), round_=eng.round, seq=1))
    )
    out = eng.tick(5000)
    assert out.accepted is not None
    assert out.accepted.txs == (tx,)
