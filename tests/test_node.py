"""Node runtime: config, submit/read paths, sync, pruning, and fault behavior."""

import json
from collections import Counter

import pytest

from chainlog import netsim, signing, sqlvm
from chainlog.consensus import ConsensusConfig, ConsensusPhase, Unl
from chainlog.ledger import (
    AccountId,
    ColumnType,
    CreateTable,
    Insert,
    Transaction,
    Update,
    verify_stored_dir,
)
from chainlog.netsim import LedgerData, LedgerRequest, SimNetwork
from chainlog.node import (
    DbNotAttachedError,
    Node,
    NodeConfig,
    NodeRole,
    NotSyncedError,
    PrunedRange,
    SelectQuery,
    TxOutcome,
    load_node_config,
    parse_node_config,
    submit_via,
    sync_from_peer,
)
from chainlog.sqlvm import state_hash

from conftest import (
    account,
    build_cluster,
    chain_occurrences,
    forge_tip,
    make_tx,
    run_until_committed,
    run_until_tip,
    submit,
)

SCHEMA = (("qty", ColumnType.INT), ("name", ColumnType.TEXT))


def _solo(tmp_path=None, **kw):
    cfg = NodeConfig(
        node_id="solo",
        unl=Unl(()),
        consensus=ConsensusConfig(round_interval_ms=100),
        data_dir=tmp_path,
        **kw,
    )
    net = SimNetwork(seed=1, jitter_ms=0)
    node = Node(cfg)
    net.register(node)
    return net, node, cfg


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def test_node_role_validation():
    assert NodeRole.full().to_json() == "full"
    assert NodeRole.partial(4).to_json() == {"partial": 4}
    with pytest.raises(ValueError):
        NodeRole("archive")
    with pytest.raises(ValueError):
        NodeRole.partial(1)  # needs at least tip and parent


def test_parse_node_config_happy(tmp_path):
    obj = {
        "node_id": "n1",
        "unl": ["n2", "n3"],
        "role": {"partial": 6},
        "db_attached": False,
        "consensus": {"round_interval_ms": 250, "quorum": 0.9, "thresholds": [0.5, 0.9]},
        "data_dir": str(tmp_path / "n1"),
    }
    cfg = parse_node_config(obj)
    assert cfg.node_id == "n1"
    assert cfg.unl.trusted == ("n2", "n3")
    assert cfg.role == NodeRole.partial(6)
    assert cfg.db_attached is False
    assert cfg.consensus.round_interval_ms == 250
    assert cfg.consensus.validation_quorum == 0.9
    assert cfg.data_dir == tmp_path / "n1"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    assert load_node_config(path) == cfg


@pytest.mark.parametrize(
    "mutation,fragment",
    [
        ({"bogus": 1}, "unknown config keys"),
        ({"node_id": None}, "node_id"),
        ({"unl": "n2"}, "unl must be a list"),
        ({"role": "archive"}, "role must be"),
        ({"db_attached": "yes"}, "db_attached must be a boolean"),
        ({"consensus": {"ticks": 9}}, "unknown consensus keys"),
        ({"consensus": {"thresholds": 5}}, "bad consensus value"),
    ],
)
def test_parse_node_config_errors(mutation, fragment):
    obj = {"node_id": "n1", "unl": []}
    obj.update(mutation)
    with pytest.raises(ValueError, match=fragment):
        parse_node_config(obj)


def test_parse_node_config_missing_keys():
    with pytest.raises(ValueError, match="missing required key"):
        parse_node_config({"unl": []})
    with pytest.raises(ValueError, match="missing required key"):
        parse_node_config({"node_id": "x"})


# ---------------------------------------------------------------------------
# Happy-path consensus over the simulator
# ---------------------------------------------------------------------------


def test_five_nodes_commit_and_agree():
    net, nodes = build_cluster(5, seed=11)
    kp = account("writer")
    tx1 = submit(net, nodes[0], kp, 1, CreateTable("inv", SCHEMA))
    tx2 = submit(net, nodes[0], kp, 2, Insert("inv", {"qty": 5, "name": "bolt"}))
    run_until_committed(net, nodes, [tx1.tx_id, tx2.tx_id])
    tips = {n.tip.hash() for n in nodes}
    assert len(tips) == 1
    states = {n.committed_state_hash() for n in nodes}
    assert len(states) == 1
    for n in nodes:
        status, outcome = n.tx_status(tx2.tx_id)
        assert status == "validated"
        assert outcome.applied and outcome.reason is None
        assert chain_occurrences(n, tx1.tx_id) == 1
    # Commit bookkeeping: every committed seq has a time; own-built commits
    # record the establish round that closed.
    committer = nodes[0]
    assert set(committer.commit_times) >= {1}
    assert all(r >= 0 for r in committer.commit_rounds.values())


def test_state_hash_calls_per_committed_ledger(monkeypatch):
    # Counts only: each node builds each ledger once, on one clone of its
    # committed store that its commit adopts, so it applies each agreed tx
    # once, clones once per ledger and opens no overlay; a committed ledger
    # costs each node at most two state hashes.
    net, nodes = build_cluster(5, seed=23)
    kp = account("counter")
    run_until_committed(net, nodes, [submit(net, nodes[0], kp, 1, CreateTable("inv", SCHEMA)).tx_id])
    calls = {"state_hash": 0, "begin": 0, "rollback": 0, "apply_op": 0, "clone": 0}

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(sqlvm, "state_hash", counting("state_hash", sqlvm.state_hash))
    monkeypatch.setattr(sqlvm, "begin_pending", counting("begin", sqlvm.begin_pending))
    monkeypatch.setattr(sqlvm, "rollback_pending", counting("rollback", sqlvm.rollback_pending))
    monkeypatch.setattr(sqlvm, "apply_op", counting("apply_op", sqlvm.apply_op))
    monkeypatch.setattr(sqlvm.TableStore, "clone", counting("clone", sqlvm.TableStore.clone))
    start = nodes[0].tip.seq
    for seq in range(2, 8):
        tx = submit(net, nodes[seq % 5], kp, seq, Insert("inv", {"qty": seq, "name": "bolt"}))
        run_until_committed(net, nodes, [tx.tx_id])
    run_until_tip(net, nodes, max(n.tip.seq for n in nodes))
    end = min(n.tip.seq for n in nodes)
    ledgers = end - start
    committed = sum(len(nodes[0].chain_tail[seq].txs) for seq in range(start + 1, end + 1))
    assert ledgers >= 6 and committed == 6
    assert calls["apply_op"] == 5 * committed, (calls, committed)
    assert calls["clone"] == 5 * ledgers, (calls, ledgers)
    assert calls["begin"] == 0 and calls["rollback"] == 0, calls
    assert calls["state_hash"] <= 2 * 5 * ledgers, (calls, ledgers)


def test_tx_frames_decoded_at_most_once_per_node(monkeypatch):
    # Counts only: a node keeps the frame of each open tx, drops copies that
    # equal it byte for byte before decoding and relays the bytes received,
    # so it decodes at most one tx frame per tx (flooding made about ten),
    # and a tx is packed once, where it is submitted.
    net, nodes = build_cluster(5, seed=31)
    kp = account("framer")
    run_until_committed(net, nodes, [submit(net, nodes[0], kp, 1, CreateTable("t", SCHEMA)).tx_id])
    decodes = {n.node_id: 0 for n in nodes}
    packs = []
    receiving = []
    real_on_message, real_unpack, real_pack = Node.on_message, netsim.unpack_message, netsim.pack_message

    def on_message(node, now, sender, data):
        receiving.append(node.node_id)
        try:
            return real_on_message(node, now, sender, data)
        finally:
            receiving.pop()

    def unpack(data):
        msg = real_unpack(data)
        if isinstance(msg, Transaction):
            decodes[receiving[-1]] += 1
        return msg

    def pack(msg):
        if isinstance(msg, Transaction):
            packs.append(msg.tx_id)
        return real_pack(msg)

    monkeypatch.setattr(Node, "on_message", on_message)
    monkeypatch.setattr(netsim, "unpack_message", unpack)
    monkeypatch.setattr(netsim, "pack_message", pack)
    txs = [submit(net, nodes[i % 5], kp, i + 2, Insert("t", {"qty": i, "name": "a"})) for i in range(20)]
    run_until_committed(net, nodes, [tx.tx_id for tx in txs])
    net.run_for(5000)
    assert max(decodes.values()) <= len(txs), decodes
    assert sorted(packs) == sorted(tx.tx_id for tx in txs)

    # A frame that differs in its signature bytes carries a known tx id; it
    # is decoded, found a duplicate, and changes nothing.
    target = nodes[1]
    tx = make_tx(kp, len(txs) + 2, Insert("t", {"qty": 0, "name": "b"}))
    assert target.submit_transaction(tx).status == "accepted"
    frame = target.engine.open_frames[tx.tx_id]
    altered = Transaction(tx.account, tx.seq, tx.op, tx.public_key, bytes(b ^ 1 for b in tx.signature))
    altered_frame = netsim.pack_message(altered)
    assert altered.tx_id == tx.tx_id and altered_frame != frame
    before = decodes[target.node_id]
    assert target.on_message(net.now, "n3", frame) == []
    assert decodes[target.node_id] == before
    assert target.on_message(net.now, "n3", altered_frame) == []
    assert decodes[target.node_id] == before + 1
    assert target.engine.open_txs == {tx.tx_id: tx}
    assert target.engine.open_frames == {tx.tx_id: frame}
    assert target.engine.known_frames == {frame}
    run_until_committed(net, nodes, [tx.tx_id])
    for n in nodes:
        assert n.engine.open_frames == {} and n.engine.known_frames == set()


def test_tx_frames_delivered_at_most_sixteen_per_tx(monkeypatch):
    # Counts only: a submit reaches the 4 peers once and each relays it once
    # on first sight (4 + 4 * 3 frames); proposals carry only ids, and with
    # no drops nothing is missing, so nothing is re-sent (a per-round
    # re-flood of each candidate delivered about 50 per tx).
    net, nodes = build_cluster(5, seed=37)
    kp = account("relay")
    run_until_committed(net, nodes, [submit(net, nodes[0], kp, 1, CreateTable("t", SCHEMA)).tx_id])
    delivered = 0
    real_on_message = Node.on_message

    def on_message(node, now, sender, data):
        nonlocal delivered
        delivered += data[4] == netsim.MSG_TX_SUBMIT
        return real_on_message(node, now, sender, data)

    monkeypatch.setattr(Node, "on_message", on_message)
    txs = [submit(net, nodes[i % 5], kp, i + 2, Insert("t", {"qty": i, "name": "a"})) for i in range(20)]
    run_until_committed(net, nodes, [tx.tx_id for tx in txs])
    net.run_for(5000)
    assert delivered <= 16 * len(txs), delivered
    assert all(chain_occurrences(n, tx.tx_id) == 1 for n in nodes for tx in txs)


def test_tx_signatures_verified_once_per_node(monkeypatch):
    # Counts only: a node checks a tx's signature when it admits the tx and
    # verify_signature keeps the verdict on the tx object, so the node's
    # ledger build re-checks it at lookup cost (it verified each tx twice).
    net, nodes = build_cluster(5, seed=43)
    kp = account("verifier")
    run_until_committed(net, nodes, [submit(net, nodes[0], kp, 1, CreateTable("t", SCHEMA)).tx_id])
    txs = [make_tx(kp, i + 2, Insert("t", {"qty": i, "name": "a"})) for i in range(20)]
    tx_ids = {tx.tx_id for tx in txs}
    current = []
    verifies = Counter()
    real_verify = signing.verify

    def verify(public_key, message, signature):
        if message in tx_ids:
            verifies[(current[-1], message)] += 1
        return real_verify(public_key, message, signature)

    def in_node(real):
        def wrapper(node, *args):
            current.append(node.node_id)
            try:
                return real(node, *args)
            finally:
                current.pop()
        return wrapper

    monkeypatch.setattr(signing, "verify", verify)
    for name in ("on_message", "on_timer", "submit_transaction"):
        monkeypatch.setattr(Node, name, in_node(getattr(Node, name)))
    for i, tx in enumerate(txs):
        assert submit_via(net, nodes[i % 5].node_id, tx).ok
    run_until_committed(net, nodes, tx_ids)
    net.run_for(5000)
    assert verifies == Counter({(n.node_id, i): 1 for n in nodes for i in tx_ids})


@pytest.mark.parametrize("lost_replies", [0, 1])
def test_node_fetches_tx_bytes_it_lost_by_id(lost_replies):
    # Every tx frame to n3 is garbled in transit until n3 has asked for the
    # tx by id lost_replies + 1 times: it learns the id from the peers'
    # proposals, asks one of them once per round, and asks again in the next
    # round when the reply is lost.
    net, nodes = build_cluster(5, seed=41)
    kp = account("fetcher")
    run_until_committed(net, nodes, [submit(net, nodes[0], kp, 1, CreateTable("t", SCHEMA)).tx_id])
    target = nodes[2]
    requests = []

    def hook(frm, to, payload):
        if payload[4] == netsim.MSG_TX_REQUEST:
            requests.append((net.now, frm, netsim.unpack_message(payload).tx_ids))
        if to == target.node_id and payload[4] == netsim.MSG_TX_SUBMIT and len(requests) <= lost_replies:
            return payload[:-1]  # truncated: fails to decode
        return payload

    net.transit_hook = hook
    tx = submit(net, nodes[0], kp, 2, Insert("t", {"qty": 7, "name": "a"}))
    if not lost_replies:
        assert net.run_until(lambda _n: tx.tx_id in target.engine.open_txs, net.now + 5000).satisfied
        assert target.tip.seq == nodes[0].tip.seq  # the tx is still open everywhere
        assert target.engine.open_frames[tx.tx_id] == nodes[0].engine.open_frames[tx.tx_id]
    run_until_committed(net, nodes, [tx.tx_id])
    # Four proposals name the id each round; n3 asks one peer, once a round.
    assert [(frm, ids) for _, frm, ids in requests] == [(target.node_id, (tx.tx_id,))] * (lost_replies + 1)
    assert len({now // 1000 for now, _, _ in requests}) == lost_replies + 1
    seq = nodes[0].committed_txs[tx.tx_id].ledger_seq
    assert all(n.committed_txs[tx.tx_id].ledger_seq == seq for n in nodes)
    assert target.chain_tail[seq].header == nodes[0].chain_tail[seq].header


def test_tx_request_served_from_open_frames_only():
    net, nodes = build_cluster(3, seed=43)
    kp = account("server")
    committed = submit(net, nodes[0], kp, 1, CreateTable("t", SCHEMA))
    run_until_committed(net, nodes, [committed.tx_id])
    server = nodes[0]
    open_txs = [make_tx(kp, seq, Insert("t", {"qty": seq, "name": "a"})) for seq in (2, 3)]
    for tx in open_txs:
        assert server.submit_transaction(tx).status == "accepted"
    unknown = make_tx(kp, 4, Insert("t", {"qty": 4, "name": "a"}))
    ids = tuple(sorted(t.tx_id for t in open_txs + [committed, unknown]))
    reply = server.on_message(net.now, "n2", netsim.pack_message(netsim.TxRequest("n2", ids)))
    frames = server.engine.open_frames
    assert sorted(reply) == sorted(("n2", frames[tx.tx_id]) for tx in open_txs)
    assert server.on_message(net.now, "n2", netsim.pack_message(netsim.TxRequest("n2", ()))) == []


def test_every_tx_commits_once_under_drops():
    # Liveness sweep: with 10% of frames dropped, 31 txs submitted round-robin
    # commit exactly once on every node, each seed within 60 s of sim time.
    failing = []
    for seed in range(1, 21):
        net, nodes = build_cluster(5, seed=seed, drop_rate=0.1)
        kp = account("sweep")
        txs = [make_tx(kp, 1, CreateTable("t", SCHEMA))]
        txs += [make_tx(kp, seq, Insert("t", {"qty": seq, "name": "a"})) for seq in range(2, 32)]
        for i, tx in enumerate(txs):
            assert submit_via(net, nodes[i % 5].node_id, tx).ok
        run = net.run_until(
            lambda _n: all(tx.tx_id in n.committed_txs for n in nodes for tx in txs), 60000
        )
        if not run or any(chain_occurrences(n, tx.tx_id) != 1 for n in nodes for tx in txs):
            failing.append(seed)
    assert failing == []


def test_open_txs_committed_by_sync_are_dropped():
    # Seed 5: three INSERTs reach n3, n3 is cut off while the others commit
    # them, and it takes that ledger over by sync after the heal. Neither its
    # open set nor the frames kept with it may hold them afterwards.
    net, nodes = build_cluster(5, seed=5)
    kp = account("writer")
    run_until_committed(net, nodes, [submit(net, nodes[0], kp, 1, CreateTable("t", SCHEMA)).tx_id])
    txs = [submit(net, nodes[0], kp, seq, Insert("t", {"qty": seq, "name": "a"})) for seq in (2, 3, 4)]
    lagging = nodes[2]
    assert net.run_until(
        lambda _n: all(tx.tx_id in lagging.engine.open_txs for tx in txs), net.now + 5000
    ).satisfied
    net.partition([("n1", "n2", "n4", "n5"), ("n3",)])
    net.run_for(8000)
    synced_seq = nodes[0].committed_txs[txs[0].tx_id].ledger_seq
    assert lagging.tip.seq < synced_seq
    net.heal()
    run_until_committed(net, nodes, [tx.tx_id for tx in txs])
    run_until_tip(net, nodes, max(n.tip.seq for n in nodes))
    assert synced_seq not in lagging.commit_times  # adopted by sync, not built
    assert {n.node_id: n.server_info(net.now).open_tx_count for n in nodes} == {n.node_id: 0 for n in nodes}
    for n in nodes:
        assert n.engine.open_frames == {} and n.engine.known_frames == set()


def test_rejected_tx_committed_by_sync_is_dropped():
    # Seed 5 again, with an INSERT into a missing table: it commits as a
    # reject, which consumes no account seq, so only its committed id can
    # tell n3, which takes that ledger over by sync, to stop proposing it.
    net, nodes = build_cluster(5, seed=5)
    kp = account("writer")
    tx = submit(net, nodes[0], kp, 1, Insert("nowhere", {"qty": 1}))
    lagging = nodes[2]
    assert net.run_until(lambda _n: tx.tx_id in lagging.engine.open_txs, net.now + 5000).satisfied
    net.partition([("n1", "n2", "n4", "n5"), ("n3",)])
    run_until_committed(net, nodes[:2] + nodes[3:], [tx.tx_id])
    synced_seq = nodes[0].committed_txs[tx.tx_id].ledger_seq
    assert lagging.tip.seq < synced_seq
    net.heal()
    run_until_committed(net, nodes, [tx.tx_id])
    net.run_for(5000)
    assert synced_seq not in lagging.commit_times  # adopted by sync, not built
    for n in nodes:
        assert n.tx_status(tx.tx_id) == ("validated", TxOutcome(synced_seq, False, "no_such_table"))
        assert n.server_info(net.now).open_tx_count == 0
        assert n.engine.open_frames == {} and n.engine.known_frames == set()


def test_open_tx_that_lost_its_seq_is_dropped():
    # Seed 9: two INSERTs at seq 2 reach n1 and n4 at once. One commits; the
    # other can never apply, so each node drops it at that commit instead of
    # reporting it pending forever.
    net, nodes = build_cluster(5, seed=9)
    kp = account("writer")
    run_until_committed(net, nodes, [submit(net, nodes[0], kp, 1, CreateTable("t", SCHEMA)).tx_id])
    rivals = [
        submit(net, nodes[0], kp, 2, Insert("t", {"qty": 1, "name": "a"})),
        submit(net, nodes[3], kp, 2, Insert("t", {"qty": 2, "name": "b"})),
    ]
    net.run_for(20000)
    winners = [tx for tx in rivals if tx.tx_id in nodes[0].committed_txs]
    assert len(winners) == 1
    loser = next(tx for tx in rivals if tx is not winners[0])
    for n in nodes:
        assert n.tx_status(winners[0].tx_id)[0] == "validated"
        assert n.tx_status(loser.tx_id) == ("unknown", None)
        assert n.server_info(net.now).open_tx_count == 0
        assert n.engine.open_frames == {} and n.engine.known_frames == set()


def test_store_holds_the_tip_state_after_every_step():
    # Reads, submit checks and checkpoints all use a node's store, so after
    # every simulator event it holds exactly the state of the node's tip:
    # while a ledger is built and accepted, while a partition keeps one side
    # behind, and across the sync that heals it.
    net, nodes = build_cluster(5, seed=67)
    kp = account("writer")
    accepted = set()

    def checked(done):
        def predicate(_net):
            for n in nodes:
                if n.node_id not in net.killed:
                    assert state_hash(n.store) == n.tip.state_hash, (n.node_id, n.tip.seq, n.engine.phase)
                    if n.engine.phase is ConsensusPhase.ACCEPTED:
                        accepted.add(n.node_id)
            return done()
        return predicate

    def committed(txs):
        return lambda: all(tx.tx_id in n.committed_txs for n in nodes for tx in txs)

    txs = [submit(net, nodes[0], kp, 1, CreateTable("t", SCHEMA))]
    txs += [submit(net, nodes[i], kp, i + 2, Insert("t", {"qty": i, "name": "a"})) for i in range(3)]
    assert net.run_until(checked(committed(txs)), net.now + 30000).satisfied
    net.partition([("n1", "n2", "n3", "n4"), ("n5",)])
    txs += [submit(net, nodes[0], kp, seq, Insert("t", {"qty": seq, "name": "b"})) for seq in (5, 6)]
    assert net.run_until(
        checked(lambda: all(txs[-1].tx_id in n.committed_txs for n in nodes[:4])), net.now + 30000
    ).satisfied
    synced_seq = nodes[0].tip.seq
    assert nodes[4].tip.seq < synced_seq
    net.heal()
    assert net.run_until(checked(committed(txs)), net.now + 30000).satisfied
    assert synced_seq not in nodes[4].commit_times  # adopted by sync, not built
    assert accepted == {n.node_id for n in nodes}


def test_rejected_tx_commits_as_noop():
    net, nodes = build_cluster(3, seed=7)
    kp = account("writer")
    tx = submit(net, nodes[0], kp, 1, Insert("nowhere", {"a": 1}))
    run_until_committed(net, nodes, [tx.tx_id])
    for n in nodes:
        status, outcome = n.tx_status(tx.tx_id)
        assert status == "validated"
        assert not outcome.applied
        assert outcome.reason == "no_such_table"
        assert state_hash(n.store) == state_hash(sqlvm.TableStore())


def test_mixed_ledger_outcomes_survive_restart(tmp_path):
    # Outcomes of a live commit are the results kept from the build; a restart
    # replays the stored blocks through apply_ledger. Both must index the
    # same outcome for every tx of the ledger.
    net, nodes = build_cluster(5, seed=31, data_root=tmp_path)
    owner, other, stranger = account("owner"), account("other"), account("stranger")
    run_until_committed(net, nodes, [submit(net, nodes[0], owner, 1, CreateTable("t", SCHEMA)).tx_id])
    txs = [
        submit(net, nodes[0], owner, 2, Insert("t", {"qty": 1, "name": "a"})),
        submit(net, nodes[0], other, 1, Insert("nowhere", {"qty": 1})),
        submit(net, nodes[0], stranger, 1, Insert("t", {"qty": 2, "name": "b"})),
        submit(net, nodes[0], owner, 3, Insert("t", {"qty": "x", "name": "c"})),
    ]
    run_until_committed(net, nodes, [tx.tx_id for tx in txs])
    outcomes = [nodes[0].committed_txs[tx.tx_id] for tx in txs]
    assert len({o.ledger_seq for o in outcomes}) == 1
    assert [(o.applied, o.reason) for o in outcomes] == [
        (True, None),
        (False, "no_such_table"),
        (False, "permission_denied"),
        (False, "type_mismatch"),
    ]
    for n in nodes:
        before = dict(n.committed_txs)
        n._load_from_disk()
        assert n.committed_txs == before


def test_submit_rules():
    net, nodes = build_cluster(3, seed=5)
    kp = account("writer")
    node = nodes[0]
    tx = make_tx(kp, 1, CreateTable("t", SCHEMA))
    assert node.submit_transaction(tx).status == "accepted"
    assert node.submit_transaction(tx).status == "duplicate"
    forged = make_tx(kp, 2, Insert("t", {"qty": 1, "name": "x"}))
    forged = type(forged)(forged.account, 2, forged.op, forged.public_key, b"\x00" * 32)
    res = node.submit_transaction(forged)
    assert (res.status, res.reason) == ("rejected", "bad_signature")
    run_until_committed(net, nodes, [tx.tx_id])
    stale = make_tx(kp, 1, Insert("t", {"qty": 1, "name": "x"}))
    res = node.submit_transaction(stale)
    assert (res.status, res.reason) == ("rejected", "stale_seq")
    # Submitting the committed tx again is a duplicate, not an error.
    assert node.submit_transaction(tx).status == "duplicate"


def test_submit_via_killed_node_unreachable():
    net, nodes = build_cluster(3, seed=5)
    net.kill("n2")
    res = submit_via(net, "n2", make_tx(account("w"), 1, CreateTable("t", SCHEMA)))
    assert (res.status, res.reason) == ("rejected", "unreachable")


def test_same_tx_submitted_to_three_nodes_commits_once():
    net, nodes = build_cluster(5, seed=23)
    kp = account("writer")
    tx = make_tx(kp, 1, CreateTable("t", SCHEMA))
    for node in nodes[:3]:
        assert submit_via(net, node.node_id, tx).ok
    run_until_committed(net, nodes, [tx.tx_id])
    for n in nodes:
        assert chain_occurrences(n, tx.tx_id) == 1


def test_read_your_writes_and_query_routing():
    net, nodes = build_cluster(3, seed=9)
    kp = account("writer")
    acct = AccountId.from_public_key(kp.public_key)
    tx1 = submit(net, nodes[0], kp, 1, CreateTable("inv", SCHEMA))
    tx2 = submit(net, nodes[0], kp, 2, Insert("inv", {"qty": 5, "name": "bolt"}))
    run_until_committed(net, nodes, [tx1.tx_id, tx2.tx_id])
    for n in nodes:
        rows = n.read_query(SelectQuery("inv", (("qty", 5),)), acct)
        assert [r.values for r in rows] == [{"qty": 5, "name": "bolt"}]
    # combined_access routes writes to the chain and reads to the store.
    handle = nodes[0].combined_access(
        Update("inv", (), {"qty": 9}), signer=kp
    )
    assert handle.status()[0] == "pending"
    run_until_committed(net, nodes, [handle.tx_id])
    assert handle.status()[0] == "validated"
    assert nodes[0].combined_access(SelectQuery("inv", ()), as_account=acct)[0].values[
        "qty"
    ] == 9


def test_detached_node_serves_no_reads():
    net, nodes = build_cluster(3, seed=3, detached=("n2",))
    kp = account("writer")
    tx = submit(net, nodes[0], kp, 1, CreateTable("t", SCHEMA))
    run_until_committed(net, nodes, [tx.tx_id])
    acct = AccountId.from_public_key(kp.public_key)
    with pytest.raises(DbNotAttachedError):
        nodes[1].read_query(SelectQuery("t", ()), acct)
    # Detached nodes still vote: the tx committed on all three.
    assert nodes[1].tip.seq >= 1


def test_read_refused_when_lagging_validated_tip():
    _, node, _ = _solo()
    node.known_validated_seq = node.applied_seq + 2  # beyond gap_limit 1
    with pytest.raises(NotSyncedError) as e:
        node.read_query(SelectQuery("t", ()), AccountId(b"\x00" * 20))
    assert e.value.validated_seq == node.applied_seq + 2
    node.known_validated_seq = node.applied_seq + 1  # within the limit
    with pytest.raises(sqlvm.QueryError):  # table is missing, but reads are allowed
        node.read_query(SelectQuery("t", ()), AccountId(b"\x00" * 20))


def test_next_seq_hint_tracks_open_txs():
    net, node, _ = _solo()
    kp = account("hinter")
    acct = AccountId.from_public_key(kp.public_key)
    assert node.next_seq_hint(acct) == 1
    node.submit_transaction(make_tx(kp, 1, CreateTable("t", SCHEMA)))
    assert node.next_seq_hint(acct) == 2
    # A gapped open tx does not advance the hint past the gap.
    node.submit_transaction(make_tx(kp, 5, Insert("t", {"qty": 1, "name": "x"})))
    assert node.next_seq_hint(acct) == 2


def test_malformed_wire_bytes_ignored():
    _, node, _ = _solo()
    assert node.on_message(0, "stranger", b"\x00\x01garbage") == []


def test_server_info_and_peers():
    net, nodes = build_cluster(3, seed=13)
    kp = account("writer")
    tx = submit(net, nodes[0], kp, 1, CreateTable("t", SCHEMA))
    run_until_committed(net, nodes, [tx.tx_id])
    info = nodes[0].server_info(net.now)
    assert info.node_id == "n1"
    assert info.peer_count == 2
    assert info.validated_seq == nodes[0].tip.seq
    assert info.applied_seq == nodes[0].tip.seq
    assert info.voting is True
    j = info.to_json()
    assert j["role"] == "full"
    assert j["validated_hash"] == nodes[0].tip.hash().hex()
    peer_ids = [p for p, _ in nodes[0].peers()]
    assert peer_ids == ["n2", "n3"]


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def test_solo_node_commits_and_restarts_from_disk(tmp_path):
    net, node, cfg = _solo(tmp_path / "solo")
    kp = account("writer")
    txs = [
        submit(net, node, kp, 1, CreateTable("inv", SCHEMA)),
        submit(net, node, kp, 2, Insert("inv", {"qty": 5, "name": "bolt"})),
        submit(net, node, kp, 3, Insert("missing", {"a": 1})),  # committed reject
    ]
    run_until_committed(net, [node], [t.tx_id for t in txs])
    assert verify_stored_dir(tmp_path / "solo").ok
    reborn = Node(cfg)
    assert reborn.tip.hash() == node.tip.hash()
    assert state_hash(reborn.store) == state_hash(node.store)
    assert reborn.applied_seq == node.applied_seq
    status, outcome = reborn.tx_status(txs[2].tx_id)
    assert status == "validated"
    assert outcome.reason == "no_such_table"


def test_corrupt_disk_refuses_to_load(tmp_path):
    data = tmp_path / "solo"
    net, node, cfg = _solo(data)
    kp = account("writer")
    tx = submit(net, node, kp, 1, CreateTable("t", SCHEMA))
    run_until_committed(net, [node], [tx.tx_id])
    victim = data / "ledger_1.blk"
    original = victim.read_bytes()
    raw = bytearray(original)
    raw[len(raw) // 2] ^= 0xFF
    victim.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="corrupt"):
        Node(cfg)
    victim.write_bytes(original)
    # A re-hashed tip with a forged state passes the manifest pin; the tip
    # state check on restart still catches it.
    seq = forge_tip(data)
    with pytest.raises(ValueError, match=rf"BrokenAt\({seq}, state_mismatch\)"):
        Node(cfg)


# ---------------------------------------------------------------------------
# Joins and sync
# ---------------------------------------------------------------------------


def _add_observer(net, nodes, name="n9"):
    cfg = NodeConfig(
        node_id=name,
        unl=Unl(tuple(n.node_id for n in nodes)),
        consensus=nodes[0].config.consensus,
    )
    observer = Node(cfg, now=net.now, voting=False)
    net.register(observer)
    return observer


def test_observer_joins_via_heartbeats():
    net, nodes = build_cluster(3, seed=31)
    kp = account("writer")
    tx1 = submit(net, nodes[0], kp, 1, CreateTable("t", SCHEMA))
    tx2 = submit(net, nodes[0], kp, 2, Insert("t", {"qty": 1, "name": "a"}))
    run_until_committed(net, nodes, [tx1.tx_id, tx2.tx_id])
    observer = _add_observer(net, nodes)
    assert not observer.voting
    res = net.run_until(
        lambda _n: observer.tip.seq == nodes[0].tip.seq and observer.voting,
        net.now + 30000,
    )
    assert res.satisfied
    assert observer.tip.hash() == nodes[0].tip.hash()
    assert state_hash(observer.store) == state_hash(nodes[0].store)
    # The newcomer participates from here on.
    tx3 = submit(net, observer, kp, 3, Insert("t", {"qty": 2, "name": "b"}))
    run_until_committed(net, nodes + [observer], [tx3.tx_id])


def test_sync_from_full_peer_explicit():
    net, nodes = build_cluster(3, seed=37)
    kp = account("writer")
    tx = submit(net, nodes[0], kp, 1, CreateTable("t", SCHEMA))
    run_until_committed(net, nodes, [tx.tx_id])
    observer = _add_observer(net, nodes)
    report = sync_from_peer(net, observer.node_id, "n1")
    assert report.ok and not report.used_checkpoint
    assert report.became_voting
    assert observer.tip.hash() == nodes[0].tip.hash()
    # Syncing again at an equal tip verifies and stays put.
    again = sync_from_peer(net, observer.node_id, "n2")
    assert again.ok and again.from_seq == again.to_seq == observer.tip.seq


def test_capped_sync_reply_applies_after_peer_moves_on():
    # A request capped at a heartbeat's tip is answered up to the cap, and
    # the reply advertises the cap, even once the peer has committed past it.
    net, nodes = build_cluster(3, seed=37)
    kp = account("writer")
    tx1 = submit(net, nodes[0], kp, 1, CreateTable("t", SCHEMA))
    run_until_committed(net, nodes, [tx1.tx_id])
    cap = nodes[0].tip.seq
    tx2 = submit(net, nodes[0], kp, 2, Insert("t", {"qty": 1, "name": "a"}))
    run_until_committed(net, nodes, [tx2.tx_id])
    assert nodes[0].tip.seq > cap
    observer = _add_observer(net, nodes)
    reply = nodes[0]._serve_ledgers(LedgerRequest(observer.node_id, 1, cap))
    capped = nodes[0].chain_tail[cap].header
    assert (reply.tip_seq, reply.tip_header_hash, reply.tip_state_hash) == (
        cap,
        capped.hash(),
        capped.state_hash,
    )
    report = observer.apply_sync(reply)
    assert report.ok and report.to_seq == cap
    assert observer.tip == capped
    assert observer.committed_state_hash() == capped.state_hash


def test_killed_peer_cannot_serve_sync():
    net, nodes = build_cluster(3, seed=37)
    observer = _add_observer(net, nodes)
    net.kill("n1")
    report = sync_from_peer(net, observer.node_id, "n1")
    assert not report.ok and report.reason == "peer unreachable"


def test_tampered_sync_payload_rejected_and_state_untouched():
    net, nodes = build_cluster(3, seed=41)
    kp = account("writer")
    tx = submit(net, nodes[0], kp, 1, CreateTable("t", SCHEMA))
    run_until_committed(net, nodes, [tx.tx_id])
    observer = _add_observer(net, nodes)
    reply = nodes[0]._serve_ledgers(LedgerRequest(observer.node_id, 1, 99))
    # Flip one byte inside the last served block.
    blobs = list(reply.ledgers)
    raw = bytearray(blobs[-1])
    raw[len(raw) // 2] ^= 0x01
    blobs[-1] = bytes(raw)
    tampered = LedgerData(
        reply.responder,
        reply.tip_seq,
        reply.tip_header_hash,
        reply.tip_state_hash,
        tuple(blobs),
    )
    before = state_hash(observer.store)
    report = observer.apply_sync(tampered)
    assert not report.ok
    assert report.reason.startswith("BrokenAt")
    assert state_hash(observer.store) == before
    assert observer.tip.seq == 0
    assert not observer.voting
    # The untampered original still applies cleanly.
    assert observer.apply_sync(reply).ok


def test_heartbeat_catchup_after_isolation():
    net, nodes = build_cluster(5, seed=43)
    kp = account("writer")
    tx0 = submit(net, nodes[0], kp, 1, CreateTable("t", SCHEMA))
    run_until_committed(net, nodes, [tx0.tx_id])
    net.partition([("n1", "n2", "n3", "n4"), ("n5",)])
    tx1 = submit(net, nodes[0], kp, 2, Insert("t", {"qty": 1, "name": "a"}))
    run_until_committed(net, nodes[:4], [tx1.tx_id])
    lagging = nodes[4]
    assert lagging.tip.seq < nodes[0].tip.seq
    net.heal()
    res = net.run_until(
        lambda _n: lagging.tip.hash() == nodes[0].tip.hash(), net.now + 30000
    )
    assert res.satisfied
    assert state_hash(lagging.store) == state_hash(nodes[0].store)


# ---------------------------------------------------------------------------
# Fault handling
# ---------------------------------------------------------------------------


def test_one_dead_voter_of_five_keeps_committing():
    net, nodes = build_cluster(5, seed=47)
    net.kill("n5")
    kp = account("writer")
    tx1 = submit(net, nodes[0], kp, 1, CreateTable("t", SCHEMA))
    tx2 = submit(net, nodes[0], kp, 2, Insert("t", {"qty": 1, "name": "a"}))
    run_until_committed(net, nodes, [tx1.tx_id, tx2.tx_id])  # live nodes only
    live_tips = {n.tip.hash() for n in nodes[:4]}
    assert len(live_tips) == 1
    net.revive("n5")
    res = net.run_until(
        lambda _n: nodes[4].tip.hash() == nodes[0].tip.hash(), net.now + 30000
    )
    assert res.satisfied
    assert nodes[4].voting
    assert state_hash(nodes[4].store) == state_hash(nodes[0].store)


def test_revived_node_commits_the_ledger_it_built():
    # Revived without a data dir, a node keeps its engine state, and so the
    # ledger it accepted with the store it built; its commit adopts them.
    net, nodes = build_cluster(5, seed=29)
    kp = account("writer")
    txs = [submit(net, nodes[0], kp, 1, CreateTable("t", SCHEMA))]
    run = net.run_until(
        lambda _n: any(n.engine.phase is ConsensusPhase.ACCEPTED for n in nodes), net.now + 10000
    )
    assert run.satisfied
    target = next(n for n in nodes if n.engine.phase is ConsensusPhase.ACCEPTED)
    built = target.engine.accepted_ledger
    assert target._built[0] is built
    net.kill(target.node_id)
    net.revive(target.node_id)
    for seq in range(2, 6):
        txs.append(submit(net, nodes[seq % 5], kp, seq, Insert("t", {"qty": seq, "name": "a"})))
        run_until_committed(net, nodes, [txs[-1].tx_id])
    run_until_tip(net, nodes, max(n.tip.seq for n in nodes))
    assert target.chain_tail[built.seq] is built and built.seq in target.commit_times
    for n in nodes:
        assert n.tip.hash() == nodes[0].tip.hash()
        assert state_hash(n.store) == state_hash(nodes[0].store)
        assert n._built is None
        assert all(chain_occurrences(n, tx.tx_id) == 1 for tx in txs)


def test_partition_stalls_and_rolls_back_pending_state():
    net, nodes = build_cluster(5, seed=53)
    kp = account("writer")
    tx0 = submit(net, nodes[0], kp, 1, CreateTable("t", SCHEMA))
    run_until_committed(net, nodes, [tx0.tx_id])
    h0 = {n.node_id: n.committed_state_hash() for n in nodes}
    tip0 = nodes[0].tip.seq
    # 2|3 split: neither side can reach 4 of 5.
    net.partition([("n1", "n2"), ("n3", "n4", "n5")])
    pending = submit(net, nodes[0], kp, 2, Insert("t", {"qty": 1, "name": "a"}))
    net.run_for(10 * 1000)
    for n in nodes:
        assert n.tip.seq == tip0, f"{n.node_id} advanced during partition"
        assert n.store._overlay is None  # optimistic work rolled back
        assert state_hash(n.store) == h0[n.node_id]
        assert n.committed_state_hash() == h0[n.node_id]
    status, _ = nodes[0].tx_status(pending.tx_id)
    assert status == "pending"
    net.heal()
    run_until_committed(net, nodes, [pending.tx_id])
    assert {n.tip.hash() for n in nodes} == {nodes[0].tip.hash()}


# ---------------------------------------------------------------------------
# Partial-record nodes: checkpoints, pruning, serving from a checkpoint
# ---------------------------------------------------------------------------


def _partial_solo(tmp_path, retain_last=5):
    cfg = NodeConfig(
        node_id="solo",
        unl=Unl(()),
        role=NodeRole.partial(retain_last),
        consensus=ConsensusConfig(round_interval_ms=100),
        data_dir=tmp_path,
    )
    net = SimNetwork(seed=2, jitter_ms=0)
    node = Node(cfg)
    net.register(node)
    return net, node, cfg


def _drive_to_tip(net, nodes, kp, target, start_seq=1):
    """One tx per ledger: submit, wait for the commit, repeat."""
    seq = start_seq
    for tip in range(nodes[0].tip.seq + 1, target + 1):
        if seq == 1:
            submit(net, nodes[0], kp, 1, CreateTable("t", SCHEMA))
        else:
            submit(net, nodes[0], kp, seq, Insert("t", {"qty": seq, "name": "x"}))
        run_until_tip(net, nodes, tip)
        seq += 1


def test_prune_arithmetic_and_verifiability(tmp_path):
    data = tmp_path / "partial"
    net, node, cfg = _partial_solo(data, retain_last=5)
    kp = account("writer")
    _drive_to_tip(net, [node], kp, 12)
    assert node.tip.seq == 12
    pruned = node.prune()
    # Horizon 12 - 5 = 7; the auto-checkpoint at 10 anchors the suffix.
    assert (pruned.from_seq, pruned.to_seq, pruned.checkpoint_seq) == (1, 7, 10)
    assert not (data / "ledger_7.blk").exists()
    assert (data / "ledger_8.blk").exists()
    assert sorted(node.chain_tail) == [0] + list(range(8, 13))
    # The stored remainder still verifies through the manifest anchor.
    assert verify_stored_dir(data).ok
    # And a fresh process can reload from checkpoint + suffix.
    reborn = Node(cfg)
    assert reborn.tip.hash() == node.tip.hash()
    assert state_hash(reborn.store) == state_hash(node.store)


def test_prune_requires_partial_role_and_checkpoint(tmp_path):
    net, node, _ = _solo(tmp_path / "full")
    with pytest.raises(ValueError, match="partial-record"):
        node.prune()
    data = tmp_path / "p2"
    net2, partial, _ = _partial_solo(data, retain_last=2)
    kp = account("w")
    _drive_to_tip(net2, [partial], kp, 1)
    # Horizon below 1: nothing to do.
    assert partial.prune() == PrunedRange(0, 0, 0)
    _drive_to_tip(net2, [partial], kp, 5, start_seq=2)
    for p in data.glob("ckpt_*.snap"):
        p.unlink()
    with pytest.raises(ValueError, match="no checkpoint"):
        partial.prune()


def test_join_from_pruned_partial_peer_uses_checkpoint(tmp_path):
    # A cluster where one partial node prunes its prefix, then a newcomer
    # syncs from it: the checkpoint path must land on the same state as a
    # full-history sync.
    net, nodes = build_cluster(
        3,
        seed=59,
        round_interval_ms=200,
        data_root=tmp_path,
        roles={"n2": NodeRole.partial(2)},
    )
    kp = account("writer")
    # Reach tip 10 one ledger at a time so the automatic checkpoint at
    # applied seq 10 covers the prune horizon (10 - retain_last 2 = 8).
    _drive_to_tip(net, nodes, kp, 10)
    partial = nodes[1]
    pruned = partial.prune()
    assert pruned == PrunedRange(1, 8, 10)
    observer_full = _add_observer(net, nodes, name="n8")
    observer_cp = _add_observer(net, nodes, name="n9")
    full_report = sync_from_peer(net, "n8", "n1")
    cp_report = sync_from_peer(net, "n9", "n2")
    assert full_report.ok and not full_report.used_checkpoint
    assert cp_report.ok and cp_report.used_checkpoint
    assert observer_cp.tip.hash() == observer_full.tip.hash()
    assert state_hash(observer_cp.store) == state_hash(observer_full.store)
    assert observer_cp.voting


def test_lagging_node_retries_heartbeat_sync_request():
    # n5 loses the validations of one ledger and every LedgerData reply to
    # its heartbeat-triggered requests. Once the loss stops, the peers stay
    # quiescent (no new txs, so their tip and heartbeats never change), and
    # n5 catches up only because it asks again after a round without
    # progress.
    net, nodes = build_cluster(5, seed=53)
    kp = account("laggard")
    run_until_committed(net, nodes, [submit(net, nodes[0], kp, 1, CreateTable("t", SCHEMA)).tx_id])
    target = nodes[4]
    requests = []

    def hook(frm, to, payload):
        if frm == target.node_id and payload[4] == netsim.MSG_LEDGER_REQUEST:
            requests.append(to)
        if to == target.node_id and payload[4] in (netsim.MSG_VALIDATION, netsim.MSG_LEDGER_DATA):
            return payload[:-1]  # truncated: fails to decode
        return payload

    net.transit_hook = hook
    tx = submit(net, nodes[0], kp, 2, Insert("t", {"qty": 1, "name": "a"}))
    run_until_committed(net, nodes[:4], [tx.tx_id])
    net.run_for(3000)
    tip = nodes[0].tip.seq
    assert target.tip.seq == tip - 1 and requests, (target.tip.seq, tip, requests)
    net.transit_hook = None
    assert net.run_until(lambda _n: target.tip.seq == tip, net.now + 4000).satisfied
    assert all(n.tip.seq == tip for n in nodes)
    assert target.committed_state_hash() == nodes[0].committed_state_hash()
