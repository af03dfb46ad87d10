"""The three benchmark workloads: ``ingest``, ``bigtable`` and ``recovery``.

Each workload is one function ``episode(seed, ctx)``. It builds everything
from the seed (accounts, signed transactions, preloaded chains, data
directories) before the timed window, runs the window inside
``ctx.window()``, checks the outcome, and returns an ``Episode``. The
simulator's jitter comes from the seed and ``ctx.schedule``. Two calls with
one seed and schedule repeat every sim-time and count figure exactly.

All clusters are 5 validators whose UNL is the other four, quorum 0.8,
1000 ms rounds, 10 ms base latency, 5 ms jitter and no random drops. Load is
open-loop on the simulated clock: a write or read is issued when the sim
clock reaches its due time, whatever the cluster is doing.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from chainlog import ledger as lgr
from chainlog import middleware as mw
from chainlog import netsim
from chainlog import node as nd
from chainlog import signing
from chainlog import sqlvm
from chainlog.consensus import ConsensusConfig, Unl
from chainlog.ledger import AccountId, ColumnType, Perm
from chainlog.node import Node, NodeConfig, NodeRole, SelectQuery

VALIDATORS = tuple(f"n{i}" for i in range(1, 6))
ROUND_MS = 1000
BASE_LATENCY_MS = 10
JITTER_MS = 5
TABLE = "t"
SCHEMA = (("k", ColumnType.INT), ("v", ColumnType.TEXT))
_WORDS = ("ada", "bell", "cray", "dijkstra", "elgamal", "fano", "gray", "hoare")
DRAIN_LIMIT_MS = 120_000


class CheckFailed(Exception):
    """A correctness check of the workload's output failed."""


@dataclass
class Episode:
    """Raw results of one set-up plus one timed window."""

    window_s: float
    committed_txs: int  # txs made durable in the window (see README)
    ledgers: int  # ledgers committed or replayed in the window
    wire_bytes: int
    frames: int
    commit_sim_ms: List[int]
    read_us: List[float]
    ops_attempted: int
    ops_failed: int
    extra: Dict[str, float] = field(default_factory=dict)
    sizes: Dict[str, object] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)  # sim counts for per-layer metrics
    # Filled in by the runner, which times the set-up and owns the meters.
    setup_s: float = 0.0
    frames_by_tag: List[int] = field(default_factory=list)
    host_samples: List[float] = field(default_factory=list)  # hostspeed probe slices, seconds


# ---------------------------------------------------------------------------
# Shared building blocks
# ---------------------------------------------------------------------------


def keypairs(seed: int, label: str, count: int, scheme: int) -> List[signing.KeyPair]:
    rng = random.Random(f"{seed}:{label}")
    return [signing.generate_keypair(scheme, rng.randbytes(32)) for _ in range(count)]


def account_of(kp: signing.KeyPair) -> AccountId:
    return AccountId.from_public_key(kp.public_key)


def table_setup_ops(owner: signing.KeyPair, writers: List[signing.KeyPair]) -> list:
    """CreateTable plus a full grant to every other writer, all from ``owner``."""
    perms = frozenset(Perm)
    ops = [lgr.CreateTable(TABLE, SCHEMA)]
    ops += [lgr.Grant(TABLE, account_of(kp), perms) for kp in writers if kp is not owner]
    return [lgr.sign_transaction(owner, i, op) for i, op in enumerate(ops, 1)]


def network(seed: int, ctx) -> netsim.SimNetwork:
    """The simulator for one episode: its jitter schedule is ``ctx.schedule`` of ``seed``."""
    return netsim.SimNetwork(seed=seed * 1000 + ctx.schedule, base_latency_ms=BASE_LATENCY_MS, jitter_ms=JITTER_MS)


def cluster(net: netsim.SimNetwork, data_root: Optional[Path] = None) -> List[Node]:
    cfg = ConsensusConfig(round_interval_ms=ROUND_MS)
    nodes = []
    for name in VALIDATORS:
        config = NodeConfig(
            node_id=name,
            unl=Unl(tuple(p for p in VALIDATORS if p != name)),
            consensus=cfg,
            data_dir=(data_root / name) if data_root is not None else None,
        )
        node = Node(config)
        net.register(node)
        nodes.append(node)
    return nodes


def chain_of(txs_per_ledger: List[list], checkpoint_seq: int = 0):
    """Build a valid chain from genesis, one ledger per tx batch.

    Returns the chain, the final store, and a checkpoint taken after ledger
    ``checkpoint_seq`` (None when it is 0).
    """
    store = sqlvm.TableStore()
    checkpoint = None
    chain = [lgr.genesis_ledger(sqlvm.state_hash(store))]
    for batch in txs_per_ledger:
        # Apply in the ledger's canonical order, then seal the post-apply state.
        for tx in sorted(batch, key=lgr.Transaction.sort_key):
            if not sqlvm.apply_op(store, tx).ok:
                raise CheckFailed(f"generated tx for ledger {len(chain)} was rejected")
        store.applied_ledger_seq += 1
        parent = chain[-1].header
        chain.append(lgr.build_ledger(parent, batch, sqlvm.state_hash(store), parent.close_time + ROUND_MS))
        if store.applied_ledger_seq == checkpoint_seq:
            checkpoint = sqlvm.make_checkpoint(store)
    return chain, store, checkpoint


def write_data_dir(path: Path, chain: List[lgr.Ledger], block_seqs, checkpoint=None) -> None:
    """Lay out a node data dir: manifest for the whole chain, chosen blocks, checkpoint."""
    path.mkdir(parents=True)
    for ledger in chain:
        lgr.append_manifest(path, ledger.seq, ledger.header.hash())
    for seq in block_seqs:
        lgr.write_block_file(path, chain[seq])
    if checkpoint is not None:
        sqlvm.write_checkpoint_file(path, checkpoint)


def op_kinds(rng: random.Random, count: int, update_frac: float, delete_frac: float) -> List[str]:
    """Exactly round(frac * count) updates and deletes, the rest inserts, shuffled.

    Exact counts keep the write mix, and so the row-scan work, the same for
    every seed; only the order and the keys change.
    """
    updates, deletes = int(update_frac * count + 0.5), int(delete_frac * count + 0.5)
    kinds = ["update"] * updates + ["delete"] * deletes + ["insert"] * (count - updates - deletes)
    rng.shuffle(kinds)
    return kinds


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 1]); the median uses statistics.median."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, -(-int(q * 1000) * len(ordered) // 1000))  # ceil(q * n) without float round-up
    return ordered[min(rank, len(ordered)) - 1]


class Schedule:
    """Open-loop load generator: advance the sim clock to each due time, then act.

    ``watch`` is an optional O(1) predicate evaluated on every sim step; the
    first sim time it holds is recorded in ``watch_time``. ``each_second``
    runs whenever the sim clock enters a new second.
    """

    def __init__(self, net: netsim.SimNetwork, each_second: Callable[[], None] = lambda: None) -> None:
        self.net = net
        self.each_second = each_second
        self._second = net.now // 1000
        self.watch: Optional[Callable[[], bool]] = None
        self.watch_time: Optional[int] = None
        self._until: Callable[[], bool] = lambda: False

    def _check(self, _net) -> bool:
        if self.net.now // 1000 > self._second:
            self._second = self.net.now // 1000
            self.each_second()
        if self.watch is not None and self.watch():
            self.watch_time = self.net.now
            self.watch = None
        return self._until()

    def advance_to(self, due: int) -> None:
        net = self.net
        net.run_until(self._check, due)
        if due > net.now:
            net.run_for(due - net.now)

    def run_until(self, pred: Callable[[], bool], limit_ms: int) -> bool:
        self._until = pred
        try:
            return self.net.run_until(self._check, self.net.now + limit_ms).satisfied
        finally:
            self._until = lambda: False


def commit_latencies(
    writes: List[Tuple[int, str, lgr.Transaction]], nodes: Dict[str, Node], sync_times
) -> List[int]:
    """Sim ms from each write's due time to its commit on the node it was sent to.

    A ledger a node took over by sync has no local commit time; the sync's
    sim time (recorded by the meter) stands in for it.
    """
    out = []
    for due, node_id, tx in writes:
        node = nodes[node_id]
        outcome = node.committed_txs[tx.tx_id]
        at = node.commit_times.get(outcome.ledger_seq)
        if at is None:
            at = sync_times[(node_id, outcome.ledger_seq)]
        out.append(at - due)
    return out


def check_cluster(
    nodes: List[Node], writes, first_seq: int, center: Optional[mw.RecoveryCenter] = None
) -> int:
    """Agreement on tip and state, exactly-once commit; returns failed writes."""
    ref = nodes[0]
    ref_state = ref.committed_state_hash()
    for node in nodes:
        if node.tip.hash() != ref.tip.hash():
            raise CheckFailed(f"{node.node_id} tip {node.tip.seq} differs from {ref.node_id} {ref.tip.seq}")
        if node.committed_state_hash() != ref_state:
            raise CheckFailed(f"{node.node_id} state hash differs from {ref.node_id}")
    if center is not None:
        if center.alarm or center.last_shipped_seq != ref.tip.seq:
            raise CheckFailed(f"DR center at {center.last_shipped_seq} (alarm {center.alarm}), tip {ref.tip.seq}")
        if sqlvm.state_hash(center.store) != ref_state:
            raise CheckFailed("DR center state hash differs from the cluster")
    seen = Counter(
        tx.tx_id for seq in range(first_seq, ref.tip.seq + 1) for tx in ref.chain_tail[seq].txs
    )
    failed = 0
    for _due, _node_id, tx in writes:
        if seen[tx.tx_id] != 1:
            raise CheckFailed(f"tx {tx.tx_id.hex()} appears {seen[tx.tx_id]} times in the chain")
        for node in nodes:
            outcome = node.committed_txs.get(tx.tx_id)
            if outcome is None or not outcome.applied:
                failed += 1
                break
    if sum(seen.values()) != len(seen):
        raise CheckFailed("a tx id appears more than once in the chain")
    return failed


def rounds_per_ledger(nodes: List[Node], first_seq: int) -> float:
    rounds = [r for n in nodes for s, r in n.commit_rounds.items() if s >= first_seq]
    return statistics.fmean(rounds) if rounds else 0.0


def nonempty_ratio(node: Node, first_seq: int) -> float:
    seqs = range(first_seq, node.tip.seq + 1)
    return sum(1 for s in seqs if node.chain_tail[s].txs) / max(1, len(seqs))


# ---------------------------------------------------------------------------
# ingest: per-transaction costs on an empty table
# ---------------------------------------------------------------------------

INGEST = {"accounts": 20, "txs": 2000, "tx_per_sim_s": 200, "reads_per_sim_s": 20}


def ingest(seed: int, ctx) -> Episode:
    sizes = dict(INGEST)
    rng = random.Random(f"{seed}:ingest")
    kps = keypairs(seed, "ingest", sizes["accounts"], signing.SCHEME_HASH_TEST)
    owner = kps[0]
    setup_txs = table_setup_ops(owner, kps)
    next_seq = {i: 1 for i in range(len(kps))}
    next_seq[0] = len(setup_txs) + 1
    keys = rng.sample(range(1, 1 << 40), sizes["txs"])
    gap_ms = 1000 // sizes["tx_per_sim_s"]
    plan = []  # (offset_ms, kind, node index, item)
    for i, k in enumerate(keys):
        a = i % len(kps)
        tx = lgr.sign_transaction(kps[a], next_seq[a], lgr.Insert(TABLE, {"k": k, "v": rng.choice(_WORDS)}))
        next_seq[a] += 1
        plan.append((i * gap_ms, 0, i % len(VALIDATORS), tx))
    read_gap = 1000 // sizes["reads_per_sim_s"]
    for j in range(sizes["txs"] * gap_ms // read_gap):
        due = j * read_gap
        k = keys[max(0, (due - 2000) // gap_ms)]  # a key written about 2 s earlier
        plan.append((due, 1, j % len(VALIDATORS), SelectQuery(TABLE, (("k", k),))))
    plan.sort(key=lambda p: (p[0], p[1]))

    net = network(seed, ctx)
    nodes = cluster(net)
    for tx in setup_txs:
        if not nd.submit_via(net, nodes[0].node_id, tx).ok:
            raise CheckFailed("set-up tx refused")
    sched = Schedule(net, ctx.sample_host)
    if not sched.run_until(lambda: all(len(n.committed_txs) >= len(setup_txs) for n in nodes), DRAIN_LIMIT_MS):
        raise CheckFailed("set-up txs never committed")
    net.run_for(ROUND_MS)
    return _run_live(ctx, net, nodes, sched, plan, owner, sizes)


def _run_live(ctx, net, nodes, sched, plan, reader, sizes, fault=None, center=None) -> Episode:
    """The timed window shared by ingest and bigtable."""
    by_id = {n.node_id: n for n in nodes}
    first_seq = nodes[0].tip.seq + 1
    start_time = net.now
    base = [len(n.committed_txs) for n in nodes]
    reader_id = account_of(reader)
    writes = []
    read_us = []
    refused = read_failed = 0
    rejects = Counter()
    catchup = None
    dropped0 = net.dropped_count
    with ctx.window() as meter:
        for offset, kind, idx, item in plan:
            sched.advance_to(start_time + offset)
            if kind == 0:
                node_id = VALIDATORS[idx]
                result = nd.submit_via(net, node_id, item)
                if result.ok:
                    writes.append((start_time + offset, node_id, item))
                else:
                    refused += 1
                    rejects[result.reason] += 1
            elif kind == 1:
                node = nodes[idx]
                t0 = time.perf_counter()
                try:
                    node.read_query(item, reader_id)
                except (nd.NotSyncedError, sqlvm.QueryError):
                    read_failed += 1
                    continue
                read_us.append((time.perf_counter() - t0) * 1e6)
            elif kind == 2:
                net.partition(item)
            elif kind == 3:
                net.heal()
                healed_at = net.now
                lagger = by_id[fault]
                others = [n for n in nodes if n is not lagger]
                sched.watch = lambda: lagger.voting and lagger.tip.seq >= max(n.tip.seq for n in others)
        drained = sched.run_until(
            lambda: all(len(n.committed_txs) >= b + len(writes) for n, b in zip(nodes, base)), DRAIN_LIMIT_MS
        )
        if center is not None:
            net.run_for(center.ship_interval_ms)  # the DR center ships on its own timer
    if fault is not None:
        if sched.watch_time is None:
            raise CheckFailed(f"{fault} never caught up after the heal")
        catchup = sched.watch_time - healed_at
    if not drained:
        raise CheckFailed("writes were not committed on every node within the drain limit")
    failed = check_cluster(nodes, writes, first_seq, center) + refused
    ledgers = nodes[0].tip.seq - first_seq + 1
    ep = Episode(
        window_s=meter.wall_s,
        committed_txs=len(writes),
        ledgers=ledgers,
        wire_bytes=meter.bytes,
        frames=meter.frames,
        commit_sim_ms=commit_latencies(writes, by_id, meter.sync_times),
        read_us=read_us,
        ops_attempted=len(writes) + refused + len(read_us) + read_failed,
        ops_failed=failed + read_failed,
        sizes=sizes,
    )
    if catchup is not None:
        ep.extra["catchup_sim_ms"] = float(catchup)
    ep.layer.update(
        validators=len(nodes),
        rounds_per_ledger=rounds_per_ledger(nodes, first_seq),
        nonempty_ledger_ratio=nonempty_ratio(nodes[0], first_seq),
        dropped_frames=net.dropped_count - dropped0,
        **{f"reject.{reason}": count for reason, count in rejects.items()},
    )
    if center is not None:
        lags = [center.ship_latency_ms(s) for s in range(first_seq, nodes[0].tip.seq + 1)]
        lags = [x for x in lags if x is not None]
        ep.layer["ship_lag_sim_ms"] = statistics.fmean(lags) if lags else 0.0
    return ep


# ---------------------------------------------------------------------------
# bigtable: per-ledger costs on a 10k-row table, reads beside writes, a fault
# ---------------------------------------------------------------------------

BIGTABLE = {
    "accounts": 8,
    "preload_rows": 10_000,
    "preload_ledgers": 10,
    "writes": 100,
    "update_frac": 0.4,
    "delete_frac": 0.2,
    "writes_per_sim_s": 10,
    "reads_per_sim_s": 20,
    "fault_node": "n3",
    "fault_at_ms": 4000,
    "fault_len_ms": 4000,
}


def bigtable(seed: int, ctx) -> Episode:
    sizes = dict(BIGTABLE)
    rng = random.Random(f"{seed}:bigtable")
    kps = keypairs(seed, "bigtable", sizes["accounts"], signing.SCHEME_HASH_TEST)
    setup_txs = table_setup_ops(kps[0], kps)
    seq = {i: 1 for i in range(len(kps))}
    seq[0] = len(setup_txs) + 1
    per = sizes["preload_rows"] // sizes["preload_ledgers"]
    batches = [setup_txs]
    for b in range(sizes["preload_ledgers"]):
        batch = []
        for k in range(b * per, (b + 1) * per):
            a = k % len(kps)
            batch.append(lgr.sign_transaction(kps[a], seq[a], lgr.Insert(TABLE, {"k": k, "v": rng.choice(_WORDS)})))
            seq[a] += 1
        batches.append(batch)
    chain, store, cp = chain_of(batches, len(batches))
    tip = chain[-1].seq

    # INSERT a new key, or UPDATE / DELETE a live one.
    live = list(range(sizes["preload_rows"]))
    next_key = sizes["preload_rows"]
    gap_ms = 1000 // sizes["writes_per_sim_s"]
    plan = []
    kinds = op_kinds(rng, sizes["writes"], sizes["update_frac"], sizes["delete_frac"])
    for i, kind in enumerate(kinds):
        a = i % len(kps)
        if kind == "insert":
            op = lgr.Insert(TABLE, {"k": next_key, "v": rng.choice(_WORDS)})
            live.append(next_key)
            next_key += 1
        elif kind == "update":
            op = lgr.Update(TABLE, (("k", rng.choice(live)),), {"v": rng.choice(_WORDS)})
        else:
            op = lgr.Delete(TABLE, (("k", live.pop(rng.randrange(len(live)))),))
        plan.append((i * gap_ms, 0, i % len(VALIDATORS), lgr.sign_transaction(kps[a], seq[a], op)))
        seq[a] += 1
    readers = [i for i, name in enumerate(VALIDATORS) if name != sizes["fault_node"]]
    read_gap = 1000 // sizes["reads_per_sim_s"]
    for j in range(sizes["writes"] * gap_ms // read_gap):
        k = rng.randrange(next_key)
        plan.append((j * read_gap, 1, readers[j % len(readers)], SelectQuery(TABLE, (("k", k),))))
    majority = [n for n in VALIDATORS if n != sizes["fault_node"]] + ["dr"]
    plan.append((sizes["fault_at_ms"], 2, 0, [majority, [sizes["fault_node"]]]))
    plan.append((sizes["fault_at_ms"] + sizes["fault_len_ms"], 3, 0, None))
    plan.sort(key=lambda p: (p[0], p[1]))

    # Boot every validator from a checkpointed data dir at the preload tip.
    root = ctx.tmp_dir("bigtable")
    for name in VALIDATORS:
        write_data_dir(root / name, chain, [tip], cp)
    net = network(seed, ctx)
    nodes = cluster(net, root)
    if any(n.tip.hash() != chain[-1].header.hash() for n in nodes):
        raise CheckFailed("a node did not boot at the checkpointed tip")
    center = mw.RecoveryCenter("dr", nodes[-1])
    # RecoveryCenter has no public way to start from a checkpoint: seed its
    # shipped prefix with the checkpointed store and anchor directly.
    center.store = sqlvm.restore_checkpoint(cp)
    center.last_shipped_seq = tip
    center._last_hash = chain[-1].header.hash()
    net.register(center)
    net.run_for(ROUND_MS)
    sched = Schedule(net, ctx.sample_host)
    return _run_live(ctx, net, nodes, sched, plan, kps[0], sizes, fault=sizes["fault_node"], center=center)


# ---------------------------------------------------------------------------
# recovery: joins from a full and a pruned peer, then a complete audit
# ---------------------------------------------------------------------------

RECOVERY = {
    "accounts": 8,
    "ledgers": 100,
    "txs_per_ledger": 30,
    "update_frac": 0.08,
    "delete_frac": 0.04,
    "checkpoint_seq": 51,
    "read_bursts": 5,  # after each join and between the audit's three stages
    "reads_per_burst": 40,
}


def _recovery_chain(seed: int, sizes: dict):
    rng = random.Random(f"{seed}:recovery")
    kps = keypairs(seed, "recovery", sizes["accounts"], signing.SCHEME_ED25519)
    setup_txs = table_setup_ops(kps[0], kps)
    seq = {i: 1 for i in range(len(kps))}
    seq[0] = len(setup_txs) + 1
    batches = [setup_txs]
    live: List[int] = []
    next_key = 0
    for _ in range(sizes["ledgers"]):
        batch = []
        committed = list(live)  # keys of earlier ledgers only: each tx hits a real row
        gone = set()
        kinds = op_kinds(rng, sizes["txs_per_ledger"], sizes["update_frac"], sizes["delete_frac"])
        for kind in kinds:
            a = (len(batch) + len(batches)) % len(kps)
            if kind == "insert" or len(committed) - len(gone) < 10:
                op = lgr.Insert(TABLE, {"k": next_key, "v": rng.choice(_WORDS)})
                live.append(next_key)
                next_key += 1
            else:
                k = rng.choice(committed)
                while k in gone:
                    k = rng.choice(committed)
                if kind == "update":
                    op = lgr.Update(TABLE, (("k", k),), {"v": rng.choice(_WORDS)})
                else:
                    op = lgr.Delete(TABLE, (("k", k),))
                    gone.add(k)
                    live.remove(k)
            batch.append(lgr.sign_transaction(kps[a], seq[a], op))
            seq[a] += 1
        batches.append(batch)
    chain, store, cp = chain_of(batches, sizes["checkpoint_seq"])
    return kps, chain, store, cp, next_key


def _peer(net, name: str, unl, data_dir: Path, role: NodeRole) -> Node:
    config = NodeConfig(
        node_id=name, unl=Unl(tuple(unl)), role=role, consensus=ConsensusConfig(round_interval_ms=ROUND_MS),
        data_dir=data_dir,
    )
    node = Node(config, now=net.now, voting=False)
    net.register(node)
    return node


def recovery(seed: int, ctx) -> Episode:
    sizes = dict(RECOVERY)
    kps, chain, store, cp, key_space = _recovery_chain(seed, sizes)
    cp_seq = sizes["checkpoint_seq"]
    root = ctx.tmp_dir("recovery")
    full_dir, part_dir = root / "full", root / "pruned"
    write_data_dir(full_dir, chain, range(len(chain)))
    write_data_dir(part_dir, chain, range(cp_seq, len(chain)), cp)
    net = network(seed, ctx)
    full = _peer(net, "full", ["pruned"], full_dir, NodeRole.full())
    pruned = _peer(net, "pruned", ["full"], part_dir, NodeRole.partial(2))
    tip = chain[-1].header
    for peer in (full, pruned):
        if peer.tip.hash() != tip.hash() or peer.committed_state_hash() != sqlvm.state_hash(store):
            raise CheckFailed(f"peer {peer.node_id} did not boot at the chain tip")
    rng = random.Random(f"{seed}:recovery-reads")
    queries = [
        SelectQuery(TABLE, (("k", rng.randrange(key_space)),))
        for _ in range(sizes["read_bursts"] * sizes["reads_per_burst"])
    ]
    reader = account_of(kps[0])
    all_tx_ids = [tx.tx_id for ledger in chain for tx in ledger.txs]
    net.run_for(ROUND_MS // 2)
    sched = Schedule(net, ctx.sample_host)

    joins = {}
    read_us: List[float] = []
    failed = 0
    replayed_txs = replayed_ledgers = 0
    dropped0 = net.dropped_count
    pending = iter(queries)

    def read_burst() -> None:
        # Spread over the window, the reads sample the host at several moments.
        nonlocal failed
        ctx.sample_host()
        joined = [j[2] for j in joins.values()]
        for i, q in zip(range(sizes["reads_per_burst"]), pending):
            t1 = time.perf_counter()
            try:
                joined[i % len(joined)].read_query(q, reader)
            except (nd.NotSyncedError, sqlvm.QueryError):
                failed += 1
                continue
            read_us.append((time.perf_counter() - t1) * 1e6)

    with ctx.window() as meter:
        # A join from the pruned peer replays only the suffix after its checkpoint.
        for joiner_id, peer, first in (("j1", full, 1), ("j2", pruned, cp_seq + 1)):
            t0 = time.perf_counter()
            sim0 = net.now
            joiner = Node(
                NodeConfig(
                    node_id=joiner_id, unl=Unl((peer.node_id,)), consensus=ConsensusConfig(round_interval_ms=ROUND_MS)
                ),
                now=net.now,
                voting=False,
            )
            net.register(joiner)
            ok = sched.run_until(lambda: joiner.voting and joiner.tip.seq == tip.seq, DRAIN_LIMIT_MS)
            joins[joiner_id] = (time.perf_counter() - t0, net.now - sim0, joiner, peer, ok)
            replayed_ledgers += tip.seq - first + 1
            replayed_txs += sum(len(chain[s].txs) for s in range(first, tip.seq + 1))
            if not ok:
                break
            read_burst()
        audit_ok, audit_state, audit_s = audit(full_dir, between=read_burst)
    replayed_txs += sum(len(l.txs) for l in chain)
    replayed_ledgers += len(chain) - 1

    for joiner_id, (_, _, joiner, peer, ok) in joins.items():
        if not ok:
            raise CheckFailed(f"{joiner_id} never joined from {peer.node_id}")
        if joiner.tip.hash() != peer.tip.hash() or joiner.committed_state_hash() != peer.committed_state_hash():
            raise CheckFailed(f"{joiner_id} state differs from its peer {peer.node_id}")
    if not audit_ok or audit_state != full.committed_state_hash():
        raise CheckFailed("the audit did not reproduce the live state hash")
    seen = Counter(tx.tx_id for s in sorted(full.chain_tail) for tx in full.chain_tail[s].txs)
    if any(seen[t] != 1 for t in all_tx_ids) or len(seen) != len(all_tx_ids):
        raise CheckFailed("the full peer's chain does not hold every tx exactly once")

    ep = Episode(
        window_s=meter.wall_s,
        committed_txs=replayed_txs,
        ledgers=replayed_ledgers,
        wire_bytes=meter.bytes,
        frames=meter.frames,
        commit_sim_ms=[joins[j][1] for j in ("j1", "j2")],
        read_us=read_us,
        ops_attempted=len(joins) + 1 + len(queries),
        ops_failed=failed,
        sizes=sizes,
    )
    ep.extra.update(
        join_full_s=joins["j1"][0],
        join_pruned_s=joins["j2"][0],
        audit_ledgers_per_s=(len(chain) - 1) / audit_s,
    )
    ep.layer.update(validators=1, dropped_frames=net.dropped_count - dropped0)
    return ep


def audit(data_dir: Path, between: Callable[[], None] = lambda: None) -> Tuple[bool, bytes, float]:
    """The complete audit from block files: structure, signatures, replayed state.

    Returns (ok, replayed state hash, audit seconds). ``between`` runs after
    each of the three stages; its time is not counted as audit time.
    """
    t0 = time.perf_counter()
    paused = 0.0

    def pause() -> None:
        nonlocal paused
        t1 = time.perf_counter()
        between()
        paused += time.perf_counter() - t1

    if not lgr.verify_stored_dir(data_dir):
        return False, b"", 0.0
    chain = lgr.load_chain(data_dir)
    pause()
    if not all(lgr.verify_signature(tx) for ledger in chain for tx in ledger.txs):
        return False, b"", 0.0
    pause()
    try:
        store = sqlvm.replay_chain(chain, check_state=True)
    except ValueError:
        return False, b"", 0.0
    state = sqlvm.state_hash(store)
    elapsed = time.perf_counter() - t0 - paused
    pause()
    return True, state, elapsed


WORKLOADS = {"ingest": ingest, "bigtable": bigtable, "recovery": recovery}
# Jitter schedules every run of a workload covers; its sim-time and count
# metrics pool them. On ingest the number of establish rounds, and with it
# the frames per tx, depends on the schedule by up to ±10%; pooling three
# keeps that from dominating the run-to-run spread.
SCHEDULES = {"ingest": 3, "bigtable": 1, "recovery": 1}
