"""Shared fixtures and builders for the test suite.

Everything random is seeded; tests construct their own ``random.Random``
instances so no test depends on collection order.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

import pytest

from chainlog import ledger as lgr
from chainlog import netsim
from chainlog import node as nd
from chainlog import signing
from chainlog.consensus import ConsensusConfig, Unl
from chainlog.ledger import AccountId, ColumnType, Transaction
from chainlog.node import Node, NodeConfig


# Populated by the acceptance tests; echoed after the run so the verdict
# lines survive pytest's output capture.
ACCEPTANCE_LINES: List[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance gate")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def account(label: str) -> signing.KeyPair:
    return signing.account_keypair(label)


def make_tx(keypair: signing.KeyPair, seq: int, op) -> Transaction:
    return lgr.sign_transaction(keypair, seq, op)


# ---------------------------------------------------------------------------
# Cluster builders
# ---------------------------------------------------------------------------


def build_cluster(
    n: int,
    seed: int,
    *,
    round_interval_ms: int = 1000,
    base_latency_ms: int = 10,
    jitter_ms: int = 5,
    drop_rate: float = 0.0,
    data_root=None,
    roles: Optional[Dict[str, nd.NodeRole]] = None,
    detached: Tuple[str, ...] = (),
) -> Tuple[netsim.SimNetwork, List[Node]]:
    """n fully-connected voting nodes named n1..n{n} on a fresh simulator."""
    names = [f"n{i}" for i in range(1, n + 1)]
    net = netsim.SimNetwork(
        seed=seed,
        base_latency_ms=base_latency_ms,
        jitter_ms=jitter_ms,
        drop_rate=drop_rate,
    )
    cfg = ConsensusConfig(round_interval_ms=round_interval_ms)
    nodes = []
    for name in names:
        config = NodeConfig(
            node_id=name,
            unl=Unl(tuple(p for p in names if p != name)),
            role=(roles or {}).get(name, nd.NodeRole.full()),
            db_attached=name not in detached,
            consensus=cfg,
            data_dir=(data_root / name) if data_root else None,
        )
        node = Node(config)
        net.register(node)
        nodes.append(node)
    return net, nodes


def submit(net: netsim.SimNetwork, node: Node, keypair, seq: int, op) -> Transaction:
    tx = make_tx(keypair, seq, op)
    result = nd.submit_via(net, node.node_id, tx)
    assert result.ok, f"submit failed: {result.reason}"
    return tx


def run_until_tip(net: netsim.SimNetwork, nodes, seq: int, timeout_ms: int = 60000):
    live = [n for n in nodes if n.node_id not in net.killed]
    run = net.run_until(
        lambda _n: all(n.tip.seq >= seq for n in live), net.now + timeout_ms
    )
    assert run.satisfied, f"tips {[n.tip.seq for n in live]} never reached {seq}"
    return run


def run_until_committed(net, nodes, tx_ids, timeout_ms: int = 60000):
    live = [n for n in nodes if n.node_id not in net.killed]
    run = net.run_until(
        lambda _n: all(
            all(t in n.committed_txs for t in tx_ids) for n in live
        ),
        net.now + timeout_ms,
    )
    assert run.satisfied, "transactions never committed everywhere"
    return run


def full_chain(node: Node) -> list:
    return [node.chain_tail[s] for s in sorted(node.chain_tail)]


def forge_ledger(ledger: lgr.Ledger, bad_signature: bool = False, state_hash=None) -> lgr.Ledger:
    """A self-consistent rewrite: the header is re-hashed over the new txs.

    Parse, tx-set and link checks all pass on it; only a signature check
    (``bad_signature``) or a replayed state (``state_hash``) can tell.
    """
    txs = ledger.txs
    if bad_signature:
        tx = txs[0]
        sig = bytes(b ^ 0xFF for b in tx.signature)
        txs = (Transaction(tx.account, tx.seq, tx.op, tx.public_key, sig),) + txs[1:]
    h = ledger.header
    header = lgr.LedgerHeader(
        h.seq, h.parent_hash, lgr.compute_tx_set_hash(txs), state_hash or h.state_hash, h.close_time
    )
    return lgr.Ledger(header, txs)


def forge_tip(data_dir, bad_signature: bool = False) -> int:
    """Forge the stored tip with a wrong state hash and re-pin it in the manifest.

    This is what a writer with access to the data directory can do; the
    storage check passes and only replay catches it. Returns the tip seq.
    """
    blocks = lgr.read_block_files(data_dir)
    seq = max(blocks)
    tip = lgr.parse_block_file(blocks[seq])
    forged = forge_ledger(tip, bad_signature, state_hash=b"\x09" * 32)
    lgr.write_block_file(data_dir, forged)
    manifest = data_dir / lgr.MANIFEST_NAME
    lines = [l for l in manifest.read_text().splitlines() if not l.startswith(f"{seq} ")]
    lines.append(f"{seq} {forged.header.hash().hex()}")
    manifest.write_text("".join(line + "\n" for line in lines))
    return seq


def chain_occurrences(node: Node, tx_id: bytes) -> int:
    return sum(
        1
        for ledger in node.chain_tail.values()
        for tx in ledger.txs
        if tx.tx_id == tx_id
    )


# ---------------------------------------------------------------------------
# Random operation workloads
# ---------------------------------------------------------------------------

_COLUMN_POOL = (
    ("qty", ColumnType.INT),
    ("name", ColumnType.TEXT),
    ("note", ColumnType.TEXT),
    ("score", ColumnType.INT),
)
_WORDS = ("ada", "bell", "cray", "dijkstra", "elgamal", "fano")


class WorkloadGen:
    """Seeded generator of mostly-applying operations with some rejects.

    Tracks the schemas it created so Inserts usually cover them; a slice of
    deliberately invalid ops (missing table, wrong type, foreign owner) keeps
    the reject paths exercised.
    """

    def __init__(self, rng: random.Random, owners: List[signing.KeyPair]) -> None:
        self.rng = rng
        self.owners = owners
        self.schemas: Dict[str, tuple] = {}
        self.owner_of: Dict[str, int] = {}
        self._serial = 0

    def _value(self, col_type: ColumnType):
        if col_type is ColumnType.INT:
            return self.rng.randint(-1000, 1000)
        return self.rng.choice(_WORDS)

    def _table_name(self) -> str:
        self._serial += 1
        return f"t{self._serial}"

    def _signer_for(self, table: str) -> int:
        # Mostly the owner (applies cleanly); sometimes a stranger, which is
        # permission_denied unless a Grant happened to cover it.
        if self.rng.random() < 0.85:
            return self.owner_of[table]
        return self.rng.randrange(len(self.owners))

    def next(self):
        """(signer_index, op) for the next workload step."""
        rng = self.rng
        roll = rng.random()
        if not self.schemas or roll < 0.15:
            cols = tuple(
                rng.sample(_COLUMN_POOL, rng.randint(1, len(_COLUMN_POOL)))
            )
            name = self._table_name()
            self.schemas[name] = cols
            owner = rng.randrange(len(self.owners))
            self.owner_of[name] = owner
            return owner, lgr.CreateTable(name, cols)
        table = rng.choice(sorted(self.schemas))
        cols = self.schemas[table]
        if roll < 0.55:
            values = {c: self._value(t) for c, t in cols}
            if rng.random() < 0.08:
                # Wrong type on purpose: replay must reject identically.
                col, col_type = rng.choice(cols)
                values[col] = "oops" if col_type is ColumnType.INT else 0
            return self._signer_for(table), lgr.Insert(table, values)
        if roll < 0.7:
            col, col_type = rng.choice(cols)
            where = ((col, self._value(col_type)),) if rng.random() < 0.8 else ()
            set_col, set_type = rng.choice(cols)
            op = lgr.Update(table, where, {set_col: self._value(set_type)})
            return self._signer_for(table), op
        if roll < 0.8:
            col, col_type = rng.choice(cols)
            op = lgr.Delete(table, ((col, self._value(col_type)),))
            return self._signer_for(table), op
        if roll < 0.9:
            grantee = AccountId.from_public_key(
                rng.choice(self.owners).public_key
            )
            perms = frozenset(
                rng.sample(tuple(lgr.Perm), rng.randint(1, 4))
            )
            return self.owner_of[table], lgr.Grant(table, grantee, perms)
        # Missing table: a guaranteed deterministic no_such_table reject.
        return rng.randrange(len(self.owners)), lgr.Insert("never_created", {"qty": 1})


def random_workload(seed: int, count: int, num_accounts: int = 3):
    """[(keypair, seq, op)] with contiguous per-account seqs, seeded."""
    rng = random.Random(seed)
    owners = [account(f"wl{seed}a{i}") for i in range(num_accounts)]
    gen = WorkloadGen(rng, owners)
    seqs = [0] * num_accounts
    out = []
    for _ in range(count):
        i, op = gen.next()
        seqs[i] += 1
        out.append((owners[i], seqs[i], op))
    return out


_TEXT_CHARS = "az_Z09 \né€😀"


def random_tx(rng: random.Random, keypairs: List[signing.KeyPair], kind: int) -> Transaction:
    """A signed tx of op kind ``kind`` (0..5, ``OP_TAG`` order) with random
    names, full-range values and seq, signed by one of ``keypairs``."""

    def literal():
        if rng.random() < 0.5:
            return rng.randint(-(1 << 63), (1 << 63) - 1)
        return "".join(rng.choice(_TEXT_CHARS) for _ in range(rng.randrange(12)))

    def columns():
        return [f"c{i}" for i in rng.sample(range(20), rng.randint(1, 4))]

    table = rng.choice(("t", "inv", "T_9", "x" * lgr.MAX_NAME_LEN))
    if kind == 0:
        op = lgr.CreateTable(table, tuple((c, rng.choice(list(ColumnType))) for c in columns()))
    elif kind == 1:
        op = lgr.DropTable(table)
    elif kind == 2:
        op = lgr.Insert(table, {c: literal() for c in columns()})
    elif kind == 3:
        op = lgr.Update(table, tuple((c, literal()) for c in columns()), {c: literal() for c in columns()})
    elif kind == 4:
        op = lgr.Delete(table, tuple((c, literal()) for c in columns()) if rng.random() < 0.8 else ())
    else:
        grantee = AccountId(bytes(rng.randrange(256) for _ in range(lgr.ACCOUNT_LEN)))
        op = lgr.Grant(table, grantee, frozenset(rng.sample(list(lgr.Perm), rng.randint(0, 4))))
    return lgr.sign_transaction(rng.choice(keypairs), rng.randint(1, (1 << 64) - 1), op)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
