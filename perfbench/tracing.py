"""Span tracing around chainlog's public entry points, from outside the package.

``Tracer.install()`` replaces module functions and class methods of each
layer with wrappers that record a span per call: name, start, end, parent
span, and a tag (the first 8 bytes of the tx id for transaction-scoped
spans, the ledger seq for ledger-scoped ones). Calls inside chainlog resolve
these names at call time, so ``sqlvm.state_hash`` is caught inside
``begin_pending`` too. ``Transaction.decode_from`` is bound into
``netsim._DECODERS`` at import and cannot be wrapped; ``netsim.unpack_message``
stands for the decode path instead.

Spans are kept in flat arrays while recording is on and written out by
``write()`` after the run. Self time (duration minus the time covered by
child spans) is accumulated per name as spans close.
"""

from __future__ import annotations

import array
import gzip
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from chainlog import consensus, ledger, middleware, netsim, node, signing, sqlvm
from chainlog.ledger import Ledger, Transaction

_perf_ns = time.perf_counter_ns


def _tx_tag(tx) -> int:
    return int.from_bytes(tx.tx_id[:8], "big") if isinstance(tx, Transaction) else 0


def _arg_tx(index: int) -> Callable:
    return lambda args, result: (_tx_tag(args[index]) if len(args) > index else 0, -1)


def _result_tx(args, result):
    return _tx_tag(result), -1


def _arg_ledger(index: int) -> Callable:
    def tag(args, result):
        item = args[index] if len(args) > index else None
        return 0, item.seq if isinstance(item, Ledger) else -1
    return tag


def _result_ledger(args, result):
    return 0, result.seq if isinstance(result, Ledger) else -1


def _verify_scheme(args) -> str:
    key = args[0] if args else b""
    if key[:1] == bytes([signing.SCHEME_ED25519]):
        return "signing.verify.ed25519"
    return "signing.verify.hash-test"


# (owner, attribute, span name, tag function). The span name is the layer and
# the entry point; a callable name picks it per call.
ENTRY_POINTS: List[Tuple[object, str, object, Optional[Callable]]] = [
    (netsim, "pack_message", "codec.pack_message", None),
    (netsim, "unpack_message", "codec.unpack_message", _result_tx),
    (ledger, "deserialize_ledger", "codec.deserialize_ledger", _result_ledger),
    (ledger, "parse_block_file", "codec.parse_block_file", _result_ledger),
    (ledger, "serialize_ledger", "codec.serialize_ledger", _arg_ledger(0)),
    (signing, "verify", _verify_scheme, None),
    (signing, "sign", "signing.sign", None),
    (ledger, "verify_signature", "signing.verify_signature", _arg_tx(0)),
    (consensus, "verify_consensus_message", "signing.verify_consensus_message", None),
    (ledger, "build_ledger", "ledger.build_ledger", _result_ledger),
    (ledger, "write_block_file", "ledger.write_block_file", _arg_ledger(1)),
    (ledger, "append_manifest", "ledger.append_manifest", None),
    (ledger, "verify_stored_dir", "ledger.verify_stored_dir", None),
    (ledger, "load_chain", "ledger.load_chain", None),
    (sqlvm, "state_hash", "sqlvm.state_hash", None),
    (sqlvm.TableStore, "clone", "sqlvm.clone", None),
    (sqlvm, "apply_op", "sqlvm.apply_op", _arg_tx(1)),
    (sqlvm, "apply_ledger", "sqlvm.apply_ledger", _arg_ledger(1)),
    (sqlvm, "begin_pending", "sqlvm.begin_pending", None),
    (sqlvm, "rollback_pending", "sqlvm.rollback_pending", None),
    (sqlvm, "query_select", "sqlvm.query_select", None),
    (sqlvm, "replay_chain", "sqlvm.replay_chain", None),
    (sqlvm, "restore_checkpoint", "sqlvm.restore_checkpoint", None),
    (consensus.ConsensusEngine, "tick", "consensus.tick", None),
    (consensus.ConsensusEngine, "receive_proposal", "consensus.receive_proposal", None),
    (consensus.ConsensusEngine, "receive_validation", "consensus.receive_validation", None),
    (netsim.SimNetwork, "step", "netsim.step", None),
    (node.Node, "on_message", "node.on_message", None),
    (node.Node, "on_timer", "node.on_timer", None),
    (node.Node, "_build_ledger", "node.build_ledger", None),
    (node.Node, "submit_transaction", "node.submit_transaction", _arg_tx(1)),
    (node.Node, "read_query", "node.read_query", None),
    (node.Node, "apply_sync", "node.apply_sync", None),
    (node.Node, "_serve_ledgers", "node.serve_ledgers", None),
    (node, "submit_via", "node.submit_via", _arg_tx(2)),
    (middleware.RecoveryCenter, "tick", "middleware.center_tick", None),
]


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Records spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self) -> None:
        self.active = False
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array.array("H")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("q")
        self.tx = array.array("Q")
        self.seq = array.array("q")
        self.stats: Dict[str, Stat] = {}
        self._stack: List[int] = []
        self._child_ns: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = Stat()
        return idx

    def wrap(self, fn: Callable, name, tag: Optional[Callable] = None) -> Callable:
        tracer = self
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_name = fixed or name(args)
            idx = len(tracer.start)
            stack, child = tracer._stack, tracer._child_ns
            tracer.name_of.append(tracer._name_id(span_name))
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.start.append(0)
            tracer.end.append(0)
            tracer.tx.append(0)
            tracer.seq.append(-1)
            stack.append(idx)
            child.append(0)
            result = None
            t0 = _perf_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = _perf_ns()
                stack.pop()
                covered = child.pop()
                dur = t1 - t0
                if child:
                    child[-1] += dur
                st = tracer.stats[span_name]
                st.calls += 1
                st.total_ns += dur
                st.self_ns += dur - covered
                tracer.start[idx] = t0
                tracer.end[idx] = t1
                if tag is not None:
                    tracer.tx[idx], tracer.seq[idx] = tag(args, result)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, name, tag in ENTRY_POINTS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, tag))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    def top_level_ns(self) -> int:
        """Time covered by spans with no parent (disjoint by construction)."""
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0)

    def write(self, path: Path, meta: dict) -> None:
        """One JSON header line, then the span arrays in header order (gzip)."""
        arrays = {
            "name": self.name_of, "start_ns": self.start, "end_ns": self.end,
            "parent": self.parent, "tx": self.tx, "seq": self.seq,
        }
        header = dict(meta, names=self.names, spans=len(self.start),
                      arrays=[[k, a.typecode] for k, a in arrays.items()])
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wb", compresslevel=1) as f:
            f.write(json.dumps(header).encode() + b"\n")
            for a in arrays.values():
                f.write(a.tobytes())


def read_spans(path: Path) -> Tuple[dict, Dict[str, array.array]]:
    """Inverse of ``Tracer.write``: the header and each span array by name."""
    with gzip.open(path, "rb") as f:
        header = json.loads(f.readline())
        out = {}
        for key, code in header["arrays"]:
            a = array.array(code)
            a.frombytes(f.read(a.itemsize * header["spans"]))
            out[key] = a
    return header, out
