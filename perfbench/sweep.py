"""Isolated per-layer costs: the ``sqlvm`` size sweep, codec and signing.

Each figure is the median of several timed calls on inputs built from the
seed. The stores are assembled directly from ``sqlvm.Table`` objects, so
building a 100k-row table costs no signing or apply work.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable, Dict

from chainlog import ledger as lgr
from chainlog import netsim, signing, sqlvm
from chainlog.ledger import AccountId, ColumnType

SIZES = {"rows_1k": 1_000, "rows_10k": 10_000, "rows_100k": 100_000}
_SCHEMA = (("k", ColumnType.INT), ("v", ColumnType.TEXT))


def _median_s(fn: Callable[[], object], reps: int, inner: int = 1) -> float:
    """Median seconds per call over ``reps`` batches of ``inner`` calls."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - t0) / inner)
    return statistics.median(times)


def _store(rows: int, rng: random.Random, owner: AccountId) -> sqlvm.TableStore:
    store = sqlvm.TableStore()
    data = {rid: {"k": rid - 1, "v": rng.choice(("ada", "bell", "cray"))} for rid in range(1, rows + 1)}
    store.tables["t"] = sqlvm.Table("t", _SCHEMA, owner, rows=data, next_row_id=rows + 1)
    store.account_seq[owner] = 1
    return store


def sweep(seed: int) -> Dict[str, float]:
    rng = random.Random(f"{seed}:sweep")
    out: Dict[str, float] = {}
    kps = {
        "hash-test": signing.generate_keypair(signing.SCHEME_HASH_TEST, rng.randbytes(32)),
        "ed25519": signing.generate_keypair(signing.SCHEME_ED25519, rng.randbytes(32)),
    }
    owner = AccountId.from_public_key(kps["hash-test"].public_key)
    for label, rows in SIZES.items():
        store = _store(rows, rng, owner)
        reps = 3 if rows >= 100_000 else 7
        out[f"sqlvm.state_hash_ms.{label}"] = 1e3 * _median_s(lambda: sqlvm.state_hash(store), reps)
        out[f"sqlvm.clone_ms.{label}"] = 1e3 * _median_s(store.clone, reps)
        where = (("k", rng.randrange(rows)),)
        out[f"sqlvm.query_select_us.{label}"] = 1e6 * _median_s(
            lambda: sqlvm.query_select(store, "t", where, owner), reps
        )
        del store

    tx = lgr.sign_transaction(kps["hash-test"], 1, lgr.Insert("t", {"k": 7, "v": "ada"}))
    frame = netsim.pack_message(tx)
    out["codec.tx_encode_us"] = 1e6 * _median_s(lambda: netsim.pack_message(tx), 21, 100)
    out["codec.tx_decode_us"] = 1e6 * _median_s(lambda: netsim.unpack_message(frame), 21, 100)
    message = tx.tx_id
    for scheme, kp in kps.items():
        sig = kp.sign(message)
        inner = 20 if scheme == "ed25519" else 100
        out[f"signing.sign_us.{scheme}"] = 1e6 * _median_s(lambda: kp.sign(message), 21, inner)
        out[f"signing.verify_isolated_us.{scheme}"] = 1e6 * _median_s(
            lambda: signing.verify(kp.public_key, message, sig), 21, inner
        )
    return out
