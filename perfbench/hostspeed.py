"""Host-speed reference for normalising wall-time metrics.

The hosts this benchmark runs on are shared. Their speed for one
single-threaded Python process swings by a factor of up to 1.7 over tens of
seconds to minutes. Wall metrics taken over a run inherit that swing,
whatever the run length. So every workload times short slices of this fixed
job at quiet points inside its timed window, leaving the slices out of the
window. The runner then scales the episode's wall figures by
``REFERENCE_S`` over the median slice time, which reports them at a fixed
reference speed. It prints the raw figures beside the scaled ones.

The job is shaped like chainlog's hot paths but calls no chainlog code, so a
change to chainlog cannot move it. It has five parts: ed25519 verifies and a
64 KiB SHA-256 (native code), then a filtered scan over row dicts, a
canonical byte encoding of the rows, SHA-256 over the result, and churn of
small objects (interpreter and memory bound).
"""

from __future__ import annotations

import hashlib
import random
import struct
import time

# Seconds per probe unit that define the reference speed; about what the
# unit takes on the 2-vCPU Xeon hosts the bounds were set on.
REFERENCE_S = 0.008
PROBE_S = 0.1  # around a set-up that has no window to sample in
SAMPLE_S = 0.05  # one slice inside a window

_rng = random.Random(5)
_ROWS = {
    rid: {"k": _rng.randrange(1 << 30), "v": _rng.choice(("ada", "bell", "cray"))}
    for rid in range(1, 4001)
}


def _ed25519_pair():
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

    key = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
    return key.public_key(), key.sign(b"probe")


_PUBLIC, _SIGNATURE = _ed25519_pair()
_BLOB = bytes(range(256)) * 256


def _unit() -> None:
    for _ in range(12):
        _PUBLIC.verify(_SIGNATURE, b"probe")
    hashlib.sha256(_BLOB).digest()
    rows = _ROWS
    [rid for rid in sorted(rows) if all(rows[rid][c] == lit for c, lit in (("k", 7),))]
    buf = bytearray()
    for rid in sorted(rows):
        vals = rows[rid]
        buf += struct.pack(">QI", rid, len(vals))
        for col in sorted(vals):
            value = vals[col]
            buf += col.encode() + (struct.pack(">q", value) if isinstance(value, int) else value.encode())
    digest = hashlib.sha256(bytes(buf)).digest()
    [(i, digest[i % 32]) for i in range(2000)]
    for _ in range(500):
        digest = hashlib.sha256(digest + b"x").digest()


def probe(seconds: float = PROBE_S) -> float:
    """Seconds per unit of the reference job, over about ``seconds``."""
    count = 0
    t0 = time.perf_counter()
    while True:
        _unit()
        count += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return elapsed / count
