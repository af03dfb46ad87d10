"""Canonical binary encoding primitives.

Every structure that gets hashed, signed, or put on the wire is encoded
through this module so that all nodes produce identical bytes for identical
values: integers are fixed-width big-endian, byte strings are length-prefixed,
map entries are sorted by key bytes, and sum types carry a one-byte tag.

Decoding is strict. Truncation, trailing bytes, oversized lengths, and
non-canonical layouts (e.g. unsorted map keys) raise ``CodecError``. Strict
decoding makes the encoding injective: two distinct byte strings never decode
to equal values, which is what lets a single flipped bit anywhere surface as
either a parse failure or a hash mismatch.
"""

from __future__ import annotations

import operator
import struct

# Upper bound for any length prefix; prevents absurd allocations on corrupt input.
MAX_LEN = 1 << 26

U64_MAX = (1 << 64) - 1
I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1


class CodecError(ValueError):
    """Raised when bytes cannot be decoded as a canonical value."""


class Writer:
    """Accumulates canonical bytes."""

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def u8(self, value: int) -> None:
        if not 0 <= value <= 0xFF:
            raise ValueError(f"u8 out of range: {value}")
        self._buf.append(value)

    def u32(self, value: int) -> None:
        if not 0 <= value <= 0xFFFFFFFF:
            raise ValueError(f"u32 out of range: {value}")
        self._buf += struct.pack(">I", value)

    def u64(self, value: int) -> None:
        if not 0 <= value <= U64_MAX:
            raise ValueError(f"u64 out of range: {value}")
        self._buf += struct.pack(">Q", value)

    def i64(self, value: int) -> None:
        if not I64_MIN <= value <= I64_MAX:
            raise ValueError(f"i64 out of range: {value}")
        self._buf += struct.pack(">q", value)

    def raw(self, data: bytes) -> None:
        """Append bytes with no length prefix (fixed-width fields)."""
        self._buf += data

    def bytes_(self, data: bytes) -> None:
        if len(data) > MAX_LEN:
            raise ValueError(f"byte string too long: {len(data)}")
        self.u32(len(data))
        self._buf += data

    def str_(self, text: str) -> None:
        self.bytes_(text.encode("utf-8"))

    def getvalue(self) -> bytes:
        return bytes(self._buf)


class Reader:
    """Strict reader over canonical bytes."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if n < 0 or self._pos + n > len(self._data):
            raise CodecError(
                f"truncated input: need {n} bytes at offset {self._pos}, "
                f"have {len(self._data) - self._pos}"
            )
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return self._take(1)[0]

    def u32(self) -> int:
        return struct.unpack(">I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self._take(8))[0]

    def i64(self) -> int:
        return struct.unpack(">q", self._take(8))[0]

    def raw(self, n: int) -> bytes:
        return self._take(n)

    def bytes_(self) -> bytes:
        n = self.u32()
        if n > MAX_LEN:
            raise CodecError(f"length prefix too large: {n}")
        return self._take(n)

    def str_(self) -> str:
        data = self.bytes_()
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid UTF-8 string: {exc}") from None

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def tell(self) -> int:
        return self._pos

    def since(self, start: int) -> bytes:
        """The bytes read from offset ``start`` (a past ``tell()``) up to here."""
        return self._data[start : self._pos]

    def finish(self) -> None:
        """Assert the input was consumed exactly."""
        if self._pos != len(self._data):
            raise CodecError(
                f"{len(self._data) - self._pos} trailing bytes after value"
            )


def check_sorted_key(previous: bytes | None, key: bytes, what: str) -> bytes:
    """Enforce strictly ascending map keys while decoding."""
    if previous is not None and key <= previous:
        raise CodecError(f"non-canonical {what}: keys not strictly ascending")
    return key


def strictly_ascending(keys: tuple) -> bool:
    """True iff ``keys`` ascend strictly (so are also free of duplicates)."""
    return all(map(operator.lt, keys, keys[1:]))


def read_sorted_ids(r: Reader, count: int, width: int, what: str) -> tuple:
    """Read ``count`` fixed-width keys, strictly ascending, as one slice.

    ``count`` comes from a length prefix, so only the bytes left bound it:
    the slice raises on truncation before the unpack format is built.
    """
    blob = r.raw(count * width)
    keys = struct.unpack(f"{width}s" * count, blob)
    if not strictly_ascending(keys):
        raise CodecError(f"non-canonical {what}: keys not strictly ascending")
    return keys
