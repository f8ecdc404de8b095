"""Plain Bloom filter, one per incarnation.

A super table keeps one Bloom filter per on-flash incarnation (§5.1 of the
paper).  The filter is built while items are inserted into the in-memory
buffer; when the buffer is flushed, the filter becomes the signature of the
new incarnation and is retained in DRAM until that incarnation is evicted.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from repro.core.hashing import KeyLike, double_hashes


def optimal_num_hashes(bits_per_item: float) -> int:
    """Number of hash functions minimising false positives: ``m/n * ln 2``."""
    if bits_per_item <= 0:
        raise ValueError("bits_per_item must be positive")
    return max(1, round(bits_per_item * math.log(2)))


def false_positive_rate(num_bits: int, num_items: int, num_hashes: int) -> float:
    """Theoretical false-positive probability of a Bloom filter."""
    if num_bits <= 0:
        raise ValueError("num_bits must be positive")
    if num_items < 0:
        raise ValueError("num_items must be non-negative")
    if num_hashes <= 0:
        raise ValueError("num_hashes must be positive")
    if num_items == 0:
        return 0.0
    fill = 1.0 - math.exp(-num_hashes * num_items / num_bits)
    return fill ** num_hashes


class BloomFilter:
    """A fixed-size Bloom filter over arbitrary keys.

    The bit array is a mutable ``bytearray`` (padded to whole 64-bit words),
    so ``add`` flips bits in place in O(1) per hash instead of rebuilding an
    immutable big-int of ``num_bits`` size on every set bit, and
    ``fill_fraction`` popcounts the array a word at a time.  ``copy`` — used
    when the filter is frozen alongside a flushed incarnation — is a single
    ``bytearray`` clone.
    """

    __slots__ = ("num_bits", "num_hashes", "_bits", "_count")

    def __init__(self, num_bits: int, num_hashes: int) -> None:
        if num_bits <= 0:
            raise ValueError("num_bits must be positive")
        if num_hashes <= 0:
            raise ValueError("num_hashes must be positive")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        # Padded to a multiple of 8 bytes so fill_fraction can view the
        # buffer as 64-bit words; bits >= num_bits are never set.
        self._bits = bytearray(((num_bits + 63) // 64) * 8)
        self._count = 0

    @classmethod
    def for_capacity(cls, capacity: int, bits_per_item: float = 16.0) -> "BloomFilter":
        """Build a filter sized for ``capacity`` items at ``bits_per_item``."""
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        num_bits = max(8, int(capacity * bits_per_item))
        return cls(num_bits=num_bits, num_hashes=optimal_num_hashes(bits_per_item))

    @property
    def item_count(self) -> int:
        """Number of keys added so far."""
        return self._count

    def bit_positions(self, key: KeyLike) -> list[int]:
        """The bit indices this key maps to."""
        return double_hashes(key, self.num_hashes, self.num_bits)

    def add(self, key: KeyLike) -> None:
        """Insert a key into the filter."""
        bits = self._bits
        for position in double_hashes(key, self.num_hashes, self.num_bits):
            bits[position >> 3] |= 1 << (position & 7)
        self._count += 1

    def update(self, keys: Iterable[KeyLike]) -> None:
        """Insert many keys."""
        for key in keys:
            self.add(key)

    def __contains__(self, key: KeyLike) -> bool:
        bits = self._bits
        for position in double_hashes(key, self.num_hashes, self.num_bits):
            if not bits[position >> 3] & (1 << (position & 7)):
                return False
        return True

    def may_contain(self, key: KeyLike) -> bool:
        """Alias of ``key in filter`` for readability at call sites."""
        return key in self

    def iter_set_bits(self) -> Iterator[int]:
        """Indices of set bits in increasing order.

        The bit-sliced array (:mod:`repro.core.sliced_bloom`) transposes a
        frozen filter through this, so an alternative bit-storage
        implementation only needs to provide this one accessor.
        """
        for byte_index, byte in enumerate(self._bits):
            if byte:
                base = byte_index << 3
                while byte:
                    low = byte & -byte
                    yield base + low.bit_length() - 1
                    byte ^= low

    def expected_false_positive_rate(self) -> float:
        """Theoretical false-positive rate at the current fill level."""
        return false_positive_rate(self.num_bits, self._count, self.num_hashes)

    def fill_fraction(self) -> float:
        """Fraction of bits set, popcounted a 64-bit word at a time."""
        ones = sum(word.bit_count() for word in memoryview(self._bits).cast("Q"))
        return ones / self.num_bits

    def clear(self) -> None:
        """Reset the filter to empty."""
        self._bits = bytearray(len(self._bits))
        self._count = 0

    def copy(self) -> "BloomFilter":
        """An independent copy (used when freezing the buffer's filter)."""
        clone = type(self)(self.num_bits, self.num_hashes)
        clone._bits = bytearray(self._bits)
        clone._count = self._count
        return clone

    def to_bytes(self) -> bytes:
        """The raw bit array (checkpoint serialisation)."""
        return bytes(self._bits)

    @classmethod
    def from_bytes(
        cls, num_bits: int, num_hashes: int, data: bytes, item_count: int = 0
    ) -> "BloomFilter":
        """Rebuild a filter from :meth:`to_bytes` output (crash recovery)."""
        clone = cls(num_bits, num_hashes)
        if len(data) != len(clone._bits):
            raise ValueError(
                f"bit array of {len(data)} bytes does not match num_bits={num_bits}"
            )
        clone._bits = bytearray(data)
        clone._count = item_count
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BloomFilter(num_bits={self.num_bits}, num_hashes={self.num_hashes}, "
            f"items={self._count})"
        )
