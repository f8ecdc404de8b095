"""On-flash incarnations: immutable hash tables produced by buffer flushes.

When a super table's in-memory buffer fills, its contents are written to
flash sequentially as a new *incarnation* (§5.1).  An incarnation is itself a
small hash table: keys are assigned to pages by hash, so a later lookup can
read just the one page that could contain the key instead of the whole
incarnation.  Pages that overflow spill into the following page and set a
continuation flag, which is why a small fraction of lookups in Table 2 of the
paper need two or three flash reads.

This module handles only the *layout* (serialising items into page images and
searching a page image for a key); placement of those pages on a device is
the responsibility of :mod:`repro.core.storage`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.errors import KeyTooLargeError
from repro.core.hashing import PAGE_SEED, KeyLike, as_digest, hash_key

_PAGE_HEADER = struct.Struct("<HB")  # entry count, overflow flag
_ENTRY_HEADER = struct.Struct("<HH")  # key length, value length

#: Hash seed used for assigning keys to incarnation pages (re-exported for
#: backwards compatibility; the canonical definition lives in
#: :mod:`repro.core.hashing` next to the other per-layer seeds).
_PAGE_SEED = PAGE_SEED


def page_index_for_key(key: KeyLike, num_pages: int) -> int:
    """The page a key hashes to within an incarnation of ``num_pages`` pages.

    Digest-aware: a :class:`~repro.core.hashing.KeyDigest` reuses its
    memoised page digest across the incarnations a lookup probes.
    """
    if num_pages <= 0:
        raise ValueError("num_pages must be positive")
    return hash_key(key, seed=PAGE_SEED) % num_pages


def _encode_entry(key: bytes, value: bytes) -> bytes:
    if len(key) > 0xFFFF or len(value) > 0xFFFF:
        raise KeyTooLargeError("keys and values must fit in 16-bit length fields")
    return _ENTRY_HEADER.pack(len(key), len(value)) + key + value


def _entry_size(key: bytes, value: bytes) -> int:
    return _ENTRY_HEADER.size + len(key) + len(value)


def required_pages(items: Dict[bytes, bytes], page_size: int, fill_factor: float = 0.7) -> int:
    """Minimum page count that comfortably holds ``items``.

    Used by the super table to grow an incarnation beyond its nominal size
    when the actual serialised entries are larger than the configuration's
    ``entry_size_bytes`` estimate (e.g. 20-byte SHA-1 keys with 8-byte
    values).  ``fill_factor`` leaves slack so hash-skewed pages rarely spill.
    """
    if page_size <= _PAGE_HEADER.size + _ENTRY_HEADER.size:
        raise ValueError("page_size too small to hold any entry")
    if not 0.0 < fill_factor <= 1.0:
        raise ValueError("fill_factor must be in (0, 1]")
    total = sum(_entry_size(key, value) for key, value in items.items())
    usable_per_page = (page_size - _PAGE_HEADER.size) * fill_factor
    return max(1, math.ceil(total / usable_per_page))


def build_pages(
    items: Dict[bytes, bytes],
    num_pages: int,
    page_size: int,
) -> List[bytes]:
    """Serialise ``items`` into ``num_pages`` page images of at most ``page_size`` bytes.

    Keys are placed on their hash-assigned page; when a page is full the
    remaining entries spill onto subsequent pages (wrapping around), and every
    page that pushed entries onward has its overflow flag set so lookups know
    to continue.

    Each key's page hash goes through the digest cache: flushed keys are
    the workload's hot keys, so this reuses page digests already computed by
    lookups and primes the cache for the lookups that follow the flush.
    """
    if num_pages <= 0:
        raise ValueError("num_pages must be positive")
    if page_size <= _PAGE_HEADER.size + _ENTRY_HEADER.size:
        raise ValueError("page_size too small to hold any entry")

    buckets: List[List[Tuple[bytes, bytes]]] = [[] for _ in range(num_pages)]
    for key, value in items.items():
        entry_size = _entry_size(key, value)
        if entry_size + _PAGE_HEADER.size > page_size:
            raise KeyTooLargeError(
                f"entry of {entry_size} bytes cannot fit in a {page_size}-byte page"
            )
        buckets[page_index_for_key(as_digest(key), num_pages)].append((key, value))

    # Assign entries to physical pages with wrap-around overflow.
    page_entries: List[List[Tuple[bytes, bytes]]] = [[] for _ in range(num_pages)]
    page_space = [page_size - _PAGE_HEADER.size] * num_pages
    overflowed = [False] * num_pages

    for bucket_index, bucket in enumerate(buckets):
        for key, value in bucket:
            entry_size = _entry_size(key, value)
            placed = False
            for probe in range(num_pages):
                target = (bucket_index + probe) % num_pages
                if page_space[target] >= entry_size:
                    page_entries[target].append((key, value))
                    page_space[target] -= entry_size
                    placed = True
                    # Every page between the home page and the landing page
                    # (exclusive) must signal overflow so lookups keep probing.
                    for passed in range(probe):
                        overflowed[(bucket_index + passed) % num_pages] = True
                    break
            if not placed:
                raise KeyTooLargeError(
                    "incarnation overflow: items do not fit in the configured pages; "
                    "reduce buffer utilisation or increase page count"
                )

    pages: List[bytes] = []
    for index in range(num_pages):
        body = b"".join(_encode_entry(key, value) for key, value in page_entries[index])
        header = _PAGE_HEADER.pack(len(page_entries[index]), 1 if overflowed[index] else 0)
        image = header + body
        if len(image) > page_size:  # pragma: no cover - guarded by space accounting
            raise KeyTooLargeError("serialised page exceeded page_size")
        pages.append(image)
    return pages


def iter_page_entries(page_image: bytes) -> Iterator[Tuple[bytes, bytes]]:
    """Iterate over the (key, value) entries stored in one page image."""
    if not page_image:
        return
    count, _flag = _PAGE_HEADER.unpack_from(page_image, 0)
    offset = _PAGE_HEADER.size
    for _ in range(count):
        key_len, value_len = _ENTRY_HEADER.unpack_from(page_image, offset)
        offset += _ENTRY_HEADER.size
        key = page_image[offset : offset + key_len]
        offset += key_len
        value = page_image[offset : offset + value_len]
        offset += value_len
        yield key, value


def page_overflowed(page_image: bytes) -> bool:
    """Whether the page pushed entries onto the following page."""
    if not page_image:
        return False
    _count, flag = _PAGE_HEADER.unpack_from(page_image, 0)
    return bool(flag)


def search_page(page_image: bytes, key: bytes) -> Tuple[Optional[bytes], bool]:
    """Search one page image for ``key``.

    Returns ``(value, overflowed)`` where ``value`` is ``None`` when the key is
    not on this page and ``overflowed`` tells the caller whether probing the
    next page could still find it.

    This sits on the lookup fast path (one call per flash page read), so it
    scans the raw image with ``startswith`` at computed offsets instead of
    materialising a (key, value) slice pair per entry the way
    :func:`iter_page_entries` does.
    """
    if not page_image:
        return None, False
    count, flag = _PAGE_HEADER.unpack_from(page_image, 0)
    offset = _PAGE_HEADER.size
    key_size = len(key)
    unpack_entry = _ENTRY_HEADER.unpack_from
    entry_header_size = _ENTRY_HEADER.size
    for _ in range(count):
        key_len, value_len = unpack_entry(page_image, offset)
        offset += entry_header_size
        if key_len == key_size and page_image.startswith(key, offset):
            value_start = offset + key_len
            return page_image[value_start : value_start + value_len], bool(flag)
        offset += key_len + value_len
    return None, bool(flag)


@dataclass(frozen=True)
class IncarnationHandle:
    """In-memory metadata describing one on-flash incarnation.

    Attributes
    ----------
    incarnation_id:
        Monotonically increasing identifier within a super table (larger is
        newer).
    address:
        Device page index of the incarnation's first page (assigned by the
        incarnation store).
    num_pages:
        Number of device pages the incarnation occupies.
    item_count:
        Number of entries it holds (informational; used by eviction stats).
    """

    incarnation_id: int
    address: int
    num_pages: int
    item_count: int
