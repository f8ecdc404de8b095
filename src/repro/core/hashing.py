"""Deterministic hashing and the hash-once :class:`KeyDigest` pipeline.

Python's built-in :func:`hash` is randomised per process for ``str``/``bytes``
and therefore unsuitable for a data structure whose on-"flash" layout must be
deterministic and reproducible across runs.  We use 64-bit FNV-1a with
per-purpose seeds, which is cheap, has good avalanche behaviour for the short
fingerprint-style keys the paper targets (32-64 bit hashes of content chunks)
and needs no dependencies.

BufferHash derives *several* values from one key: the super-table partition
(:data:`PARTITION_SEED`), the two cuckoo buckets (:data:`CUCKOO_SEED_FIRST` /
:data:`CUCKOO_SEED_SECOND`), the two Kirsch-Mitzenmacher Bloom base hashes
(:data:`BLOOM_SEED_H1` / :data:`BLOOM_SEED_H2`), the incarnation page
(:data:`PAGE_SEED`) and, in the service layer, the consistent-hash ring
position (:data:`RING_SEED`).  Naively each layer re-hashes the full key
bytes, so one lookup pays 6-10+ FNV passes.  :class:`KeyDigest` is the
hash-once fix: the key is canonicalised to bytes once at the public API
boundary, each seeded 64-bit digest is computed lazily *at most once* and
memoised, and derived values (bucket pairs, Bloom positions) are memoised per
geometry — all **bit-identical** to hashing the key bytes directly with the
same seed, so the on-flash layout does not change.  A small FIFO-bounded
digest cache (:func:`as_digest`) additionally reuses digests across
operations on the same key, which is the common case for fingerprint indexes
(a lookup is usually followed by an insert of the same fingerprint).

When many digests are known up front — a shard worker holding a whole
sub-batch, or the cluster routing a batch — :func:`prime_digests` fills their
missing memos in one *packed* pass (:func:`fnv1a_64_packed`): every
``(key, seed)`` pair of one key length becomes a 128-bit lane of a single
Python int, so each FNV step costs a few big-int operations for the whole
group instead of one interpreted loop iteration per lane.  The result is
bit-identical to :func:`fnv1a_64`, which stays the reference and the path
for groups smaller than :data:`PACKED_MIN_LANES`, where the packed pass's
fixed cost does not pay off.

For measurement, :func:`count_hash_calls` records every full-key FNV pass by
seed (and every digest construction) so tests and ``benchmarks/
bench_hotpath.py`` can assert that each layer hashes a key at most once per
operation; a packed pass counts once per lane.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple, Union

_FNV64_OFFSET = 0xCBF29CE484222325
_FNV64_PRIME = 0x100000001B3
_GOLDEN64 = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF

# -- Per-purpose seeds -------------------------------------------------------------
#
# Every layer of the stack hashes keys with its own seed so the derived
# moduli stay independent (see the avalanche note in :func:`fnv1a_64`).  The
# registry below maps each seed to the layer that owns it; instrumentation
# reports hash-call counts per layer through it.

#: Super-table partition index (``BufferHash.table_for``).
PARTITION_SEED = 0x9A27
#: First cuckoo bucket of the in-memory buffer.
CUCKOO_SEED_FIRST = 0xA11CE
#: Second (alternate) cuckoo bucket.
CUCKOO_SEED_SECOND = 0xB0B
#: First Kirsch-Mitzenmacher Bloom base hash.
BLOOM_SEED_H1 = 0x51ED
#: Second Kirsch-Mitzenmacher Bloom base hash.
BLOOM_SEED_H2 = 0xC0FFEE
#: Page assignment within an on-flash incarnation.
PAGE_SEED = 0x17CA
#: Consistent-hash ring position (``repro.service.router``).
RING_SEED = 0x5A4D
#: Page assignment of the unbuffered-ablation CLAM (``use_buffering=False``).
UNBUFFERED_PAGE_SEED = 0xFAB
#: Page assignment of the naive flash-hash baseline.
FLASH_BASELINE_SEED = 0xF1A5
#: Bucket assignment of the BerkeleyDB-style disk-hash baseline.
DISK_BASELINE_SEED = 0xBDB

#: Seed -> human-readable layer name, used by hash-call accounting.
SEED_LAYERS: Dict[int, str] = {
    PARTITION_SEED: "partition",
    CUCKOO_SEED_FIRST: "cuckoo_first",
    CUCKOO_SEED_SECOND: "cuckoo_second",
    BLOOM_SEED_H1: "bloom_h1",
    BLOOM_SEED_H2: "bloom_h2",
    PAGE_SEED: "incarnation_page",
    RING_SEED: "shard_ring",
    UNBUFFERED_PAGE_SEED: "unbuffered_page",
    FLASH_BASELINE_SEED: "flash_baseline",
    DISK_BASELINE_SEED: "disk_baseline",
}


def to_key_bytes(key: "KeyLike") -> bytes:
    """Canonical byte representation of a key.

    ``bytes``-like objects are used as-is, strings are UTF-8 encoded,
    integers are encoded big-endian in the fewest whole bytes that hold them
    (so distinct integers map to distinct byte strings) and a
    :class:`KeyDigest` contributes the bytes it was built from.

    .. note:: **Cross-type collisions are intentional.**  The canonical
       encodings of different key *types* share one byte space, so the int
       ``0x41`` and the bytes ``b"A"`` (and the str ``"A"``) all canonicalise
       to ``b"A"`` and are the *same key*.  BufferHash indexes content
       fingerprints, which arrive as raw bytes of a fixed width; the integer
       encoding exists so tests and examples can use small ints conveniently,
       not to provide a type-tagged key space.  Callers that index both raw
       bytes and their integer forms must disambiguate them before hashing
       (``tests/test_hashing.py`` freezes this behaviour).
    """
    if isinstance(key, (bytes, bytearray, memoryview)):
        return bytes(key)
    if isinstance(key, str):
        return key.encode("utf-8")
    if isinstance(key, int):
        if key < 0:
            raise ValueError("integer keys must be non-negative")
        length = max(1, (key.bit_length() + 7) // 8)
        return key.to_bytes(length, "big")
    if isinstance(key, KeyDigest):
        return key.data
    raise TypeError(f"unsupported key type: {type(key).__name__}")


# -- Hash-call accounting -----------------------------------------------------------

#: When True, :func:`fnv1a_64` and :func:`fnv1a_64_packed` record each
#: full-key pass (one per lane) into the active log.
_counting = False
_active_log: "HashCallLog" = None  # type: ignore[assignment]


class HashCallLog:
    """Counts of full-key hash passes (by seed) and digest constructions."""

    __slots__ = ("by_seed", "digest_builds")

    def __init__(self) -> None:
        self.by_seed: Dict[int, int] = {}
        self.digest_builds = 0

    @property
    def total(self) -> int:
        """Total full-key FNV passes recorded."""
        return sum(self.by_seed.values())

    def by_layer(self) -> Dict[str, int]:
        """Pass counts keyed by layer name (unknown seeds keyed by hex)."""
        out: Dict[str, int] = {}
        for seed, count in self.by_seed.items():
            layer = SEED_LAYERS.get(seed, hex(seed))
            out[layer] = out.get(layer, 0) + count
        return out

    def snapshot(self) -> Dict[str, float]:
        """Flat copy: per-layer counts plus totals (for JSON emission)."""
        out: Dict[str, float] = {f"fnv_{k}": float(v) for k, v in self.by_layer().items()}
        out["fnv_total"] = float(self.total)
        out["digest_builds"] = float(self.digest_builds)
        return out


@contextmanager
def count_hash_calls() -> Iterator[HashCallLog]:
    """Record every full-key FNV pass (by seed) and digest build in a block.

    Nested use is not supported; the counter adds one branch to the hash hot
    path, so it stays disabled outside the ``with`` block.
    """
    global _counting, _active_log
    log = HashCallLog()
    previous = (_counting, _active_log)
    _counting, _active_log = True, log
    try:
        yield log
    finally:
        _counting, _active_log = previous


def fnv1a_64(data: bytes, seed: int = 0) -> int:
    """64-bit FNV-1a hash of ``data``, mixed with ``seed`` and finalised.

    This and its lane-parallel twin :func:`fnv1a_64_packed` are the only
    functions that traverse the full key bytes; everything else derives from
    their output.

    The finalising mix (MurmurHash3 fmix64, inlined below — one call frame
    per pass matters when keys are hashed millions of times) spreads entropy
    into every bit.  Plain FNV-1a has the property that the low ``k`` bits of
    the output depend only on the low bits of the state, so two FNV variants
    with different seeds stay correlated modulo powers of two; BufferHash
    takes *several* independent moduli of a key's hashes (super-table
    partition, cuckoo buckets, Bloom positions, incarnation page), and
    without the finaliser conditioning on one of them (e.g. all keys of one
    super table) would badly skew the others.
    """
    if _counting:
        counts = _active_log.by_seed
        counts[seed] = counts.get(seed, 0) + 1
    prime = _FNV64_PRIME
    mask = _MASK64
    value = (_FNV64_OFFSET ^ (seed * _GOLDEN64)) & mask
    for byte in data:
        value = ((value ^ byte) * prime) & mask
    # fmix64 finaliser (see docstring).
    value ^= value >> 33
    value = (value * 0xFF51AFD7ED558CCD) & mask
    value ^= value >> 33
    value = (value * 0xC4CEB9FE1A85EC53) & mask
    return value ^ (value >> 33)


#: Lanes a length group needs before :func:`prime_digests` hashes it packed.
#: The packed pass pays a fixed cost per key byte (a handful of big-int
#: operations, whatever the lane count).  On 20-byte fingerprints under
#: CPython 3.11 it breaks even with the per-lane loop of :func:`fnv1a_64` at
#: about 8 lanes and costs a third as much per lane at 150-300 lanes.
PACKED_MIN_LANES = 8

#: One 128-bit lane whose low 64 bits are set (the per-lane 64-bit mask) ...
_LANE_MASK = b"\xff" * 8 + bytes(8)
#: ... and one whose low byte is set (picks one key byte out of each lane).
_LANE_LOW_BYTE = b"\xff" + bytes(15)


def fnv1a_64_packed(datas: Sequence[bytes], seeds: Sequence[int]) -> List[int]:
    """``[fnv1a_64(datas[i], seeds[i]) for i ...]`` in one lane-parallel pass.

    Every ``datas[i]`` must have the same length.  Lane ``i`` occupies bits
    ``128*i .. 128*i+127`` of one Python int: a 64-bit FNV state times the
    41-bit FNV prime stays below 2**105, so no product carries into the next
    lane, and masking back to 64 bits per lane after each step gives exactly
    the scalar recurrence.  Key bytes are loaded 16 columns at a time (the
    j-th byte of every key sits in the low byte of its lane after a shift),
    and fmix64 runs lane-wise with each ``>> 33`` masked so no lane's bits
    leak into its neighbour.
    """
    lanes = len(datas)
    if lanes != len(seeds):
        raise ValueError("datas and seeds must have the same length")
    if not lanes:
        return []
    if len(set(map(len, datas))) != 1:
        raise ValueError("packed hashing needs keys of equal length")
    width = len(datas[0])
    if _counting:
        counts = _active_log.by_seed
        for seed in seeds:
            counts[seed] = counts.get(seed, 0) + 1
    from_bytes = int.from_bytes
    prime = _FNV64_PRIME
    mask = from_bytes(_LANE_MASK * lanes, "little")
    starts = {
        seed: ((_FNV64_OFFSET ^ (seed * _GOLDEN64)) & _MASK64).to_bytes(16, "little")
        for seed in set(seeds)
    }
    value = from_bytes(b"".join(map(starts.__getitem__, seeds)), "little")
    if width:
        blob = b"".join(datas)
        low_byte = from_bytes(_LANE_LOW_BYTE * lanes, "little")
        for base in range(0, width, 16):
            columns = min(16, width - base)
            block = bytearray(16 * lanes)
            for column in range(columns):
                block[column::16] = blob[base + column :: width]
            chunk = from_bytes(block, "little")
            for _ in range(columns):
                value = ((value ^ (chunk & low_byte)) * prime) & mask
                chunk >>= 8
    value ^= (value >> 33) & mask
    value = (value * 0xFF51AFD7ED558CCD) & mask
    value ^= (value >> 33) & mask
    value = (value * 0xC4CEB9FE1A85EC53) & mask
    value ^= (value >> 33) & mask
    return list(struct.unpack(f"<{2 * lanes}Q", value.to_bytes(16 * lanes, "little"))[::2])


class KeyDigest:
    """Hash-once handle for one key: canonical bytes plus memoised digests.

    A digest is built from a key's canonical bytes exactly once and then
    threaded through every layer in place of the raw key (it is itself a
    :data:`KeyLike`, accepted anywhere a key is).  Each seeded 64-bit digest
    is computed lazily on first use and memoised, as are the derived
    Kirsch-Mitzenmacher Bloom positions per ``(count, modulus)`` geometry, so
    a lookup that consults the partition map, the cuckoo buffer, several
    incarnations' Bloom filters and the incarnation page hashes the key bytes
    at most once per seed — instead of once per layer *use*.

    Memos can also be filled ahead of use for many digests at once by
    :func:`prime_digests` (one packed FNV pass per key-length group of at
    least :data:`PACKED_MIN_LANES` lanes); :meth:`digest` then answers from
    the memo as if it had computed the value itself.  Memos never leave the
    process: the shard wire protocol ships key bytes only, and a worker
    rebuilds its digests from them.

    Every derived value is bit-identical to calling :func:`hash_key` /
    :func:`double_hashes` on the raw key with the same arguments; the class
    changes only how often the bytes are traversed, never what is computed.
    """

    __slots__ = ("data", "_seeded", "_positions")

    def __init__(self, key: "KeyLike") -> None:
        self.data = key if type(key) is bytes else to_key_bytes(key)
        self._seeded: Dict[int, int] = {}
        self._positions: Dict[Tuple[int, int], List[int]] = {}
        if _counting:
            _active_log.digest_builds += 1

    def digest(self, seed: int = 0) -> int:
        """The 64-bit seeded digest, computed on first use and memoised."""
        value = self._seeded.get(seed)
        if value is None:
            value = fnv1a_64(self.data, seed)
            self._seeded[seed] = value
        return value

    def bloom_positions(self, count: int, modulus: int) -> List[int]:
        """Kirsch-Mitzenmacher positions, memoised per (count, modulus)."""
        key = (count, modulus)
        positions = self._positions.get(key)
        if positions is None:
            h1 = self.digest(BLOOM_SEED_H1)
            h2 = self.digest(BLOOM_SEED_H2) | 1  # odd: coprime with 2^k moduli
            positions = [((h1 + i * h2) & _MASK64) % modulus for i in range(count)]
            self._positions[key] = positions
        return positions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KeyDigest({self.data!r}, seeds={sorted(self._seeded)})"


KeyLike = Union[bytes, bytearray, memoryview, str, int, KeyDigest]


def prime_digests(digests: Iterable[KeyDigest], seeds: Sequence[int]) -> None:
    """Fill each digest's missing memos for ``seeds``, a group at a time.

    Memoised seeds are skipped, and the missing ``(digest, seed)`` lanes are
    grouped by key length.  A group of at least :data:`PACKED_MIN_LANES`
    lanes is hashed by one :func:`fnv1a_64_packed` pass; a smaller group lane
    by lane with :func:`fnv1a_64`.  Either way the memos hold exactly what
    :meth:`KeyDigest.digest` would have computed, and hash-call accounting
    records one pass per lane.
    """
    seeds = tuple(seeds)
    groups: Dict[int, Tuple[List[KeyDigest], List[int]]] = {}
    for digest in digests:
        missing = [seed for seed in seeds if seed not in digest._seeded]
        if missing:
            group = groups.get(len(digest.data))
            if group is None:
                group = groups[len(digest.data)] = ([], [])
            group[0].extend([digest] * len(missing))
            group[1].extend(missing)
    for lane_digests, lane_seeds in groups.values():
        datas = [digest.data for digest in lane_digests]
        if len(datas) >= PACKED_MIN_LANES:
            values = fnv1a_64_packed(datas, lane_seeds)
        else:
            values = [fnv1a_64(data, seed) for data, seed in zip(datas, lane_seeds)]
        for digest, seed, value in zip(lane_digests, lane_seeds, values):
            digest._seeded[seed] = value


# -- Cross-operation digest cache ---------------------------------------------------
#
# Fingerprint workloads touch the same keys repeatedly (a dedup lookup is
# followed by an insert of the same fingerprint; WAN-opt caches re-query hot
# chunks), so digests are also reused *across* operations through a small
# FIFO-bounded cache.  The cache is value-pure — a digest depends only on the
# key bytes — so hits can never change behaviour, only skip recomputation.

_DIGEST_CACHE: Dict[bytes, KeyDigest] = {}
_digest_cache_capacity = 1 << 16


def as_digest(key: KeyLike) -> KeyDigest:
    """The :class:`KeyDigest` for ``key``, reusing a cached digest if present.

    Called once per operation at each public API boundary; passing an
    existing digest through is a no-op, so nested boundaries (service router
    -> CLAM -> BufferHash) share one digest per operation.
    """
    if type(key) is KeyDigest:
        return key
    data = key if type(key) is bytes else to_key_bytes(key)
    digest = _DIGEST_CACHE.get(data)
    if digest is None:
        digest = KeyDigest(data)
        if _digest_cache_capacity > 0:
            cache = _DIGEST_CACHE
            if len(cache) >= _digest_cache_capacity:
                del cache[next(iter(cache))]  # FIFO: dicts preserve insertion order
            cache[data] = digest
    return digest


def clear_digest_cache() -> None:
    """Drop every cached digest (tests and memory-sensitive callers)."""
    _DIGEST_CACHE.clear()


def set_digest_cache_capacity(capacity: int) -> None:
    """Bound the cross-operation digest cache (0 disables caching)."""
    global _digest_cache_capacity
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    _digest_cache_capacity = capacity
    if capacity == 0:
        _DIGEST_CACHE.clear()
    else:
        while len(_DIGEST_CACHE) > capacity:
            del _DIGEST_CACHE[next(iter(_DIGEST_CACHE))]


def digest_cache_info() -> Dict[str, int]:
    """Current size and capacity of the digest cache."""
    return {"size": len(_DIGEST_CACHE), "capacity": _digest_cache_capacity}


def canonical_key(key: KeyLike, hash_once: bool) -> KeyLike:
    """The one canonicalisation policy used at every public API boundary.

    Hash-once mode wraps the key in a (cached) :class:`KeyDigest` that every
    layer below reuses; the ablation mode passes canonical bytes through so
    each layer re-hashes exactly as the pre-digest implementation did.  Both
    are idempotent, so nested boundaries (service router -> CLAM ->
    BufferHash) canonicalise in O(1) after the first.
    """
    if hash_once:
        return as_digest(key)
    return key_data(key)


def key_data(key: KeyLike) -> bytes:
    """Canonical bytes of ``key`` without copying when already canonical."""
    if type(key) is KeyDigest:
        return key.data
    if type(key) is bytes:
        return key
    return to_key_bytes(key)


def hash_key(key: KeyLike, seed: int = 0) -> int:
    """64-bit hash of an arbitrary key with the given seed.

    Digest-aware: a :class:`KeyDigest` answers from (or fills) its memo, any
    other key type is canonicalised and hashed directly.  Both paths return
    the same value for the same key bytes.
    """
    if type(key) is KeyDigest:
        return key.digest(seed)
    return fnv1a_64(key if type(key) is bytes else to_key_bytes(key), seed)


def double_hashes(key: KeyLike, count: int, modulus: int) -> List[int]:
    """``count`` hash values in ``[0, modulus)`` via double hashing.

    Classic Kirsch-Mitzenmacher construction: two independent base hashes
    (:data:`BLOOM_SEED_H1` / :data:`BLOOM_SEED_H2`) combine linearly to
    simulate ``count`` independent hash functions, which is what Bloom
    filters need.  Digest-aware like :func:`hash_key`; with a
    :class:`KeyDigest` the positions for one filter geometry are computed
    once and shared by every Bloom filter of that geometry the key meets.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    if type(key) is KeyDigest:
        return key.bloom_positions(count, modulus)
    data = key if type(key) is bytes else to_key_bytes(key)
    h1 = fnv1a_64(data, seed=BLOOM_SEED_H1)
    h2 = fnv1a_64(data, seed=BLOOM_SEED_H2) | 1  # odd: coprime with 2^k moduli
    return [((h1 + i * h2) & _MASK64) % modulus for i in range(count)]
