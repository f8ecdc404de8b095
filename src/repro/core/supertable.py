"""A single super table: buffer + on-flash incarnations + Bloom filters (§5.1).

The super table is where all of BufferHash's mechanisms meet:

* inserts go to the in-memory :class:`~repro.core.buffer.Buffer`; when it
  fills, its contents are written sequentially to flash as a new incarnation
  and its Bloom filter is frozen in DRAM;
* lookups check the buffer, then consult the Bloom filters (either one per
  incarnation or the bit-sliced sliding-window array) and read at most one
  flash page per candidate incarnation, newest first;
* updates are lazy (a new value simply shadows older ones) and deletes go to
  an in-memory delete list;
* evictions operate on whole incarnations through an
  :class:`~repro.core.eviction.EvictionPolicy`, with full or partial discard
  and cascaded evictions when nothing can be dropped.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.bloom import BloomFilter
from repro.core.buffer import Buffer
from repro.core.config import MemoryCostModel
from repro.core.errors import ConfigurationError
from repro.core.eviction import EvictionContext, EvictionPolicy, FIFOEviction
from repro.core.hashing import KeyLike, key_data
from repro.core.incarnation import (
    IncarnationHandle,
    build_pages,
    iter_page_entries,
    page_index_for_key,
    required_pages,
    search_page,
)
from repro.core.results import (
    DeleteResult,
    FlushResult,
    InsertResult,
    LookupResult,
    ServedFrom,
)
from repro.core.sliced_bloom import BitSlicedBloomArray
from repro.core.storage import IncarnationStore
from repro.flashsim.clock import SimulationClock


class SuperTable:
    """One partition of a BufferHash (Figure 1 of the paper)."""

    def __init__(
        self,
        table_id: int,
        store: IncarnationStore,
        clock: SimulationClock,
        buffer_capacity_items: int,
        buffer_slots: int,
        max_incarnations: int,
        page_size: int,
        pages_per_incarnation: int,
        bloom_bits: int,
        memory_cost: Optional[MemoryCostModel] = None,
        eviction_policy: Optional[EvictionPolicy] = None,
        use_bloom_filters: bool = True,
        use_bit_slicing: bool = True,
    ) -> None:
        if max_incarnations <= 0:
            raise ConfigurationError("max_incarnations must be positive")
        if pages_per_incarnation <= 0:
            raise ConfigurationError("pages_per_incarnation must be positive")
        self.table_id = table_id
        self.store = store
        self.clock = clock
        self.max_incarnations = max_incarnations
        self.page_size = page_size
        self.pages_per_incarnation = pages_per_incarnation
        self.memory_cost = memory_cost if memory_cost is not None else MemoryCostModel()
        self.eviction_policy = eviction_policy if eviction_policy is not None else FIFOEviction()
        self.use_bloom_filters = use_bloom_filters
        self.use_bit_slicing = use_bit_slicing

        self.buffer = Buffer(
            capacity_items=buffer_capacity_items,
            num_slots=buffer_slots,
            bloom_bits=bloom_bits,
        )
        # Incarnations ordered oldest -> newest.
        self._incarnations: List[IncarnationHandle] = []
        # incarnation_id -> handle, kept in sync with _incarnations so the
        # bit-sliced candidate path resolves ids without a per-lookup rebuild.
        self._by_id: Dict[int, IncarnationHandle] = {}
        # Per-incarnation Bloom filters (same order as _incarnations).
        self._filters: Dict[int, BloomFilter] = {}
        self._sliced = BitSlicedBloomArray(
            num_bits=self.buffer.bloom_bits,
            num_hashes=self.buffer.bloom_hashes,
            max_incarnations=max_incarnations,
        )
        self._next_incarnation_id = 0
        self._delete_list: set[bytes] = set()
        # Counters used by experiments and tests.
        self.flush_count = 0
        self.eviction_count = 0
        self.cascade_histogram: Dict[int, int] = {}
        self.reinsert_latency_total_ms = 0.0

    # -- Small helpers -------------------------------------------------------------

    @property
    def incarnation_count(self) -> int:
        """Number of on-flash incarnations currently live."""
        return len(self._incarnations)

    @property
    def delete_list_size(self) -> int:
        """Entries currently on the in-memory delete list."""
        return len(self._delete_list)

    def _charge_memory(self, cost_ms: float) -> float:
        self.clock.advance(cost_ms)
        return cost_ms

    def _write_incarnation_pages(self, pages: List[bytes]) -> Tuple[int, float]:
        # Stores that place data per super table (chip partitions, multi-SSD
        # distribution) receive the table id; the single shared log does not
        # care which table a flush came from.
        writer = getattr(self.store, "write_incarnation_for", None)
        if writer is not None:
            return writer(self.table_id, pages)
        return self.store.write_incarnation(pages)

    # -- Candidate selection ---------------------------------------------------------

    def _candidate_incarnations(self, key: KeyLike) -> Tuple[List[IncarnationHandle], float]:
        """Incarnations that may hold ``key`` (newest first) and the DRAM cost.

        ``key`` may be a :class:`~repro.core.hashing.KeyDigest`; the Bloom
        probes below then reuse its memoised positions instead of re-hashing
        the key bytes per incarnation.
        """
        if not self._incarnations:
            return [], 0.0
        if not self.use_bloom_filters:
            # Ablation: every incarnation is a candidate, newest first.
            return list(reversed(self._incarnations)), 0.0
        cost = self.memory_cost.bloom_query_cost(
            num_incarnations=len(self._incarnations),
            bit_sliced=self.use_bit_slicing,
        )
        if self.use_bit_slicing:
            ids = self._sliced.candidates(key)
            by_id = self._by_id
            return [by_id[i] for i in ids if i in by_id], cost
        candidates = [
            handle
            for handle in reversed(self._incarnations)
            if key in self._filters[handle.incarnation_id]
        ]
        return candidates, cost

    # -- Lookup -----------------------------------------------------------------------

    def lookup(self, key: KeyLike) -> LookupResult:
        """Find the most recent value for ``key`` (bytes or a KeyDigest)."""
        data = key_data(key)
        latency = self._charge_memory(self.memory_cost.delete_list_probe_ms)
        if data in self._delete_list:
            return LookupResult(
                key=data,
                value=None,
                latency_ms=latency,
                served_from=ServedFrom.DELETED,
            )
        latency += self._charge_memory(self.memory_cost.buffer_op_ms)
        value = self.buffer.get(key)
        if value is not None:
            return LookupResult(
                key=data,
                value=value,
                latency_ms=latency,
                served_from=ServedFrom.BUFFER,
            )

        candidates, bloom_cost = self._candidate_incarnations(key)
        latency += self._charge_memory(bloom_cost)
        flash_reads = 0
        false_positive_reads = 0
        for handle in candidates:
            value, reads = self._search_incarnation(handle, key, data)
            flash_reads += reads
            latency += self._last_flash_latency
            latency += self._charge_memory(self.memory_cost.page_scan_ms * reads)
            if value is not None:
                result = LookupResult(
                    key=data,
                    value=value,
                    latency_ms=latency,
                    served_from=ServedFrom.INCARNATION,
                    flash_reads=flash_reads,
                    incarnations_checked=len(candidates),
                    false_positive_reads=false_positive_reads,
                )
                self._maybe_reinsert_on_use(key, value)
                return result
            false_positive_reads += reads
        return LookupResult(
            key=data,
            value=None,
            latency_ms=latency,
            served_from=ServedFrom.MISSING,
            flash_reads=flash_reads,
            incarnations_checked=len(candidates),
            false_positive_reads=false_positive_reads,
        )

    _last_flash_latency: float = 0.0

    def _search_incarnation(
        self, handle: IncarnationHandle, key: KeyLike, data: bytes
    ) -> Tuple[Optional[bytes], int]:
        """Search one incarnation for ``key``; reads at most a few pages.

        ``key`` addresses the page (digest-aware hash), ``data`` is the
        canonical bytes compared against page entries.
        """
        self._last_flash_latency = 0.0
        page = page_index_for_key(key, handle.num_pages)
        reads = 0
        for probe in range(handle.num_pages):
            target = (page + probe) % handle.num_pages
            image, read_latency = self.store.read_page(handle.address, target)
            self._last_flash_latency += read_latency
            reads += 1
            value, overflowed = search_page(image, data)
            if value is not None:
                return value, reads
            if not overflowed:
                return None, reads
        return None, reads

    def _maybe_reinsert_on_use(self, key: KeyLike, value: bytes) -> None:
        """LRU emulation: items found on flash are re-inserted into the buffer.

        The re-insertion happens off the lookup's critical path (the paper
        performs it asynchronously), so its latency is tracked separately.
        """
        if not self.eviction_policy.reinsert_on_use:
            return
        result = self.insert(key, value)
        self.reinsert_latency_total_ms += result.latency_ms

    # -- Insert / update / delete -------------------------------------------------------

    def insert(self, key: KeyLike, value: bytes) -> InsertResult:
        """Insert or (lazily) update ``key`` (bytes or a KeyDigest)."""
        data = key_data(key)
        latency = self._charge_memory(
            self.memory_cost.buffer_op_ms + self.memory_cost.bloom_update_ms
        )
        self._delete_list.discard(data)
        flushed = False
        flush_result = FlushResult()
        if not self.buffer.put(key, value):
            flush_result = self.flush()
            flushed = True
            latency += flush_result.latency_ms
            if not self.buffer.put(key, value):  # pragma: no cover - flush always makes room
                raise ConfigurationError("buffer rejected an insert immediately after flush")
        return InsertResult(
            key=data,
            latency_ms=latency,
            flushed=flushed,
            flush_latency_ms=flush_result.latency_ms,
            incarnations_tried=flush_result.incarnations_tried,
            flash_writes=flush_result.flash_writes,
            flash_reads=flush_result.flash_reads,
        )

    def update(self, key: KeyLike, value: bytes) -> InsertResult:
        """Lazy update: identical to insert; newer values shadow older ones."""
        return self.insert(key, value)

    def delete(self, key: KeyLike) -> DeleteResult:
        """Delete ``key`` lazily via the in-memory delete list."""
        data = key_data(key)
        latency = self._charge_memory(
            self.memory_cost.buffer_op_ms + self.memory_cost.delete_list_probe_ms
        )
        removed = self.buffer.delete(key)
        # Older copies may still exist on flash, so the delete list entry is
        # needed even when the buffer held the key.
        if self._incarnations:
            self._delete_list.add(data)
        elif not removed:
            self._delete_list.add(data)
        return DeleteResult(key=data, latency_ms=latency, removed_from_buffer=removed)

    # -- Flush and eviction ----------------------------------------------------------------

    def flush(self) -> FlushResult:
        """Write the buffer to flash as a new incarnation, evicting as needed.

        Handles cascaded evictions for partial-discard policies: when an
        evicted incarnation retains (almost) everything, the retained items
        themselves fill the buffer and force another flush/eviction round,
        until something can be discarded or every incarnation has been tried
        (at which point the oldest incarnation is fully discarded, as §7.4
        describes).
        """
        result = FlushResult()
        items, frozen_filter = self.buffer.drain()
        pending: Optional[Dict[bytes, bytes]] = items
        pending_filter: Optional[BloomFilter] = frozen_filter
        incarnations_tried = 0

        while pending is not None:
            retained: Dict[bytes, bytes] = {}
            if len(self._incarnations) >= self.max_incarnations:
                force_full = incarnations_tried >= self.max_incarnations
                retained, evict_latency, evict_reads = self._evict_oldest(force_full)
                incarnations_tried += 1
                result.incarnations_evicted += 1
                result.latency_ms += evict_latency
                result.flash_reads += evict_reads
                result.forced_full_discard = result.forced_full_discard or force_full

            write_latency, pages_written = self._write_incarnation(pending, pending_filter)
            result.latency_ms += write_latency
            result.flash_writes += pages_written
            result.incarnations_written += 1

            if retained and len(retained) >= self.buffer.capacity_items:
                # Cascade: the retained items fill the buffer outright, so they
                # become the next incarnation to write.
                pending = retained
                pending_filter = None
                result.items_retained += len(retained)
            else:
                reinsert_cost = 0.0
                for key, value in retained.items():
                    self.buffer.put(key, value)
                    reinsert_cost += (
                        self.memory_cost.buffer_op_ms + self.memory_cost.bloom_update_ms
                    )
                if reinsert_cost:
                    result.latency_ms += self._charge_memory(reinsert_cost)
                result.items_retained += len(retained)
                pending = None

        result.incarnations_tried = incarnations_tried
        self.flush_count += 1
        self.cascade_histogram[incarnations_tried] = (
            self.cascade_histogram.get(incarnations_tried, 0) + 1
        )
        return result

    def _write_incarnation(
        self, items: Dict[bytes, bytes], frozen_filter: Optional[BloomFilter]
    ) -> Tuple[float, int]:
        """Serialise ``items`` and append them to flash as a new incarnation."""
        # The nominal incarnation size assumes the configuration's estimated
        # entry size; when actual entries are larger (long keys or values),
        # grow this incarnation rather than failing the flush.
        num_pages = max(self.pages_per_incarnation, required_pages(items, self.page_size))
        pages = build_pages(items, num_pages, self.page_size)
        address, latency = self._write_incarnation_pages(pages)
        handle = IncarnationHandle(
            incarnation_id=self._next_incarnation_id,
            address=address,
            num_pages=len(pages),
            item_count=len(items),
        )
        self._next_incarnation_id += 1
        self._incarnations.append(handle)
        self._by_id[handle.incarnation_id] = handle
        if frozen_filter is None:
            frozen_filter = BloomFilter(self.buffer.bloom_bits, self.buffer.bloom_hashes)
            frozen_filter.update(items.keys())
        self._filters[handle.incarnation_id] = frozen_filter
        self._sliced.append_filter(frozen_filter, handle.incarnation_id)
        return latency, len(pages)

    def _evict_oldest(self, force_full_discard: bool) -> Tuple[Dict[bytes, bytes], float, int]:
        """Evict the oldest incarnation; returns (retained items, latency, flash reads)."""
        handle = self._incarnations.pop(0)
        self._by_id.pop(handle.incarnation_id, None)
        self.eviction_count += 1
        latency = 0.0
        flash_reads = 0
        retained: Dict[bytes, bytes] = {}
        policy = self.eviction_policy
        if policy.requires_scan and not force_full_discard:
            pages, read_latency = self.store.read_incarnation(handle.address, handle.num_pages)
            latency += read_latency
            flash_reads += handle.num_pages
            items: Dict[bytes, bytes] = {}
            for image in pages:
                for key, value in iter_page_entries(image):
                    items[key] = value
            latency += self._charge_memory(self.memory_cost.page_scan_ms * len(pages))
            context = EvictionContext(
                incarnation_id=handle.incarnation_id,
                is_deleted=self._delete_list.__contains__,
                superseded=lambda key, evicted=handle: self._superseded(key, evicted),
            )
            retained = policy.select_retained(items, context)
            # Deleted keys evicted with their last on-flash copy can leave the
            # delete list, reclaiming its memory.
            for key in items:
                if key in self._delete_list and not self._superseded(key, handle):
                    self._delete_list.discard(key)
        self._filters.pop(handle.incarnation_id, None)
        self._sliced.evict_oldest()
        self.store.release(handle.address, handle.num_pages)
        return retained, latency, flash_reads

    def _superseded(self, key: bytes, evicted: IncarnationHandle) -> bool:
        """Does a newer copy of ``key`` exist (buffer or newer incarnation)?

        Uses only in-memory state (buffer + Bloom filters), as the paper
        specifies; Bloom false positives can very occasionally discard a live
        item, which footnote 2 of §5.1.2 explicitly accepts.
        """
        if self.buffer.get(key) is not None:
            return True
        for handle in self._incarnations:
            if handle.incarnation_id <= evicted.incarnation_id:
                continue
            bloom = self._filters.get(handle.incarnation_id)
            if bloom is not None and key in bloom:
                return True
        return False

    # -- Crash recovery (used by repro.core.durable / repro.core.recovery) ------------------

    @property
    def incarnation_handles(self) -> Tuple[IncarnationHandle, ...]:
        """Live incarnation handles, oldest first (checkpoint serialisation)."""
        return tuple(self._incarnations)

    @property
    def next_incarnation_id(self) -> int:
        """Identifier the next flushed incarnation will receive."""
        return self._next_incarnation_id

    def filter_for(self, incarnation_id: int) -> BloomFilter:
        """The Bloom filter of one live incarnation (checkpoint serialisation)."""
        return self._filters[incarnation_id]

    def delete_list_snapshot(self) -> Tuple[bytes, ...]:
        """Current lazy-delete entries (checkpoint serialisation)."""
        return tuple(self._delete_list)

    def advance_incarnation_counter(self, next_id: int) -> None:
        """Ensure future incarnation ids start at ``next_id`` or later.

        Recovery calls this with the checkpointed counter so ids stay
        monotonic even when the newest incarnations were evicted (and thus
        are not re-registered) before the crash.
        """
        self._next_incarnation_id = max(self._next_incarnation_id, next_id)

    def restore_incarnation(self, handle: IncarnationHandle, bloom: BloomFilter) -> None:
        """Re-register an on-flash incarnation after a crash or reopen.

        Must be called oldest-first per table (ascending ``incarnation_id``),
        matching the order :meth:`flush` created them; ``bloom`` is the
        incarnation's signature filter, either deserialised from a checkpoint
        or rebuilt by re-reading the incarnation's pages.
        """
        if bloom.num_bits != self.buffer.bloom_bits or bloom.num_hashes != self.buffer.bloom_hashes:
            raise ConfigurationError(
                "restored Bloom filter geometry does not match the configuration"
            )
        if self._incarnations and handle.incarnation_id <= self._incarnations[-1].incarnation_id:
            raise ConfigurationError(
                "incarnations must be restored oldest-first "
                f"(got id {handle.incarnation_id} after {self._incarnations[-1].incarnation_id})"
            )
        if len(self._incarnations) >= self.max_incarnations:
            raise ConfigurationError(
                f"cannot restore more than max_incarnations={self.max_incarnations}"
            )
        self._incarnations.append(handle)
        self._by_id[handle.incarnation_id] = handle
        self._filters[handle.incarnation_id] = bloom
        self._sliced.append_filter(bloom, handle.incarnation_id)
        self._next_incarnation_id = max(self._next_incarnation_id, handle.incarnation_id + 1)

    def restore_delete_list(self, keys: Iterable[bytes]) -> None:
        """Reload the lazy delete list from a checkpoint."""
        self._delete_list.update(bytes(key) for key in keys)

    # -- Bulk iteration (used by dedup merge and tests) -------------------------------------

    def snapshot_items(self) -> Dict[bytes, bytes]:
        """All live (key, value) pairs, newest value per key, ignoring deletes.

        Reads every incarnation; intended for tests and offline jobs such as
        the deduplication index merge, not for the fast path.
        """
        merged: Dict[bytes, bytes] = {}
        for handle in self._incarnations:  # oldest first so newer overwrite older
            pages, _latency = self.store.read_incarnation(handle.address, handle.num_pages)
            for image in pages:
                for key, value in iter_page_entries(image):
                    merged[key] = value
        merged.update(self.buffer.items())
        for key in self._delete_list:
            merged.pop(key, None)
        return merged
