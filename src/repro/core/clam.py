"""The CLAM facade: a cheap-and-large CAM built from DRAM plus flash.

A :class:`CLAM` wires together a storage device (Intel-like SSD,
Transcend-like SSD, magnetic disk or raw flash chip), a
:class:`~repro.core.bufferhash.BufferHash` configured from a
:class:`~repro.core.config.CLAMConfig`, and per-operation statistics.  It is
the object applications (the WAN optimizer, the deduplication index, the
content-name directory) interact with.

For the §7.3.1 ablations, a CLAM can also be built with ``use_buffering=False``
in its configuration: inserts then bypass BufferHash entirely and issue one
random page write each, exactly the "conventional hash table on flash"
behaviour the paper compares against.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.core.bloom import BloomFilter
from repro.core.bufferhash import BufferHash
from repro.core.config import CLAMConfig
from repro.core.errors import ConfigurationError, DeviceFailedError
from repro.core.eviction import EvictionPolicy
from repro.core.hashing import (
    UNBUFFERED_PAGE_SEED,
    KeyLike,
    as_digest,
    hash_key,
    key_data,
)
from repro.core.results import (
    DeleteResult,
    InsertResult,
    LookupResult,
    OperationStats,
    ServedFrom,
)
from repro.flashsim.clock import SimulationClock
from repro.flashsim.device import StorageDevice
from repro.telemetry import trace as _trace
from repro.telemetry.registry import MetricsRegistry
from repro.flashsim.disk import MAGNETIC_DISK_PROFILE, MagneticDisk
from repro.flashsim.dram import DRAMDevice
from repro.flashsim.flash_chip import FlashChip, GENERIC_FLASH_CHIP_PROFILE
from repro.flashsim.ssd import INTEL_SSD_PROFILE, SSD, TRANSCEND_SSD_PROFILE
from repro.flashsim.stats import IOKind

#: Storage names accepted by :func:`build_device` and :class:`CLAM`.
STORAGE_PROFILES = ("intel-ssd", "transcend-ssd", "disk", "flash-chip", "dram")


def build_device(
    storage: str,
    clock: Optional[SimulationClock] = None,
    keep_events: bool = False,
) -> StorageDevice:
    """Create a simulated storage device by profile name."""
    clock = clock if clock is not None else SimulationClock()
    name = storage.lower()
    if name in ("intel-ssd", "intel"):
        return SSD(profile=INTEL_SSD_PROFILE, clock=clock, keep_events=keep_events)
    if name in ("transcend-ssd", "transcend"):
        return SSD(profile=TRANSCEND_SSD_PROFILE, clock=clock, keep_events=keep_events)
    if name in ("disk", "magnetic-disk", "hdd"):
        return MagneticDisk(profile=MAGNETIC_DISK_PROFILE, clock=clock, keep_events=keep_events)
    if name in ("flash-chip", "chip", "nand"):
        return FlashChip(profile=GENERIC_FLASH_CHIP_PROFILE, clock=clock, keep_events=keep_events)
    if name == "dram":
        return DRAMDevice(clock=clock, keep_events=keep_events)
    raise ConfigurationError(
        f"unknown storage profile {storage!r}; expected one of {STORAGE_PROFILES}"
    )


class CLAM:
    """Cheap and Large CAM: hash-table API over DRAM buffers and flash storage.

    Parameters
    ----------
    config:
        Structural parameters; defaults to :meth:`CLAMConfig.scaled`.
    storage:
        Either a profile name (``"intel-ssd"``, ``"transcend-ssd"``,
        ``"disk"``, ``"flash-chip"``, ``"dram"``) or an already constructed
        :class:`~repro.flashsim.device.StorageDevice`.
    clock:
        Simulation clock; when omitted the device's clock is used (or a new
        one is created).
    eviction_policy:
        Optional explicit policy instance (e.g. a configured
        :class:`~repro.core.eviction.PriorityBasedEviction`).
    keep_latency_samples:
        Whether to retain every operation latency for CDF plots (Figures 6-8);
        disable for very long runs to save memory.
    """

    def __init__(
        self,
        config: Optional[CLAMConfig] = None,
        storage: Union[str, StorageDevice, list, tuple] = "intel-ssd",
        clock: Optional[SimulationClock] = None,
        eviction_policy: Optional[EvictionPolicy] = None,
        keep_latency_samples: bool = True,
        store=None,
    ) -> None:
        self.config = config if config is not None else CLAMConfig.scaled()
        if isinstance(storage, (list, tuple)):
            # Multiple SSDs: super tables are distributed across them (§5.2).
            if not storage:
                raise ConfigurationError("storage list must not be empty")
            self.clock = clock if clock is not None else SimulationClock()
            self.devices = []
            for member in storage:
                if isinstance(member, StorageDevice):
                    if member.clock is not self.clock and clock is not None:
                        raise ConfigurationError("all devices must share the explicit clock")
                    self.clock = member.clock
                    self.devices.append(member)
                else:
                    self.devices.append(build_device(member, clock=self.clock))
            self.device = self.devices[0]
        elif isinstance(storage, StorageDevice):
            self.device = storage
            self.devices = [storage]
            if clock is not None and clock is not storage.clock:
                raise ConfigurationError("explicit clock must match the device clock")
            self.clock = storage.clock
        else:
            self.clock = clock if clock is not None else SimulationClock()
            self.device = build_device(storage, clock=self.clock)
            self.devices = [self.device]
        self.stats = OperationStats(keep_samples=keep_latency_samples)

        # Telemetry: the histogram/counter objects are resolved once here so
        # the per-operation cost is a single cached ``is None`` check when
        # disabled and one ``observe``/``inc`` call when enabled.
        if self.config.telemetry_enabled:
            self.telemetry: Optional[MetricsRegistry] = MetricsRegistry()
            self._tel_lookup = self.telemetry.histogram("lookup_latency_ms")
            self._tel_insert = self.telemetry.histogram("insert_latency_ms")
            self._tel_ops = self.telemetry.counter("operations")
        else:
            self.telemetry = None
            self._tel_lookup = None
            self._tel_insert = None
            self._tel_ops = None

        self._unbuffered_data: Dict[bytes, bytes] = {}
        self._unbuffered_bloom: Optional[BloomFilter] = None
        if self.config.use_buffering:
            self.bufferhash: Optional[BufferHash] = BufferHash(
                config=self.config,
                device=self.devices if len(self.devices) > 1 else self.device,
                clock=self.clock,
                eviction_policy=eviction_policy,
                store=store,
            )
        else:
            self.bufferhash = None
            if self.config.use_bloom_filters:
                total_items = self.config.total_items_capacity(
                    self.config.incarnations_per_table or 16
                )
                self._unbuffered_bloom = BloomFilter.for_capacity(
                    max(1024, total_items), bits_per_item=self.config.bloom_bits_per_entry
                )

    # -- Hash-table API -----------------------------------------------------------------

    def _check_available(self) -> None:
        """Refuse every operation while any backing device is crash-stopped.

        A crash-stop (see :mod:`repro.flashsim.faults`) models the whole node
        dying, so even operations that would have been served from the DRAM
        buffer are refused — without this gate a dead shard would keep
        answering from memory.  Intermittent-error and degraded fault modes
        are *not* gated here; they surface through the device I/O path only.
        """
        for device in self.devices:
            if device.faults.is_crashed:
                raise DeviceFailedError(
                    f"CLAM refusing operation: device {device.name!r} has crash-stopped"
                )

    def insert(self, key: KeyLike, value: bytes) -> InsertResult:
        """Insert or update a (key, value) pair."""
        self._check_available()
        key = as_digest(key)
        tracer = _trace.ACTIVE
        if tracer is None:
            if self.bufferhash is not None:
                result = self.bufferhash.insert(key, value)
            else:
                result = self._unbuffered_insert(key, value)
        else:
            span = tracer.begin("clam.insert", self.clock)
            try:
                if self.bufferhash is not None:
                    result = self.bufferhash.insert(key, value)
                else:
                    result = self._unbuffered_insert(key, value)
            finally:
                tracer.end(span, self.clock)
        self.stats.record_insert(result)
        if self._tel_insert is not None:
            self._tel_insert.observe(result.latency_ms)
            self._tel_ops.inc()
        return result

    def update(self, key: KeyLike, value: bytes) -> InsertResult:
        """Lazy update (alias of insert)."""
        return self.insert(key, value)

    def lookup(self, key: KeyLike) -> LookupResult:
        """Look up the most recent value for a key."""
        self._check_available()
        key = as_digest(key)
        tracer = _trace.ACTIVE
        if tracer is None:
            if self.bufferhash is not None:
                result = self.bufferhash.lookup(key)
            else:
                result = self._unbuffered_lookup(key)
        else:
            span = tracer.begin("clam.lookup", self.clock)
            try:
                if self.bufferhash is not None:
                    result = self.bufferhash.lookup(key)
                else:
                    result = self._unbuffered_lookup(key)
            finally:
                tracer.end(span, self.clock)
            span.attributes["served_from"] = result.served_from.value
        self.stats.record_lookup(result)
        if self._tel_lookup is not None:
            self._tel_lookup.observe(result.latency_ms)
            self._tel_ops.inc()
        return result

    def delete(self, key: KeyLike) -> DeleteResult:
        """Delete a key."""
        self._check_available()
        key = as_digest(key)
        if self.bufferhash is not None:
            result = self.bufferhash.delete(key)
        else:
            result = self._unbuffered_delete(key)
        self.stats.deletes += 1
        if self._tel_ops is not None:
            self._tel_ops.inc()
        return result

    def get(self, key: KeyLike) -> Optional[bytes]:
        """Convenience accessor returning just the value (or ``None``)."""
        return self.lookup(key).value

    def __contains__(self, key: KeyLike) -> bool:
        return self.lookup(key).found

    # -- Batched API ----------------------------------------------------------------------
    #
    # Loop fallbacks satisfying the batch half of
    # :class:`repro.wanopt.engine.FingerprintIndex`: a single CLAM has no
    # shards to fan out to, so a batch is simply the operations in order on
    # the one device (results are exactly what sequential calls produce).

    def lookup_batch(self, keys: Iterable[KeyLike]) -> List[LookupResult]:
        """Look up every key in order; results in submission order."""
        return [self.lookup(key) for key in keys]

    def insert_batch(self, items: Iterable[Tuple[KeyLike, bytes]]) -> List[InsertResult]:
        """Insert every ``(key, value)`` pair in order; results in order."""
        return [self.insert(key, value) for key, value in items]

    # -- Unbuffered (ablation) mode -------------------------------------------------------
    #
    # Keys arrive already canonicalised by :func:`as_digest` (the public API
    # boundary), so these handlers never re-run ``to_key_bytes``; ``key_data``
    # just unwraps the canonical bytes from a digest.

    def _unbuffered_page_for(self, key: KeyLike) -> int:
        return hash_key(key, seed=UNBUFFERED_PAGE_SEED) % self.device.geometry.total_pages

    def _unbuffered_insert(self, key: KeyLike, value: bytes) -> InsertResult:
        data = key_data(key)
        page = self._unbuffered_page_for(key)
        memory_cost = self.config.memory_cost.buffer_op_ms
        self.clock.advance(memory_cost)
        latency = memory_cost + self.device.write_page(page, data[: self.device.geometry.page_size])
        self._unbuffered_data[data] = bytes(value)
        if self._unbuffered_bloom is not None:
            self._unbuffered_bloom.add(key)
        return InsertResult(key=data, latency_ms=latency, flash_writes=1)

    def _unbuffered_lookup(self, key: KeyLike) -> LookupResult:
        data = key_data(key)
        memory_cost = self.config.memory_cost.buffer_op_ms
        self.clock.advance(memory_cost)
        latency = memory_cost
        flash_reads = 0
        if self._unbuffered_bloom is not None and key not in self._unbuffered_bloom:
            return LookupResult(
                key=data, value=None, latency_ms=latency, served_from=ServedFrom.MISSING
            )
        page = self._unbuffered_page_for(key)
        _payload, read_latency = self.device.read_page(page)
        latency += read_latency
        flash_reads = 1
        value = self._unbuffered_data.get(data)
        served = ServedFrom.INCARNATION if value is not None else ServedFrom.MISSING
        return LookupResult(
            key=data,
            value=value,
            latency_ms=latency,
            served_from=served,
            flash_reads=flash_reads,
        )

    def _unbuffered_delete(self, key: KeyLike) -> DeleteResult:
        data = key_data(key)
        memory_cost = self.config.memory_cost.buffer_op_ms
        self.clock.advance(memory_cost)
        removed = self._unbuffered_data.pop(data, None) is not None
        return DeleteResult(key=data, latency_ms=memory_cost, removed_from_buffer=removed)

    # -- Reporting -----------------------------------------------------------------------

    def throughput_ops_per_second(self) -> float:
        """Hash operations per simulated second so far."""
        elapsed_ms = self.clock.now_ms
        total_ops = self.stats.lookups + self.stats.inserts + self.stats.deletes
        if elapsed_ms <= 0:
            return 0.0
        return total_ops / (elapsed_ms / 1000.0)

    def counters(self) -> Dict[str, float]:
        """Cheap flat snapshot of this instance's counters and device I/O.

        Unlike :meth:`describe`, this copies only O(1) scalars (no latency
        sample lists, no derived summaries), so a service layer can poll a
        whole fleet of CLAMs per batch without measurable overhead.  Flash
        counters come straight from :class:`~repro.flashsim.stats.IOStats`.
        """
        summary = self.stats.counters()
        summary["clock_ms"] = self.clock.now_ms
        summary.update(self._bufferhash_counters())
        for kind in IOKind:
            ops = sum(device.stats.count(kind) for device in self.devices)
            nbytes = sum(device.stats.bytes_moved(kind) for device in self.devices)
            busy = sum(device.stats.total_latency_ms(kind) for device in self.devices)
            summary[f"device_{kind.value}_ops"] = float(ops)
            summary[f"device_{kind.value}_bytes"] = float(nbytes)
            summary[f"device_{kind.value}_ms"] = busy
        return summary

    def describe(self) -> Dict[str, float]:
        """Summary dictionary used by benchmarks and examples."""
        summary: Dict[str, float] = {
            "lookups": float(self.stats.lookups),
            "inserts": float(self.stats.inserts),
            "mean_lookup_ms": self.stats.mean_lookup_latency_ms,
            "mean_insert_ms": self.stats.mean_insert_latency_ms,
            "max_lookup_ms": self.stats.lookup_latency_max_ms,
            "max_insert_ms": self.stats.insert_latency_max_ms,
            "lookup_success_rate": self.stats.lookup_success_rate,
            "throughput_ops_per_s": self.throughput_ops_per_second(),
        }
        summary.update(self._bufferhash_counters())
        return summary

    def _bufferhash_counters(self) -> Dict[str, float]:
        """BufferHash aggregate counters (empty in unbuffered ablation mode)."""
        if self.bufferhash is None:
            return {}
        return {
            "flushes": float(self.bufferhash.total_flushes),
            "evictions": float(self.bufferhash.total_evictions),
            "incarnations": float(self.bufferhash.total_incarnations),
        }
