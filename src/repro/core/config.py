"""Configuration objects for BufferHash and CLAMs.

Two concerns live here:

* :class:`MemoryCostModel` — the (small, constant) simulated cost of the
  DRAM-side work each operation performs: probing the cuckoo buffer,
  updating or querying Bloom filters, maintaining the delete list.  These
  costs are what make in-memory hits fast (≈ 0.005-0.02 ms, matching §7.2.1)
  and what the bit-slicing optimisation of §5.1.3 reduces.
* :class:`CLAMConfig` — the structural parameters of a CLAM: how the key
  space is partitioned into super tables, how large each buffer is, how many
  incarnations each super table keeps, and how much memory Bloom filters get.
  :meth:`CLAMConfig.paper_scale` mirrors the paper's 4 GB DRAM / 32 GB flash
  configuration; :meth:`CLAMConfig.scaled` produces laptop-sized equivalents
  with the same ratios for tests and benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.errors import ConfigurationError


@dataclass(frozen=True)
class MemoryCostModel:
    """Simulated latency (ms) of DRAM-resident work per hash operation."""

    #: One cuckoo-buffer probe or insert.
    buffer_op_ms: float = 0.004
    #: Updating the buffer's Bloom filter on insert.
    bloom_update_ms: float = 0.0005
    #: Probing one incarnation's Bloom filter (naive, per-incarnation organisation).
    bloom_probe_per_incarnation_ms: float = 0.0004
    #: One bit-sliced query across all incarnations of a super table.
    bloom_sliced_query_ms: float = 0.002
    #: Checking the in-memory delete list.
    delete_list_probe_ms: float = 0.0002
    #: Deserialising and scanning one flash page image after it has been read.
    page_scan_ms: float = 0.002

    def bloom_query_cost(self, num_incarnations: int, bit_sliced: bool) -> float:
        """Cost of deciding which incarnations may hold a key."""
        if num_incarnations <= 0:
            return 0.0
        if bit_sliced:
            return self.bloom_sliced_query_ms
        return self.bloom_probe_per_incarnation_ms * num_incarnations


@dataclass(frozen=True)
class CLAMConfig:
    """Structural parameters of a CLAM built from BufferHash.

    Attributes
    ----------
    num_super_tables:
        Number of key-space partitions (``2^k1`` in the paper).
    buffer_capacity_items:
        Items a buffer accepts before it is flushed to flash.
    buffer_utilization:
        Fraction of cuckoo slots the buffer is allowed to fill (the paper
        limits this to 0.5 to keep cuckoo insertion cheap); slot count is
        ``buffer_capacity_items / buffer_utilization``.
    entry_size_bytes:
        Average space one hash entry takes (paper: 16 bytes).
    incarnations_per_table:
        ``k`` — incarnations retained per super table; ``None`` derives the
        largest value the target device can hold.
    page_size_bytes:
        Size of one incarnation page (defaults to the device page/sector size).
    bloom_bits_per_entry:
        DRAM bits spent per entry in each incarnation's Bloom filter.
    use_buffering / use_bloom_filters / use_bit_slicing:
        Ablation switches for §7.3.1.
    telemetry_enabled:
        When True the CLAM owns a :class:`~repro.telemetry.MetricsRegistry`
        recording per-operation latency histograms and operation counters
        (and a sharded :class:`~repro.service.cluster.ClusterService` gains
        cluster-level request metrics).  Off by default: the hot path then
        pays only a cached ``is None`` check per operation, ratcheted to
        within 5% of the untelemetered throughput by
        ``benchmarks/bench_hotpath.py``.
    eviction_policy_name:
        One of ``fifo``, ``lru``, ``update``, ``priority``.
    checkpoint_interval_flushes:
        Durable CLAMs only (:class:`~repro.core.recovery.DurableCLAM`): write
        a recovery checkpoint after this many buffer flushes, so reopening
        replays just the log suffix instead of cold-rebuilding every
        incarnation.  ``None`` (the default) checkpoints only on clean close;
        ignored entirely by in-memory CLAMs.
    """

    num_super_tables: int = 16
    buffer_capacity_items: int = 256
    buffer_utilization: float = 0.5
    entry_size_bytes: int = 16
    incarnations_per_table: Optional[int] = 16
    page_size_bytes: Optional[int] = None
    bloom_bits_per_entry: float = 16.0
    use_buffering: bool = True
    use_bloom_filters: bool = True
    use_bit_slicing: bool = True
    telemetry_enabled: bool = False
    eviction_policy_name: str = "fifo"
    checkpoint_interval_flushes: Optional[int] = None
    memory_cost: MemoryCostModel = field(default_factory=MemoryCostModel)

    def __post_init__(self) -> None:
        if self.num_super_tables <= 0:
            raise ConfigurationError("num_super_tables must be positive")
        if self.buffer_capacity_items <= 0:
            raise ConfigurationError("buffer_capacity_items must be positive")
        if not 0.0 < self.buffer_utilization <= 1.0:
            raise ConfigurationError("buffer_utilization must be in (0, 1]")
        if self.entry_size_bytes <= 0:
            raise ConfigurationError("entry_size_bytes must be positive")
        if self.incarnations_per_table is not None and self.incarnations_per_table <= 0:
            raise ConfigurationError("incarnations_per_table must be positive")
        if self.bloom_bits_per_entry <= 0:
            raise ConfigurationError("bloom_bits_per_entry must be positive")
        if self.eviction_policy_name not in {"fifo", "lru", "update", "priority"}:
            raise ConfigurationError(
                f"unknown eviction policy {self.eviction_policy_name!r}"
            )
        if self.checkpoint_interval_flushes is not None and self.checkpoint_interval_flushes <= 0:
            raise ConfigurationError("checkpoint_interval_flushes must be positive")

    # -- Derived quantities ------------------------------------------------------

    @property
    def buffer_slots(self) -> int:
        """Cuckoo slots per buffer."""
        return max(2, int(math.ceil(self.buffer_capacity_items / self.buffer_utilization)))

    @property
    def buffer_bytes(self) -> int:
        """Approximate DRAM footprint of one buffer."""
        return self.buffer_slots * self.entry_size_bytes

    @property
    def total_buffer_bytes(self) -> int:
        """DRAM spent on all buffers."""
        return self.buffer_bytes * self.num_super_tables

    def pages_per_incarnation(self, page_size: int) -> int:
        """Device pages one incarnation occupies."""
        if page_size <= 0:
            raise ConfigurationError("page_size must be positive")
        return max(1, math.ceil(self.buffer_bytes / page_size))

    def total_items_capacity(self, incarnations_per_table: int) -> int:
        """Approximate total items held across buffers and incarnations."""
        per_table = self.buffer_capacity_items * (incarnations_per_table + 1)
        return per_table * self.num_super_tables

    def bloom_bits_per_incarnation(self) -> int:
        """Bits in each incarnation's Bloom filter."""
        return max(8, int(self.buffer_capacity_items * self.bloom_bits_per_entry))

    def with_overrides(self, **kwargs) -> "CLAMConfig":
        """A copy of this configuration with selected fields replaced."""
        return replace(self, **kwargs)

    # -- Canned configurations -----------------------------------------------------

    @classmethod
    def paper_scale(cls) -> "CLAMConfig":
        """The paper's 4 GB DRAM / 32 GB flash configuration (§7.1.1).

        2 GB of buffers split into 16,384 super tables of 128 KB each,
        4,096 entries per buffer at 50 % utilisation, 16 incarnations per
        super table.  Too large to run as-is in pure Python; exposed for the
        analytical model and for documentation.
        """
        return cls(
            num_super_tables=16_384,
            buffer_capacity_items=4_096,
            buffer_utilization=0.5,
            entry_size_bytes=16,
            incarnations_per_table=16,
            bloom_bits_per_entry=16.0,
        )

    @classmethod
    def scaled(
        cls,
        num_super_tables: int = 16,
        buffer_capacity_items: int = 256,
        incarnations_per_table: int = 8,
        **overrides,
    ) -> "CLAMConfig":
        """A laptop-scale configuration preserving the paper's ratios."""
        return cls(
            num_super_tables=num_super_tables,
            buffer_capacity_items=buffer_capacity_items,
            incarnations_per_table=incarnations_per_table,
            **overrides,
        )
