"""Batched execution of hash operations against a sharded CLAM fleet.

Client-facing services rarely dispatch one index operation at a time: they
collect a batch, route it, and hand each shard its sub-batch in one dispatch.
:class:`BatchExecutor` models exactly that.  Per-operation *results* are
identical to issuing the same operations one by one (grouping by shard
preserves per-key order, and each shard's simulated device is deterministic),
but the *accounting* differs: the fixed dispatch overhead is paid once per
shard sub-batch instead of once per operation, and the batch completes when
the slowest shard finishes — shards run in parallel on independent clocks.

The executor works against any mapping of shard id to an object satisfying
:class:`repro.workloads.runner.HashIndex`; in practice that is the
:class:`~repro.service.cluster.ClusterService`'s fleet of CLAMs.  The
multi-branch WAN optimizer is the canonical client: each branch office's
compression engine sends one ``lookup_batch`` and one ``insert_batch`` round
trip per object (:meth:`ClusterService.lookup_batch` builds the operation
lists), so a whole object's fingerprints cost one dispatch per touched shard
rather than one per chunk, and the branch's wait is the
:attr:`BatchResult.makespan_ms` across parallel shards rather than the
serial sum.

Two operating modes
-------------------
*Stand-alone* (no ``is_live`` hook): the original single-copy behaviour —
each operation goes to the ring owner, a router/instance desync raises
:class:`~repro.core.errors.ConfigurationError`, and device failures
propagate to the caller.

*Managed* (``is_live``/``on_shard_error`` wired up by a
:class:`~repro.service.cluster.ClusterService`): replication-aware and
failure-tolerant.  Writes fan out to every live shard of the key's
preference list, lookups go to the first live replica, a shard that raises
:class:`~repro.core.errors.DeviceFailedError` mid-batch is reported through
``on_shard_error`` and its unfinished operations are re-dispatched to the
next live replica; only an operation with no live replica left raises the
typed :class:`~repro.core.errors.ShardUnavailableError` (never a bare
``KeyError``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.errors import (
    ConfigurationError,
    DeviceFailedError,
    ShardUnavailableError,
)
from repro.core.hashing import RING_SEED, KeyLike, canonical_key, prime_digests
from repro.service.router import ShardRouter
from repro.telemetry import trace as _trace
from repro.workloads.runner import apply_operation
from repro.workloads.workload import Operation, OpKind

#: Simulated cost of handing one sub-batch (or one stand-alone operation) to a
#: shard: argument marshalling, queueing, the request/response hop.  Batching
#: amortises this across every operation in the sub-batch.
DEFAULT_DISPATCH_OVERHEAD_MS = 0.02

#: Simulated front-end cost of routing a single key (one ring lookup).
DEFAULT_ROUTING_COST_MS = 0.0002


@dataclass
class ShardBatchStats:
    """What one shard did for one batch."""

    shard_id: str
    operations: int = 0
    lookups: int = 0
    inserts: int = 0
    updates: int = 0
    deletes: int = 0
    lookup_hits: int = 0
    busy_ms: float = 0.0
    dispatch_ms: float = 0.0
    routing_ms: float = 0.0
    flash_reads: int = 0
    flash_writes: int = 0

    @property
    def total_ms(self) -> float:
        """Completion time for the sub-batch (routing + dispatch + work)."""
        return self.busy_ms + self.dispatch_ms + self.routing_ms


@dataclass
class BatchResult:
    """Outcome of one batch: per-op results plus the latency breakdown."""

    #: Result records in the original submission order (LookupResult,
    #: InsertResult or DeleteResult depending on each operation's kind).
    #: With replication, a write's record comes from its primary replica
    #: (falling back to the first surviving replica if the primary failed).
    results: List[object] = field(default_factory=list)
    per_shard: Dict[str, ShardBatchStats] = field(default_factory=dict)
    #: Time spent routing keys, charged to each owning shard's clock so that
    #: clock-derived durations and makespans share one time base.
    routing_ms: float = 0.0
    #: Dispatch overhead actually paid (once per shard sub-batch dispatched).
    dispatch_ms: float = 0.0
    #: Dispatch overhead the same operations would have paid unbatched.
    dispatch_ms_unbatched: float = 0.0
    #: Total shard-side work (sum over shards), excluding routing/dispatch.
    busy_ms: float = 0.0
    #: Batch completion time: the slowest shard's sub-batch, all costs in.
    makespan_ms: float = 0.0
    #: Shards that raised DeviceFailedError while executing this batch.
    failed_shards: List[str] = field(default_factory=list)
    #: Operations re-dispatched to another replica after a shard failure.
    retried_operations: int = 0

    @property
    def operations(self) -> int:
        """Number of operations in the batch."""
        return len(self.results)

    @property
    def shards_touched(self) -> int:
        """Number of distinct shards this batch dispatched to."""
        return len(self.per_shard)

    @property
    def dispatch_saved_ms(self) -> float:
        """Dispatch overhead amortised away relative to unbatched execution."""
        return self.dispatch_ms_unbatched - self.dispatch_ms


@dataclass
class _Slot:
    """One (operation, replica) execution unit inside a batch."""

    index: int
    operation: Operation
    key: KeyLike
    primary: bool
    attempted: Set[str] = field(default_factory=set)


class BatchExecutor:
    """Routes a batch by shard and executes per-shard sub-batches.

    Parameters
    ----------
    router:
        The consistent-hash router deciding key placement.
    shards:
        Mapping of shard id to index instance.  Looked up live on every batch,
        so shards added to or removed from the mapping (and the router) after
        construction are picked up automatically.
    dispatch_overhead_ms / routing_cost_ms:
        Fixed simulated costs; see module docstring.
    hash_once:
        When True (default) each operation's key is canonicalised into one
        :class:`~repro.core.hashing.KeyDigest` that serves both the routing
        hash and, for an in-process shard, the shard-side operation, so a
        batched key's bytes are hashed at most once per seed.  (A worker
        process gets key bytes only and hashes its sub-batch itself.)
        Disable to reproduce the original route-then-rehash behaviour
        (measurement ablation).
    replication_factor:
        Copies of every write, placed on the key's preference list.
    is_live / on_shard_error / on_missed_write:
        The cluster's live view, failure-reporting and hinted-handoff hooks;
        providing ``is_live`` switches the executor into managed mode (see
        module docstring).  ``on_missed_write(shard_id, key)`` fires for
        every write copy a down or failing replica did not receive.
    targets_for:
        Optional replica-placement override: ``targets_for(key, kind)``
        returns the shards one operation must consult instead of the router's
        raw preference list.  The cluster wires this to its migration-aware
        placement (:meth:`ClusterService._op_replicas`), so an in-flight
        rebalance can double-read and dual-write the arcs being moved while
        batches keep flowing; without it the executor routes exactly as
        before.
    """

    def __init__(
        self,
        router: ShardRouter,
        shards: Mapping[str, object],
        dispatch_overhead_ms: float = DEFAULT_DISPATCH_OVERHEAD_MS,
        routing_cost_ms: float = DEFAULT_ROUTING_COST_MS,
        hash_once: bool = True,
        replication_factor: int = 1,
        is_live: Optional[Callable[[str], bool]] = None,
        on_shard_error: Optional[Callable[[str], bool]] = None,
        on_missed_write: Optional[Callable[[str, KeyLike], None]] = None,
        targets_for: Optional[Callable[[KeyLike, OpKind], Tuple[str, ...]]] = None,
    ) -> None:
        if dispatch_overhead_ms < 0 or routing_cost_ms < 0:
            raise ConfigurationError("overhead costs must be non-negative")
        if replication_factor < 1:
            raise ConfigurationError("replication_factor must be at least 1")
        self.router = router
        self.shards = shards
        self.dispatch_overhead_ms = dispatch_overhead_ms
        self.routing_cost_ms = routing_cost_ms
        self.hash_once = hash_once
        self.replication_factor = replication_factor
        self._is_live = is_live
        self._on_shard_error = on_shard_error
        self._on_missed_write = on_missed_write
        self._targets_for = targets_for

    @property
    def managed(self) -> bool:
        """Whether a cluster's live view drives failure handling."""
        return self._is_live is not None

    def _notify_failure(self, shard_id: str) -> None:
        if self._on_shard_error is not None:
            self._on_shard_error(shard_id)

    def _targets(self, key: KeyLike, kind: OpKind, attempted: Set[str]) -> Tuple[str, ...]:
        """Replica shards one operation dispatches to.

        Stand-alone mode routes to the raw preference list (a missing
        instance is a configuration bug, caught at sub-batch time).  Managed
        mode filters through the cluster's live view — the fix for the old
        behaviour where a shard removed mid-flight surfaced as a bare
        ``KeyError`` — and raises :class:`ShardUnavailableError` when nothing
        is left.
        """
        if self._targets_for is not None:
            replicas = self._targets_for(key, kind)
        else:
            replicas = self.router.preference_list(key, self.replication_factor)
        if self._is_live is not None:
            live = tuple(s for s in replicas if s not in attempted and self._is_live(s))
            if kind is not OpKind.LOOKUP and self._on_missed_write is not None:
                for shard_id in replicas:
                    if shard_id not in live and shard_id not in attempted:
                        self._on_missed_write(shard_id, key)
            if not live:
                raise ShardUnavailableError(
                    f"no live replica remains for a {kind.value} operation "
                    f"(replication_factor={self.replication_factor})"
                )
            replicas = live
        if kind is OpKind.LOOKUP:
            return replicas[:1]
        return replicas

    def execute(self, operations: Iterable[Operation]) -> BatchResult:
        """Execute ``operations`` as one batch and return the breakdown."""
        submitted = list(operations)
        batch = BatchResult(results=[None] * len(submitted))
        if not submitted:
            return batch

        # Route the whole batch up front, preserving submission order within
        # each shard (same key -> same replica set, so per-key order is
        # preserved).  The ring digests the batch still lacks are filled in
        # one packed pass, and each key digest rides along with its
        # operation so an in-process shard reuses it instead of re-hashing.
        hash_once = self.hash_once
        keys = [canonical_key(operation.key, hash_once) for operation in submitted]
        if hash_once:
            prime_digests(keys, (RING_SEED,))
        try:
            groups: Dict[str, List[_Slot]] = {}
            for index, (operation, key) in enumerate(zip(submitted, keys)):
                for role, shard_id in enumerate(self._targets(key, operation.kind, set())):
                    groups.setdefault(shard_id, []).append(
                        _Slot(index=index, operation=operation, key=key, primary=role == 0)
                    )

            while groups:
                groups = self._reroute(self._dispatch_round(groups, batch), batch)
        except ShardUnavailableError as error:
            # Operations the batch already applied are on shards; hand their
            # result records to the caller (the cluster's key catalog must
            # learn about applied writes even when the batch fails).
            error.partial_results = batch.results
            raise

        batch.dispatch_ms_unbatched = self.dispatch_overhead_ms * len(submitted)
        batch.makespan_ms = max(
            (stats.total_ms for stats in batch.per_shard.values()), default=0.0
        )
        return batch

    def _dispatch_round(
        self, groups: Dict[str, List[_Slot]], batch: BatchResult
    ) -> List[_Slot]:
        """Execute one round of per-shard sub-batches; returns the failed slots.

        The base implementation runs sub-batches serially on the caller's
        thread — the deterministic single-process path.  The process-per-shard
        deployment overrides exactly this hook with a scatter/gather over
        worker sockets (:class:`repro.service.parallel.ParallelBatchExecutor`)
        while reusing all the routing, retry and accounting machinery around
        it, which is what keeps the two modes' results bit-identical.
        """
        failed_slots: List[_Slot] = []
        for shard_id, slots in groups.items():
            stats, leftover = self._execute_sub_batch(shard_id, slots, batch.results)
            if stats is not None:
                self._merge_shard_stats(batch, stats)
            if leftover:
                if shard_id not in batch.failed_shards:
                    batch.failed_shards.append(shard_id)
                failed_slots.extend(leftover)
        return failed_slots

    def _reroute(self, failed_slots: List[_Slot], batch: BatchResult) -> Dict[str, List[_Slot]]:
        """Re-dispatch the operations a failed shard left behind.

        A write whose record was already produced by a surviving replica
        needs no retry (the lost copy is the recovery coordinator's job, not
        the batch's); everything else moves to the next live replica that has
        not been attempted yet.
        """
        groups: Dict[str, List[_Slot]] = {}
        for slot in sorted(failed_slots, key=lambda s: s.index):
            if (
                slot.operation.kind is not OpKind.LOOKUP
                and batch.results[slot.index] is not None
            ):
                continue
            targets = self._targets(slot.key, slot.operation.kind, slot.attempted)
            batch.retried_operations += 1
            slot.primary = True
            groups.setdefault(targets[0], []).append(slot)
        return groups

    def _merge_shard_stats(self, batch: BatchResult, stats: ShardBatchStats) -> None:
        existing = batch.per_shard.get(stats.shard_id)
        if existing is None:
            batch.per_shard[stats.shard_id] = stats
        else:
            for field_name in (
                "operations",
                "lookups",
                "inserts",
                "updates",
                "deletes",
                "lookup_hits",
                "busy_ms",
                "dispatch_ms",
                "routing_ms",
                "flash_reads",
                "flash_writes",
            ):
                merged = getattr(existing, field_name) + getattr(stats, field_name)
                setattr(existing, field_name, merged)
        batch.busy_ms += stats.busy_ms
        batch.dispatch_ms += stats.dispatch_ms
        batch.routing_ms += stats.routing_ms

    def _execute_sub_batch(
        self,
        shard_id: str,
        slots: List[_Slot],
        results: List[object],
    ) -> Tuple[Optional[ShardBatchStats], List[_Slot]]:
        """Run one shard's slots; returns (stats, slots left behind by a failure)."""
        try:
            shard = self.shards[shard_id]
        except KeyError:
            if self._is_live is None:
                raise ConfigurationError(
                    f"router targets shard {shard_id!r} but no such instance exists"
                ) from None
            # Managed mode: the instance vanished between routing and
            # execution (removed mid-flight) — report it and let the live
            # view re-route the whole group.
            self._notify_failure(shard_id)
            for slot in slots:
                slot.attempted.add(shard_id)
            return None, slots
        stats = ShardBatchStats(shard_id=shard_id)
        stats.dispatch_ms = self.dispatch_overhead_ms
        stats.routing_ms = self.routing_cost_ms * len(slots)
        clock = getattr(shard, "clock", None)
        if clock is not None:
            # Charge routing + dispatch to the owning shard's clock so that
            # every duration in the system derives from the same time line.
            clock.advance(stats.dispatch_ms + stats.routing_ms)
        tracer = _trace.ACTIVE
        span = (
            tracer.begin("shard.batch", clock, shard=shard_id, operations=len(slots))
            if tracer is not None
            else None
        )
        started_ms = clock.now_ms if clock is not None else 0.0
        fallback_busy_ms = 0.0
        leftover: List[_Slot] = []
        completed = False
        try:
            for position, slot in enumerate(slots):
                slot.attempted.add(shard_id)
                try:
                    result = apply_operation(shard, slot.operation, key=slot.key)
                except DeviceFailedError:
                    if self._is_live is None:
                        raise
                    self._notify_failure(shard_id)
                    leftover = slots[position:]
                    for pending in leftover:
                        pending.attempted.add(shard_id)
                        # This shard's copy of each unfinished write is lost until
                        # a heal replays it or recovery re-replicates the key.
                        if (
                            pending.operation.kind is not OpKind.LOOKUP
                            and self._on_missed_write is not None
                        ):
                            self._on_missed_write(shard_id, pending.key)
                    break
                if slot.primary:
                    results[slot.index] = result
                elif results[slot.index] is None:
                    # A replica's record stands in for a failed primary's.
                    results[slot.index] = result
                stats.operations += 1
                _count(stats, slot.operation.kind, result)
                fallback_busy_ms += getattr(result, "latency_ms", 0.0)
            completed = True
        finally:
            # The span must close on *every* exit — a DeviceFailedError that
            # propagates in stand-alone mode, but also any unexpected
            # exception from a shard operation; leaving it open would
            # mis-parent (or, before Tracer.end grew its stack guard, orphan)
            # every span the next operation opens.
            if clock is not None:
                stats.busy_ms = clock.now_ms - started_ms
            else:
                stats.busy_ms = fallback_busy_ms
            if span is not None:
                if leftover or not completed:
                    span.attributes["failed"] = True
                if leftover:
                    span.attributes["operations_completed"] = stats.operations
                tracer.end(span, clock)
        return stats, leftover


def _count(stats: ShardBatchStats, kind: OpKind, result) -> None:
    if kind is OpKind.LOOKUP:
        stats.lookups += 1
        if result.found:
            stats.lookup_hits += 1
    elif kind is OpKind.INSERT:
        stats.inserts += 1
    elif kind is OpKind.UPDATE:
        stats.updates += 1
    elif kind is OpKind.DELETE:
        stats.deletes += 1
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown operation kind {kind!r}")
    stats.flash_reads += getattr(result, "flash_reads", 0)
    stats.flash_writes += getattr(result, "flash_writes", 0)
