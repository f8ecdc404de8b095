"""Batched execution of hash operations against a sharded CLAM fleet.

Client-facing services rarely dispatch one index operation at a time: they
collect a batch, route it, and hand each shard its sub-batch in one dispatch.
:class:`BatchExecutor` models exactly that.  Per-operation *results* are
identical to issuing the same operations one by one (grouping by shard
preserves per-key order, and each shard's simulated device is deterministic),
but the *accounting* differs: the fixed dispatch overhead is paid once per
shard sub-batch instead of once per operation, and the batch completes when
the slowest shard finishes — shards run in parallel on independent clocks.

The multi-branch WAN optimizer is the canonical client: each branch office's
compression engine sends one ``lookup_batch`` and one ``insert_batch`` round
trip per object (:meth:`ClusterService.lookup_batch` builds the operation
lists), so a whole object's fingerprints cost one dispatch per touched shard
rather than one per chunk, and the branch's wait is the
:attr:`BatchResult.makespan_ms` across parallel shards rather than the
serial sum.

The executor belongs to one :class:`~repro.service.cluster.ClusterService`
and is replication-aware and failure-tolerant through it: writes fan out to
every live shard of the key's (migration-aware) preference list, lookups go
to the first live replica, a shard that raises
:class:`~repro.core.errors.DeviceFailedError` mid-batch (or has vanished
from the shard map) is reported to the cluster's error counters and its
unfinished operations are re-dispatched to the next live replica; only an
operation with no live replica left raises the typed
:class:`~repro.core.errors.ShardUnavailableError` (never a bare
``KeyError``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.errors import DeviceFailedError, ShardUnavailableError
from repro.core.hashing import RING_SEED, KeyLike, as_digest, prime_digests
from repro.telemetry import trace as _trace
from repro.workloads.runner import apply_operation
from repro.workloads.workload import Operation, OpKind

if TYPE_CHECKING:  # pragma: no cover - import cycle: the cluster builds its executor
    from repro.service.cluster import ClusterService

#: Simulated cost of handing one sub-batch (or one single operation) to a
#: shard: argument marshalling, queueing, the request/response hop.  Batching
#: amortises this across every operation in the sub-batch.
DISPATCH_OVERHEAD_MS = 0.02

#: Simulated front-end cost of routing a single key (one ring lookup).
ROUTING_COST_MS = 0.0002


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
    """Routes a cluster's batch by shard and executes per-shard sub-batches.

    The executor reads the cluster's placement, shard map and replication
    factor at call time, so shards added or removed after construction are
    picked up automatically.  Placement, liveness, failure reporting and
    hinted handoff are the cluster's own methods:
    :meth:`~ClusterService._op_replicas` (migration-aware, so an in-flight
    rebalance double-reads and dual-writes the arcs being moved while
    batches keep flowing), :meth:`~ClusterService.is_live`,
    :meth:`~ClusterService.record_shard_error` and
    :meth:`~ClusterService._record_hint` (every write copy a down or
    failing replica did not receive).
    """

    def __init__(self, cluster: "ClusterService") -> None:
        self.cluster = cluster

    def _targets(self, key: KeyLike, kind: OpKind, attempted: Set[str]) -> Tuple[str, ...]:
        """Replica shards one operation dispatches to.

        The key's replicas filtered through the cluster's live view; raises
        :class:`ShardUnavailableError` when nothing is left.
        """
        cluster = self.cluster
        replicas = cluster._op_replicas(key, kind)
        is_live = cluster.is_live
        live = tuple(s for s in replicas if s not in attempted and is_live(s))
        if kind is not OpKind.LOOKUP:
            for shard_id in replicas:
                if shard_id not in live and shard_id not in attempted:
                    cluster._record_hint(shard_id, key)
        if not live:
            raise ShardUnavailableError(
                f"no live replica remains for a {kind.value} operation "
                f"(replication_factor={cluster.replication_factor})"
            )
        if kind is OpKind.LOOKUP:
            return live[:1]
        return live

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
        keys = [as_digest(operation.key) for operation in submitted]
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

        batch.dispatch_ms_unbatched = DISPATCH_OVERHEAD_MS * len(submitted)
        batch.makespan_ms = max((stats.total_ms for stats in batch.per_shard.values()), default=0.0)
        return batch

    def _dispatch_round(self, groups: Dict[str, List[_Slot]], batch: BatchResult) -> List[_Slot]:
        """Execute one round of per-shard sub-batches; returns the failed slots.

        The base implementation runs sub-batches serially on the caller's
        thread — the deterministic single-process path.  The process-per-shard
        deployment overrides exactly this hook with a scatter/gather over
        worker sockets (:class:`repro.service.parallel.ParallelBatchExecutor`)
        while reusing the routing, retry and result-folding machinery around
        it (:meth:`_fold_sub_batch`), which is what keeps the two modes'
        results bit-identical.
        """
        failed_slots: List[_Slot] = []
        shards = self.cluster.shards
        for shard_id, slots in groups.items():
            for slot in slots:
                slot.attempted.add(shard_id)
            shard = shards.get(shard_id)
            if shard is None:
                # The instance vanished between routing and execution
                # (removed mid-flight): the live view re-routes the group.
                self._fold_sub_batch(shard_id, slots, [], True, None, batch, failed_slots)
                continue
            stats = _sub_batch_stats(shard_id, len(slots))
            # Charge routing + dispatch to the owning shard's clock so that
            # every duration in the system derives from the same time line.
            clock = shard.clock
            clock.advance(stats.dispatch_ms + stats.routing_ms)
            tracer = _trace.ACTIVE
            span = (
                tracer.begin("shard.batch", clock, shard=shard_id, operations=len(slots))
                if tracer is not None
                else None
            )
            started_ms = clock.now_ms
            results: List[object] = []
            failed = False
            try:
                for slot in slots:
                    results.append(apply_operation(shard, slot.operation, key=slot.key))
            except DeviceFailedError:
                failed = True
            finally:
                # The span must close on *every* exit, including an
                # unexpected exception from a shard operation; leaving it
                # open would mis-parent every span the next operation opens.
                stats.busy_ms = clock.now_ms - started_ms
                if span is not None:
                    if len(results) < len(slots):
                        span.attributes["failed"] = True
                    if failed:
                        span.attributes["operations_completed"] = len(results)
                    tracer.end(span, clock)
            self._fold_sub_batch(shard_id, slots, results, failed, stats, batch, failed_slots)
        return failed_slots

    def _fold_sub_batch(
        self,
        shard_id: str,
        slots: List[_Slot],
        results: List[object],
        failed: bool,
        stats: Optional[ShardBatchStats],
        batch: BatchResult,
        failed_slots: List[_Slot],
    ) -> None:
        """Fold one shard's sub-batch outcome into ``batch``.

        ``results`` are the records of the leading slots the shard completed.
        The primary's record (or, for a failed primary, the first surviving
        replica's) becomes the operation's result.  When the shard ``failed``
        or left slots unfinished, the failure is reported to the cluster,
        every unfinished write copy is hinted for handoff, and the leftover
        slots join ``failed_slots`` for re-routing.  ``stats`` is ``None``
        when no sub-batch ran at all (the shard vanished or died before
        answering).
        """
        if stats is not None:
            batch_results = batch.results
            for slot, result in zip(slots, results):
                if slot.primary or batch_results[slot.index] is None:
                    batch_results[slot.index] = result
                _count(stats, slot.operation.kind, result)
            stats.operations += len(results)
            self._merge_shard_stats(batch, stats)
        leftover = slots[len(results) :]
        if failed or leftover:
            cluster = self.cluster
            cluster.record_shard_error(shard_id)
            for pending in leftover:
                # This shard's copy of each unfinished write is lost until a
                # heal replays it or recovery re-replicates the key.
                if pending.operation.kind is not OpKind.LOOKUP:
                    cluster._record_hint(shard_id, pending.key)
            if shard_id not in batch.failed_shards:
                batch.failed_shards.append(shard_id)
            failed_slots.extend(leftover)

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


def _sub_batch_stats(shard_id: str, operations: int) -> ShardBatchStats:
    """Fresh stats for one sub-batch, with its dispatch and routing costs."""
    return ShardBatchStats(
        shard_id=shard_id,
        dispatch_ms=DISPATCH_OVERHEAD_MS,
        routing_ms=ROUTING_COST_MS * operations,
    )


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
