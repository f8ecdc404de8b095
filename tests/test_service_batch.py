"""Tests for batched execution: result equivalence and latency accounting."""

import pytest

from repro.core import CLAMConfig
from repro.core.results import DeleteResult, InsertResult, LookupResult
from repro.service import DISPATCH_OVERHEAD_MS, ROUTING_COST_MS, ClusterService
from repro.workloads import (
    Operation,
    OpKind,
    WorkloadSpec,
    build_mixed_workload,
    build_update_workload,
    fingerprint_for,
)


def small_cluster(**overrides):
    config = CLAMConfig.scaled(
        num_super_tables=4, buffer_capacity_items=32, incarnations_per_table=4
    )
    return ClusterService(num_shards=4, config=config, **overrides)


class TestBatchEquivalence:
    def test_batch_results_equal_sequential_results(self):
        """Batched execution returns the same per-op records as one-at-a-time."""
        operations = build_mixed_workload(WorkloadSpec(num_keys=600, seed=11))
        sequential = small_cluster()
        batched = small_cluster()

        expected = []
        for operation in operations:
            if operation.kind is OpKind.LOOKUP:
                expected.append(sequential.lookup(operation.key))
            else:
                expected.append(sequential.insert(operation.key, operation.value))

        got = []
        for start in range(0, len(operations), 48):
            batch = batched.execute_batch(operations[start : start + 48])
            got.extend(batch.results)

        assert len(got) == len(expected)
        for op, want, have in zip(operations, expected, got):
            assert type(have) is type(want)
            assert have.key == want.key
            if op.kind is OpKind.LOOKUP:
                assert have.found == want.found
                assert have.value == want.value
            assert have.latency_ms == pytest.approx(want.latency_ms)

    def test_update_and_delete_equivalence(self):
        operations = build_update_workload(
            WorkloadSpec(num_keys=400, update_fraction=0.3, delete_fraction=0.2, seed=5)
        )
        sequential = small_cluster()
        batched = small_cluster()
        for operation in operations:
            if operation.kind is OpKind.LOOKUP:
                sequential.lookup(operation.key)
            elif operation.kind is OpKind.DELETE:
                sequential.delete(operation.key)
            else:
                sequential.update(operation.key, operation.value)
        batched.execute_batch(operations)
        # After the same logical stream, both clusters answer identically.
        for identifier in range(200):
            key = fingerprint_for(identifier, namespace=b"wl-upd-5")
            assert batched.get(key) == sequential.get(key)

    def test_per_key_order_preserved_within_batch(self):
        cluster = small_cluster()
        key = fingerprint_for(1)
        batch = cluster.execute_batch(
            [
                Operation(OpKind.INSERT, key, b"v1"),
                Operation(OpKind.UPDATE, key, b"v2"),
                Operation(OpKind.LOOKUP, key),
                Operation(OpKind.DELETE, key),
                Operation(OpKind.LOOKUP, key),
            ]
        )
        insert, update, first_lookup, delete, second_lookup = batch.results
        assert isinstance(insert, InsertResult)
        assert isinstance(update, InsertResult)
        assert isinstance(first_lookup, LookupResult)
        assert first_lookup.value == b"v2"
        assert isinstance(delete, DeleteResult)
        assert isinstance(second_lookup, LookupResult)
        assert not second_lookup.found


class TestBatchAccounting:
    def test_empty_batch(self):
        batch = small_cluster().execute_batch([])
        assert batch.operations == 0
        assert batch.results == []
        assert batch.makespan_ms == 0.0

    def test_per_shard_breakdown_sums_to_batch(self):
        cluster = small_cluster()
        operations = build_mixed_workload(WorkloadSpec(num_keys=300, seed=3))
        batch = cluster.execute_batch(operations)
        assert batch.operations == len(operations)
        assert sum(s.operations for s in batch.per_shard.values()) == len(operations)
        assert sum(s.lookups for s in batch.per_shard.values()) == sum(
            1 for op in operations if op.kind is OpKind.LOOKUP
        )
        assert batch.busy_ms == pytest.approx(sum(s.busy_ms for s in batch.per_shard.values()))
        assert batch.dispatch_ms == pytest.approx(
            sum(s.dispatch_ms for s in batch.per_shard.values())
        )
        assert batch.routing_ms == pytest.approx(
            sum(s.routing_ms for s in batch.per_shard.values())
        )

    def test_makespan_is_slowest_shard_all_costs_in(self):
        cluster = small_cluster()
        operations = build_mixed_workload(WorkloadSpec(num_keys=200, seed=9))
        batch = cluster.execute_batch(operations)
        slowest = max(s.total_ms for s in batch.per_shard.values())
        assert batch.makespan_ms == pytest.approx(slowest)
        # Routing is charged per-operation on the owning shard.
        assert batch.routing_ms == pytest.approx(ROUTING_COST_MS * len(operations))
        # Parallel shards: completing when the slowest finishes beats summing.
        assert batch.makespan_ms < batch.busy_ms + batch.dispatch_ms + batch.routing_ms

    def test_dispatch_amortisation(self):
        cluster = small_cluster()
        operations = [Operation(OpKind.INSERT, fingerprint_for(i), b"v") for i in range(64)]
        batch = cluster.execute_batch(operations)
        # Dispatch paid once per shard touched, not once per operation.
        assert batch.shards_touched <= cluster.num_shards
        assert batch.dispatch_ms == pytest.approx(batch.shards_touched * DISPATCH_OVERHEAD_MS)
        assert batch.dispatch_ms_unbatched == pytest.approx(len(operations) * DISPATCH_OVERHEAD_MS)
        assert batch.dispatch_saved_ms > 0

    def test_shard_clocks_advance_by_sub_batch_time(self):
        cluster = small_cluster()
        before = {sid: clam.clock.now_ms for sid, clam in cluster.shards.items()}
        batch = cluster.execute_batch(
            [Operation(OpKind.INSERT, fingerprint_for(i), b"v") for i in range(32)]
        )
        for shard_id, stats in batch.per_shard.items():
            elapsed = cluster.shards[shard_id].clock.now_ms - before[shard_id]
            assert elapsed == pytest.approx(stats.total_ms)

