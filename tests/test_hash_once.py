"""End-to-end guarantees of the hash-once KeyDigest pipeline.

Three claims, each enforced here:

1. **Equivalence** — with ``use_hash_once`` on or off, every operation
   returns identical results and drives the simulated devices identically
   (same flushes, incarnations, latencies).  The digest pipeline is a pure
   performance change.
2. **Hash-once** — one operation builds at most one digest and traverses the
   key bytes at most once per layer; probing several incarnations reuses the
   Bloom/page hashes that the legacy path recomputed per incarnation.
3. **Service reuse** — a digest built for consistent-hash routing is the
   digest the owning CLAM uses, end to end through the batch executor; a
   shard worker, which receives key bytes only, hashes each distinct key of
   a sub-batch at most once per seed.
"""

from __future__ import annotations

import pytest

from repro.core import CLAM, CLAMConfig
from repro.core.hashing import (
    PAGE_SEED,
    SEED_LAYERS,
    clear_digest_cache,
    count_hash_calls,
)
from repro.service import ClusterService, wire
from repro.service.parallel import _PRIMED_SEEDS, _handle_batch
from repro.workloads.workload import Operation, OpKind


def _config(hash_once: bool, **overrides) -> CLAMConfig:
    return CLAMConfig.scaled(
        num_super_tables=4,
        buffer_capacity_items=32,
        incarnations_per_table=4,
        use_hash_once=hash_once,
        **overrides,
    )


def _drive(clam: CLAM, operations):
    results = []
    for kind, key in operations:
        if kind == "insert":
            results.append(clam.insert(key, b"value-of-%r" % key))
        elif kind == "lookup":
            results.append(clam.lookup(key))
        else:
            results.append(clam.delete(key))
    return results


def _mixed_workload():
    operations = []
    for i in range(600):
        operations.append(("insert", b"wk-%04d" % (i % 250)))
        if i % 3 == 0:
            operations.append(("lookup", b"wk-%04d" % ((i * 7) % 250)))
        if i % 11 == 0:
            operations.append(("delete", b"wk-%04d" % ((i * 5) % 250)))
        if i % 17 == 0:
            operations.append(("lookup", b"absent-%04d" % i))
    return operations


class TestEquivalence:
    @pytest.mark.parametrize("bit_slicing", [True, False])
    def test_hash_once_and_legacy_paths_behave_identically(self, bit_slicing):
        clear_digest_cache()
        fast = CLAM(_config(True, use_bit_slicing=bit_slicing), storage="intel-ssd")
        slow = CLAM(_config(False, use_bit_slicing=bit_slicing), storage="intel-ssd")
        workload = _mixed_workload()
        for fast_result, slow_result in zip(_drive(fast, workload), _drive(slow, workload)):
            assert type(fast_result) is type(slow_result)
            assert fast_result.key == slow_result.key
            assert getattr(fast_result, "value", None) == getattr(slow_result, "value", None)
            assert fast_result.latency_ms == slow_result.latency_ms
        assert fast.bufferhash.total_flushes == slow.bufferhash.total_flushes
        assert fast.bufferhash.total_incarnations == slow.bufferhash.total_incarnations
        assert fast.clock.now_ms == slow.clock.now_ms
        assert fast.bufferhash.snapshot_items() == slow.bufferhash.snapshot_items()

    def test_legacy_mode_builds_no_digests(self):
        """The ablation must be pure: with ``use_hash_once=False`` nothing in
        the stack (including flush-time page placement) touches the digest
        machinery or the global digest cache."""
        from repro.core.hashing import digest_cache_info

        clear_digest_cache()
        clam = CLAM(_config(False), storage="intel-ssd")
        with count_hash_calls() as log:
            for i in range(300):  # enough to force flushes
                clam.insert(b"pure-%04d" % i, b"v")
            for i in range(300):
                clam.lookup(b"pure-%04d" % i)
        assert clam.bufferhash.total_flushes > 0
        assert log.digest_builds == 0
        assert digest_cache_info()["size"] == 0

    def test_mixed_key_types_roundtrip_through_digests(self):
        clam = CLAM(_config(True), storage="intel-ssd")
        clam.insert("string-key", b"sv")
        clam.insert(12345, b"iv")
        clam.insert(memoryview(b"mv-key"), b"mv")
        assert clam.get(b"string-key") == b"sv"  # str and bytes share one space
        assert clam.get(12345) == b"iv"
        assert clam.get(b"mv-key") == b"mv"


class TestHashOnceCounting:
    """The headline claim: per-operation key-hash invocations drop to one."""

    def _flash_resident_clam(self, hash_once: bool, bit_slicing: bool) -> CLAM:
        clam = CLAM(
            _config(hash_once, use_bit_slicing=bit_slicing),
            storage="intel-ssd",
            keep_latency_samples=False,
        )
        for i in range(800):  # enough to fill several incarnations per table
            clam.insert(b"cnt-%04d" % i, b"v")
        return clam

    @staticmethod
    def _flash_served_key(clam: CLAM) -> bytes:
        from repro.core.results import ServedFrom

        for i in reversed(range(800)):
            key = b"cnt-%04d" % i
            if clam.lookup(key).served_from is ServedFrom.INCARNATION:
                return key
        raise AssertionError("no flash-resident key found")

    def test_lookup_hashes_each_layer_at_most_once(self):
        clam = self._flash_resident_clam(hash_once=True, bit_slicing=True)
        probe = self._flash_served_key(clam)
        clear_digest_cache()
        with count_hash_calls() as log:
            result = clam.lookup(probe)
        assert result.value == b"v"
        assert log.digest_builds == 1  # the key bytes enter the pipeline once
        for seed, count in log.by_seed.items():
            assert count == 1, f"layer {SEED_LAYERS.get(seed, hex(seed))} hashed {count}x"

    def test_cached_key_is_never_rehashed(self):
        clam = self._flash_resident_clam(hash_once=True, bit_slicing=True)
        probe = b"cnt-0042"
        clam.lookup(probe)  # populate the digest cache
        with count_hash_calls() as log:
            clam.lookup(probe)
            clam.insert(probe, b"v2")
        assert log.total == 0
        assert log.digest_builds == 0

    def test_legacy_path_rehashes_bloom_per_incarnation(self):
        """Without bit slicing, the legacy path pays two Bloom passes per
        incarnation probed, the digest path exactly one per base hash."""
        legacy = self._flash_resident_clam(hash_once=False, bit_slicing=False)
        digest = self._flash_resident_clam(hash_once=True, bit_slicing=False)
        probe = b"cnt-0042"
        table = legacy.bufferhash.table_for(probe)
        assert table.incarnation_count > 1  # the probe sees several filters

        with count_hash_calls() as legacy_log:
            legacy.lookup(probe)
        clear_digest_cache()
        with count_hash_calls() as digest_log:
            digest.lookup(probe)

        legacy_layers = legacy_log.by_layer()
        digest_layers = digest_log.by_layer()
        assert legacy_layers["bloom_h1"] > 1  # one pass per incarnation's filter
        assert digest_layers["bloom_h1"] == 1
        assert digest_layers["bloom_h2"] == 1
        assert max(digest_layers.values()) == 1
        assert digest_log.total < legacy_log.total


class TestServiceReuse:
    def test_routing_digest_reaches_the_shard(self):
        """The batch executor routes and executes with one digest per key."""
        cluster = ClusterService(num_shards=3, config=_config(True), storage="dram")
        keys = [b"svc-%03d" % i for i in range(60)]
        cluster.execute_batch([Operation(OpKind.INSERT, key, b"v") for key in keys])
        clear_digest_cache()
        with count_hash_calls() as log:
            batch = cluster.execute_batch([Operation(OpKind.LOOKUP, key) for key in keys])
        assert all(result.found for result in batch.results)
        assert log.digest_builds == len(keys)
        # Ring + shard layers each hashed every key at most once.
        for layer, count in log.by_layer().items():
            assert count <= len(keys), f"{layer} hashed {count}x for {len(keys)} keys"

    def test_single_op_dispatch_matches_batch_results(self):
        sequential = ClusterService(num_shards=2, config=_config(True), storage="dram")
        batched = ClusterService(num_shards=2, config=_config(True), storage="dram")
        keys = [b"one-%03d" % i for i in range(40)]
        for key in keys:
            sequential.insert(key, b"v")
        batched.execute_batch([Operation(OpKind.INSERT, key, b"v") for key in keys])
        for key in keys:
            assert sequential.get(key) == batched.get(key) == b"v"


class TestWorkerPriming:
    """A worker's batch handler hashes a sub-batch, not each operation."""

    @staticmethod
    def _sub_batch():
        """64 operations over 23 distinct keys: flash-resident lookups,
        buffer hits, misses, fresh inserts and an update, with repeats."""
        operations = []
        for i in range(64):
            rank = (i * 7) % 24
            if rank < 12:
                operations.append((OpKind.LOOKUP, b"cnt-%04d" % (rank * 50), b""))
            elif rank < 18:
                operations.append((OpKind.LOOKUP, b"miss-%04d" % rank, b""))
            elif rank < 23:
                operations.append((OpKind.INSERT, b"new-%04d" % rank, b"v%d" % i))
            else:
                operations.append((OpKind.UPDATE, b"cnt-0100", b"u%d" % i))
        return operations

    @staticmethod
    def _loaded_clam(hash_once: bool) -> CLAM:
        clam = CLAM(_config(hash_once), storage="intel-ssd", keep_latency_samples=False)
        for i in range(800):
            clam.insert(b"cnt-%04d" % i, b"v")
        return clam

    def test_each_seed_hashed_at_most_once_per_distinct_key(self):
        operations = self._sub_batch()
        distinct = len({key for _, key, _ in operations})
        clam = self._loaded_clam(hash_once=True)
        payload = wire.encode_batch_request(0.0, operations)
        clear_digest_cache()
        with count_hash_calls() as log:
            _handle_batch(clam, True, payload)
        for seed in _PRIMED_SEEDS:
            assert log.by_seed[seed] == distinct, SEED_LAYERS[seed]
        assert 0 < log.by_seed.get(PAGE_SEED, 0) <= distinct  # lazy, but hashed once

    @pytest.mark.parametrize("hash_once", [True, False])
    def test_results_match_one_operation_at_a_time(self, hash_once):
        operations = self._sub_batch()
        reference = self._loaded_clam(hash_once)
        expected = [
            reference.lookup(key) if kind is OpKind.LOOKUP else reference.insert(key, value)
            for kind, key, value in operations
        ]
        clam = self._loaded_clam(hash_once)
        response = _handle_batch(clam, hash_once, wire.encode_batch_request(0.0, operations))
        results, code, _, clock_ms, _ = wire.decode_batch_response(
            response, [key for _, key, _ in operations]
        )
        assert code == wire.ERR_NONE
        assert results == expected
        assert clam.counters() == reference.counters()
        assert clock_ms == reference.clock.now_ms
