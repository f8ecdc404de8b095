"""End-to-end guarantees of the hash-once KeyDigest pipeline.

Three claims, each enforced here:

1. **Equivalence** — a seeded mixed workload returns the same results and
   drives the simulated devices the same way (flushes, incarnations,
   latencies, clock, final contents) as the retired implementation that
   re-hashed the key at every layer.  Both implementations were run and
   agreed; their shared outcome is frozen here as a SHA-256 golden.
2. **Hash-once** — one operation builds at most one digest and traverses the
   key bytes at most once per layer, however many incarnations it probes.
3. **Service reuse** — a digest built for consistent-hash routing is the
   digest the owning CLAM uses, end to end through the batch executor; a
   shard worker, which receives key bytes only, hashes each distinct key of
   a sub-batch at most once per seed.
"""

from __future__ import annotations

import hashlib

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


def _config(**overrides) -> CLAMConfig:
    return CLAMConfig.scaled(
        num_super_tables=4,
        buffer_capacity_items=32,
        incarnations_per_table=4,
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


def _outcome_sha256(clam: CLAM, results) -> str:
    """SHA-256 over each result's type, key, value and latency, the flush
    and incarnation counts, the simulated clock and the final contents."""
    digest = hashlib.sha256()
    for result in results:
        record = (
            type(result).__name__,
            result.key,
            getattr(result, "value", None),
            result.latency_ms,
        )
        digest.update(repr(record).encode())
    bufferhash = clam.bufferhash
    totals = (bufferhash.total_flushes, bufferhash.total_incarnations, clam.clock.now_ms)
    digest.update(repr(totals).encode())
    digest.update(repr(sorted(bufferhash.snapshot_items().items())).encode())
    return digest.hexdigest()


#: :func:`_outcome_sha256` of :func:`_mixed_workload` per ``use_bit_slicing``,
#: produced identically by the digest pipeline and by the implementation that
#: re-hashed the key bytes at every layer, before the latter was retired.
MIXED_WORKLOAD_GOLDEN = {
    True: "8be1a6600240fbcbf3b3e0252eb710f427067c589443df055b224d2e7522bb96",
    False: "10c9bbc064ef087b2104798cc41f8b0a13a7b574aabc7edfad95272519b6914e",
}


class TestEquivalence:
    @pytest.mark.parametrize("bit_slicing", [True, False])
    def test_mixed_workload_matches_the_per_layer_hashing_golden(self, bit_slicing):
        clear_digest_cache()
        clam = CLAM(_config(use_bit_slicing=bit_slicing), storage="intel-ssd")
        results = _drive(clam, _mixed_workload())
        assert _outcome_sha256(clam, results) == MIXED_WORKLOAD_GOLDEN[bit_slicing]

    def test_mixed_key_types_roundtrip_through_digests(self):
        clam = CLAM(_config(), storage="intel-ssd")
        clam.insert("string-key", b"sv")
        clam.insert(12345, b"iv")
        clam.insert(memoryview(b"mv-key"), b"mv")
        assert clam.get(b"string-key") == b"sv"  # str and bytes share one space
        assert clam.get(12345) == b"iv"
        assert clam.get(b"mv-key") == b"mv"


class TestHashOnceCounting:
    """The headline claim: per-operation key-hash invocations drop to one."""

    def _flash_resident_clam(self, bit_slicing: bool) -> CLAM:
        clam = CLAM(
            _config(use_bit_slicing=bit_slicing),
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
        clam = self._flash_resident_clam(bit_slicing=True)
        probe = self._flash_served_key(clam)
        clear_digest_cache()
        with count_hash_calls() as log:
            result = clam.lookup(probe)
        assert result.value == b"v"
        assert log.digest_builds == 1  # the key bytes enter the pipeline once
        for seed, count in log.by_seed.items():
            assert count == 1, f"layer {SEED_LAYERS.get(seed, hex(seed))} hashed {count}x"

    def test_cached_key_is_never_rehashed(self):
        clam = self._flash_resident_clam(bit_slicing=True)
        probe = b"cnt-0042"
        clam.lookup(probe)  # populate the digest cache
        with count_hash_calls() as log:
            clam.lookup(probe)
            clam.insert(probe, b"v2")
        assert log.total == 0
        assert log.digest_builds == 0

    def test_unsliced_lookup_hashes_bloom_once_across_incarnations(self):
        """Without bit slicing every incarnation has its own Bloom filter;
        probing several of them still costs one pass per base hash."""
        clam = self._flash_resident_clam(bit_slicing=False)
        probe = b"cnt-0042"
        table = clam.bufferhash.table_for(probe)
        assert table.incarnation_count > 1  # the probe sees several filters

        clear_digest_cache()
        with count_hash_calls() as log:
            clam.lookup(probe)

        layers = log.by_layer()
        assert layers["bloom_h1"] == 1
        assert layers["bloom_h2"] == 1
        assert max(layers.values()) == 1


class TestServiceReuse:
    def test_routing_digest_reaches_the_shard(self):
        """The batch executor routes and executes with one digest per key."""
        cluster = ClusterService(num_shards=3, config=_config(), storage="dram")
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
        sequential = ClusterService(num_shards=2, config=_config(), storage="dram")
        batched = ClusterService(num_shards=2, config=_config(), storage="dram")
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
    def _loaded_clam() -> CLAM:
        clam = CLAM(_config(), storage="intel-ssd", keep_latency_samples=False)
        for i in range(800):
            clam.insert(b"cnt-%04d" % i, b"v")
        return clam

    def test_each_seed_hashed_at_most_once_per_distinct_key(self):
        operations = self._sub_batch()
        distinct = len({key for _, key, _ in operations})
        clam = self._loaded_clam()
        payload = wire.encode_batch_request(0.0, operations)
        clear_digest_cache()
        with count_hash_calls() as log:
            _handle_batch(clam, payload)
        for seed in _PRIMED_SEEDS:
            assert log.by_seed[seed] == distinct, SEED_LAYERS[seed]
        assert 0 < log.by_seed.get(PAGE_SEED, 0) <= distinct  # lazy, but hashed once

    def test_results_match_one_operation_at_a_time(self):
        operations = self._sub_batch()
        reference = self._loaded_clam()
        expected = [
            reference.lookup(key) if kind is OpKind.LOOKUP else reference.insert(key, value)
            for kind, key, value in operations
        ]
        clam = self._loaded_clam()
        response = _handle_batch(clam, wire.encode_batch_request(0.0, operations))
        results, code, _, clock_ms, _ = wire.decode_batch_response(
            response, [key for _, key, _ in operations]
        )
        assert code == wire.ERR_NONE
        assert results == expected
        assert clam.counters() == reference.counters()
        assert clock_ms == reference.clock.now_ms
