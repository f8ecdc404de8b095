"""Tests for the deterministic hashing helpers and the KeyDigest pipeline."""

import pytest
from hypothesis import given, strategies as st

from repro.core.hashing import (
    BLOOM_SEED_H1,
    BLOOM_SEED_H2,
    CUCKOO_SEED_FIRST,
    CUCKOO_SEED_SECOND,
    PACKED_MIN_LANES,
    PAGE_SEED,
    PARTITION_SEED,
    RING_SEED,
    KeyDigest,
    as_digest,
    clear_digest_cache,
    count_hash_calls,
    digest_cache_info,
    double_hashes,
    fnv1a_64,
    fnv1a_64_packed,
    hash_key,
    key_data,
    prime_digests,
    set_digest_cache_capacity,
    to_key_bytes,
)

#: The per-layer seeds whose derived values define the on-flash layout.
LAYOUT_SEEDS = (
    PARTITION_SEED,
    CUCKOO_SEED_FIRST,
    CUCKOO_SEED_SECOND,
    BLOOM_SEED_H1,
    BLOOM_SEED_H2,
    PAGE_SEED,
    RING_SEED,
)


class TestToKeyBytes:
    def test_bytes_pass_through(self):
        assert to_key_bytes(b"abc") == b"abc"

    def test_bytearray_and_memoryview(self):
        assert to_key_bytes(bytearray(b"abc")) == b"abc"
        assert to_key_bytes(memoryview(b"abc")) == b"abc"

    def test_string_utf8(self):
        assert to_key_bytes("héllo") == "héllo".encode("utf-8")

    def test_integer_big_endian(self):
        assert to_key_bytes(0) == b"\x00"
        assert to_key_bytes(256) == b"\x01\x00"

    def test_negative_integer_rejected(self):
        with pytest.raises(ValueError):
            to_key_bytes(-1)

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            to_key_bytes(3.14)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_distinct_integers_map_to_distinct_bytes(self, value):
        assert int.from_bytes(to_key_bytes(value), "big") == value

    def test_cross_type_collision_is_frozen_behaviour(self):
        """Regression: different key *types* share one canonical byte space.

        The int ``0x41``, the bytes ``b"A"`` and the str ``"A"`` all encode
        to ``b"A"`` and are therefore the same key (documented in
        ``to_key_bytes``).  Freezing this keeps the on-flash layout stable;
        if it ever needs to change, it is a breaking format change, not a
        bug fix.
        """
        assert to_key_bytes(0x41) == to_key_bytes(b"A") == to_key_bytes("A") == b"A"
        # The collision propagates through every derived hash, as specified.
        for seed in LAYOUT_SEEDS:
            assert hash_key(0x41, seed) == hash_key(b"A", seed)


class TestFNV:
    def test_deterministic(self):
        assert fnv1a_64(b"hello") == fnv1a_64(b"hello")

    def test_seed_changes_value(self):
        assert fnv1a_64(b"hello", seed=1) != fnv1a_64(b"hello", seed=2)

    def test_different_inputs_differ(self):
        assert fnv1a_64(b"hello") != fnv1a_64(b"hellp")

    def test_fits_in_64_bits(self):
        assert 0 <= fnv1a_64(b"anything" * 10) < 2**64

    @given(st.binary(min_size=0, max_size=64))
    def test_always_in_range(self, data):
        assert 0 <= fnv1a_64(data) < 2**64


class TestHashKey:
    def test_accepts_all_key_types(self):
        assert hash_key(b"a") == hash_key(b"a")
        assert isinstance(hash_key("string"), int)
        assert isinstance(hash_key(42), int)

    def test_distribution_roughly_uniform(self):
        buckets = [0] * 16
        for i in range(16_000):
            buckets[hash_key(b"key-%d" % i) % 16] += 1
        assert min(buckets) > 700
        assert max(buckets) < 1300


class TestDoubleHashes:
    def test_count_and_range(self):
        values = double_hashes(b"key", count=7, modulus=100)
        assert len(values) == 7
        assert all(0 <= v < 100 for v in values)

    def test_deterministic(self):
        assert double_hashes(b"key", 5, 64) == double_hashes(b"key", 5, 64)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            double_hashes(b"key", 0, 10)
        with pytest.raises(ValueError):
            double_hashes(b"key", 3, 0)

    @given(st.binary(min_size=1, max_size=32), st.integers(2, 10), st.integers(8, 1024))
    def test_property_count_and_range(self, key, count, modulus):
        values = double_hashes(key, count, modulus)
        assert len(values) == count
        assert all(0 <= v < modulus for v in values)


#: Every supported key representation of the same underlying bytes b"A".
def _representations(data: bytes):
    reps = [data, bytearray(data), memoryview(data)]
    try:
        reps.append(data.decode("utf-8"))
    except UnicodeDecodeError:
        pass
    if data and data[0] != 0:  # int encoding strips leading zero bytes
        reps.append(int.from_bytes(data, "big"))
    return reps


class TestKeyDigest:
    """The hash-once pipeline must be bit-identical to direct seeded hashing."""

    @given(st.binary(min_size=1, max_size=32))
    def test_digest_equals_direct_hash_for_every_layout_seed(self, data):
        digest = KeyDigest(data)
        for seed in LAYOUT_SEEDS:
            assert digest.digest(seed) == fnv1a_64(data, seed)

    @given(st.binary(min_size=1, max_size=32))
    def test_all_key_representations_agree(self, data):
        expected = {seed: fnv1a_64(data, seed) for seed in LAYOUT_SEEDS}
        for representation in _representations(data):
            digest = KeyDigest(representation)
            assert digest.data == data
            for seed in LAYOUT_SEEDS:
                assert digest.digest(seed) == expected[seed]

    @given(st.binary(min_size=1, max_size=32), st.integers(1, 12), st.integers(8, 4096))
    def test_bloom_positions_equal_double_hashes(self, data, count, modulus):
        digest = KeyDigest(data)
        assert digest.bloom_positions(count, modulus) == double_hashes(data, count, modulus)
        # Memoised: the same list object answers repeated queries.
        assert digest.bloom_positions(count, modulus) is digest.bloom_positions(count, modulus)

    @given(st.binary(min_size=1, max_size=32), st.integers(2, 1 << 20))
    def test_derived_moduli_equal_direct_implementation(self, data, modulus):
        digest = KeyDigest(data)
        assert digest.digest(PARTITION_SEED) % modulus == hash_key(data, PARTITION_SEED) % modulus
        assert digest.digest(PAGE_SEED) % modulus == hash_key(data, PAGE_SEED) % modulus
        assert digest.digest(RING_SEED) == hash_key(data, RING_SEED)

    def test_digest_is_accepted_as_a_key(self):
        digest = KeyDigest(b"some-key")
        assert to_key_bytes(digest) == b"some-key"
        assert key_data(digest) == b"some-key"
        for seed in LAYOUT_SEEDS:
            assert hash_key(digest, seed) == hash_key(b"some-key", seed)
        assert double_hashes(digest, 4, 128) == double_hashes(b"some-key", 4, 128)

    def test_double_hashes_validation_applies_to_digests_too(self):
        digest = KeyDigest(b"k")
        with pytest.raises(ValueError):
            double_hashes(digest, 0, 10)
        with pytest.raises(ValueError):
            double_hashes(digest, 3, 0)

    def test_memoisation_hashes_each_seed_once(self):
        digest = KeyDigest(b"memo-key")
        with count_hash_calls() as log:
            for _ in range(5):
                digest.digest(PARTITION_SEED)
                digest.bloom_positions(7, 512)
                digest.bloom_positions(7, 1024)
        # One pass for the partition seed, one each for the two Bloom seeds.
        assert log.by_seed == {PARTITION_SEED: 1, BLOOM_SEED_H1: 1, BLOOM_SEED_H2: 1}


class TestGoldenValues:
    """Frozen digests guarding the deterministic on-flash layout.

    These constants were captured from the pre-KeyDigest implementation; any
    change to them means existing simulated flash layouts (and all recorded
    benchmark expectations) silently moved.
    """

    GOLDEN = {
        (b"golden-key", 0x0): 0x47860F35C2E0D4C6,
        (b"golden-key", PARTITION_SEED): 0x900FDD05BDE242FE,
        (b"golden-key", CUCKOO_SEED_FIRST): 0xFE83D1827E8817E5,
        (b"golden-key", CUCKOO_SEED_SECOND): 0x59C00E5C0047F19B,
        (b"golden-key", BLOOM_SEED_H1): 0x11848211560987A9,
        (b"golden-key", BLOOM_SEED_H2): 0x415FB40ACA43A554,
        (b"golden-key", PAGE_SEED): 0x844CE565914F3B28,
        (b"golden-key", RING_SEED): 0x7FED164E68CF2977,
        (b"A", PARTITION_SEED): 0x238B2A0E1A38BBD6,
        (b"\x00", PARTITION_SEED): 0xEA656CC3365C64A9,
        (b"fingerprint-0123456789", PAGE_SEED): 0x538FA03E687B72F2,
        (b"fingerprint-0123456789", RING_SEED): 0xB7A79DED6E638915,
    }

    def test_golden_digests(self):
        for (data, seed), expected in self.GOLDEN.items():
            assert fnv1a_64(data, seed) == expected
            assert KeyDigest(data).digest(seed) == expected

    def test_golden_string_and_int_keys(self):
        assert hash_key("héllo", PARTITION_SEED) == 0xFD6DF457A0561E22
        assert hash_key(0, PARTITION_SEED) == 0xEA656CC3365C64A9  # encodes as b"\x00"
        assert hash_key(256, PARTITION_SEED) == 0x76C4033D14A038F6

    def test_golden_double_hashes(self):
        assert double_hashes(b"golden-key", 5, 1024) == [937, 254, 595, 936, 253]
        assert double_hashes("héllo", 3, 509) == [294, 435, 67]

    def test_golden_empty_key(self):
        assert fnv1a_64(b"") == 0xEFD01F60BA992926
        assert fnv1a_64(b"", 7) == 0x6478982A988B81B4


class TestDigestCache:
    def setup_method(self):
        clear_digest_cache()
        set_digest_cache_capacity(1 << 16)

    def teardown_method(self):
        clear_digest_cache()
        set_digest_cache_capacity(1 << 16)

    def test_cache_returns_same_digest_object(self):
        first = as_digest(b"cache-key")
        second = as_digest(b"cache-key")
        assert first is second

    def test_passing_a_digest_through_is_identity(self):
        digest = as_digest(b"cache-key")
        assert as_digest(digest) is digest

    def test_equivalent_representations_share_one_entry(self):
        assert as_digest(b"A") is as_digest("A") is as_digest(0x41)

    def test_capacity_is_bounded_fifo(self):
        set_digest_cache_capacity(4)
        digests = [as_digest(b"bound-%d" % i) for i in range(8)]
        info = digest_cache_info()
        assert info["size"] <= 4
        # Oldest entries were evicted; a re-request builds a fresh digest.
        assert as_digest(b"bound-0") is not digests[0]
        # Newest entry survived.
        assert as_digest(b"bound-7") is digests[7]

    def test_zero_capacity_disables_caching(self):
        set_digest_cache_capacity(0)
        assert as_digest(b"k") is not as_digest(b"k")
        assert digest_cache_info()["size"] == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            set_digest_cache_capacity(-1)

    def test_clear(self):
        as_digest(b"x")
        clear_digest_cache()
        assert digest_cache_info()["size"] == 0


class TestHashCallCounting:
    def test_counts_by_seed_and_layer(self):
        with count_hash_calls() as log:
            fnv1a_64(b"abc", PARTITION_SEED)
            fnv1a_64(b"abc", PARTITION_SEED)
            fnv1a_64(b"abc", BLOOM_SEED_H1)
        assert log.by_seed == {PARTITION_SEED: 2, BLOOM_SEED_H1: 1}
        assert log.by_layer() == {"partition": 2, "bloom_h1": 1}
        assert log.total == 3

    def test_digest_builds_counted(self):
        clear_digest_cache()
        with count_hash_calls() as log:
            KeyDigest(b"one")
            as_digest(b"two")
            as_digest(b"two")  # cache hit: no new build
        assert log.digest_builds == 2
        clear_digest_cache()

    def test_counting_disabled_outside_context(self):
        with count_hash_calls() as log:
            pass
        fnv1a_64(b"abc", PARTITION_SEED)
        assert log.total == 0

    def test_snapshot_shape(self):
        with count_hash_calls() as log:
            fnv1a_64(b"abc", PAGE_SEED)
        snapshot = log.snapshot()
        assert snapshot["fnv_incarnation_page"] == 1.0
        assert snapshot["fnv_total"] == 1.0
        assert snapshot["digest_builds"] == 0.0


class TestPackedHashing:
    """The packed pass is bit-identical to the scalar reference."""

    @given(
        keys=st.lists(st.binary(min_size=0, max_size=40), min_size=0, max_size=80),
        seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=6),
    )
    def test_prime_digests_matches_scalar_fnv(self, keys, seeds):
        digests = [KeyDigest(key) for key in keys]
        prime_digests(digests, seeds)
        for digest in digests:
            for seed in seeds:
                assert digest._seeded[seed] == fnv1a_64(digest.data, seed)

    @given(
        width=st.integers(min_value=0, max_value=40),
        lanes=st.integers(min_value=1, max_value=3 * PACKED_MIN_LANES),
        data=st.data(),
    )
    def test_packed_lanes_match_scalar_on_both_sides_of_the_crossover(self, width, lanes, data):
        datas = data.draw(
            st.lists(st.binary(min_size=width, max_size=width), min_size=lanes, max_size=lanes)
        )
        seeds = data.draw(
            st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=lanes, max_size=lanes)
        )
        assert fnv1a_64_packed(datas, seeds) == [
            fnv1a_64(key, seed) for key, seed in zip(datas, seeds)
        ]

    def test_empty_key_and_empty_group(self):
        assert fnv1a_64_packed([b""] * 9, list(range(9))) == [fnv1a_64(b"", s) for s in range(9)]
        assert fnv1a_64_packed([], []) == []

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            fnv1a_64_packed([b"ab", b"abc"], [1, 2])
        with pytest.raises(ValueError):
            fnv1a_64_packed([b"ab"], [1, 2])

    def test_counts_one_pass_per_lane_and_skips_memoised_seeds(self):
        seeds = (PARTITION_SEED, BLOOM_SEED_H1)
        # 12 keys x 2 seeds: one packed group of 24 lanes, plus one short key
        # whose 2 lanes fall below the crossover and go lane by lane.
        digests = [KeyDigest(b"packed-%05d" % i) for i in range(12)] + [KeyDigest(b"s")]
        digests[0].digest(PARTITION_SEED)  # memoised: must not be hashed again
        with count_hash_calls() as log:
            prime_digests(digests, seeds)
        assert log.by_seed == {PARTITION_SEED: 12, BLOOM_SEED_H1: 13}
        assert log.digest_builds == 0
        with count_hash_calls() as log:
            prime_digests(digests, seeds)  # everything memoised now
            for digest in digests:
                digest.digest(PARTITION_SEED)
        assert log.total == 0
