"""Golden-boundary regression tests: the optimized chunker is bit-identical to seed.

The PR-5 chunker rewrite (removal table + skip-ahead scalar path, vectorised
candidate scan) must emit **exactly** the boundaries the original per-byte
loop emitted — same Rabin polynomial, same residue rule, same min/max
clamping.  These tests freeze that contract two ways:

* golden digests, computed from the *seed implementation before the rewrite*
  and hard-coded below: several payload sizes and min/avg/max shapes,
  covering the skip-ahead regime (``min >= WINDOW``), the window-filling
  regime (``min < WINDOW``), non-power-of-two averages, a forced ``max_size``
  cut and a payload shorter than ``min_size``;
* cross-checks of every execution path (auto, scalar, vectorised, and the
  verbatim ``rabin_oracle.oracle_boundaries``) against those digests and
  each other.

If any of these digests ever changes, previously deduplicated content stops
matching its stored fingerprints — treat a failure here as data corruption,
not as a test to update.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from rabin_oracle import oracle_boundaries
from repro.wanopt.chunking import HAVE_NUMPY, RabinChunker

# (case id) -> (payload seed, payload size, chunker kwargs, sha256 of the
# JSON boundary list, number of chunks, first boundaries, last boundary).
# Digests were produced by the pre-rewrite per-byte implementation.
GOLDEN = {
    "64k_avg4096_default": (
        101,
        64 * 1024,
        dict(average_size=4096),
        "7c29f73de8742aa48eccd7678ff0acacbd9861c4ff7563d4d98f552cb971be2c",
        19,
        [(0, 3041), (3041, 4119), (4119, 5244)],
        (64686, 65536),
    ),
    "64k_avg1024_default": (
        102,
        64 * 1024,
        dict(average_size=1024),
        "08ab0e1feb5140873813fef0a32accaf9de0001ad1248c51680902bd0a00549f",
        46,
        [(0, 1311), (1311, 2548), (2548, 3094)],
        (65102, 65536),
    ),
    "64k_avg4096_min512_max8192": (
        103,
        64 * 1024,
        dict(average_size=4096, min_size=512, max_size=8192),
        "1e40149f0f38a62d70627fc3a21a67c2f03a854b1d34e6e4340932f039957ce1",
        14,
        [(0, 1869), (1869, 10061), (10061, 18253)],
        (64578, 65536),
    ),
    "32k_avg256_min16": (
        104,
        32 * 1024,
        dict(average_size=256, min_size=16),
        "067d6e845ae44a0545a51dcbdfadd45a5bd934eb86dbe5be6c7fde8303091274",
        135,
        [(0, 35), (35, 177), (177, 384)],
        (32752, 32768),
    ),
    "16k_avg64_default": (
        105,
        16 * 1024,
        dict(average_size=64),
        "45555393c6265fd6febe7dc3147f858dc28812c9f66adc5faf686ba13be26e75",
        198,
        [(0, 65), (65, 93), (93, 117)],
        (16335, 16384),
    ),
    "20k_avg1000_default": (
        106,
        20 * 1024,
        dict(average_size=1000),
        "e94141d508302312dd9afb2da4abff7612202b293a528a5c60a95ea410d50652",
        24,
        [(0, 296), (296, 1324), (1324, 1681)],
        (20071, 20480),
    ),
    "256k_avg4096_default": (
        107,
        256 * 1024,
        dict(average_size=4096),
        "a73518885141b82be8355c40c209c895101b626cfb9feaf9c87da8503fde94de",
        46,
        [(0, 4443), (4443, 9258), (9258, 16992)],
        (253171, 262144),
    ),
    "3k_avg4096_shorter_than_min": (
        108,
        3 * 1024,
        dict(average_size=4096),
        "722b33f77ccd4f3d8928fc0d29ef3701d6b90bb2766709e8b323495c76204880",
        2,
        [(0, 2226), (2226, 3072)],
        (2226, 3072),
    ),
}

MODES = [None, False] + ([True] if HAVE_NUMPY else [])


def boundary_digest(boundaries) -> str:
    flat = [(boundary.start, boundary.end) for boundary in boundaries]
    return hashlib.sha256(json.dumps(flat).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
@pytest.mark.parametrize("vectorized", MODES)
def test_boundaries_match_golden_digest(case, vectorized):
    seed, size, kwargs, digest, count, first, last = GOLDEN[case]
    data = random.Random(seed).randbytes(size)
    min_size = kwargs.get("min_size", max(1, kwargs["average_size"] // 4))
    if vectorized and min_size < RabinChunker.WINDOW_SIZE:
        # Explicitly demanding the vectorised path below the window is a
        # configuration error (it cannot run there); auto mode falls back.
        with pytest.raises(ValueError):
            RabinChunker(**kwargs, vectorized=True)
        chunker = RabinChunker(**kwargs)
    else:
        chunker = RabinChunker(**kwargs, vectorized=vectorized)
    boundaries = chunker.boundaries(data)
    assert len(boundaries) == count
    assert [(b.start, b.end) for b in boundaries[: len(first)]] == first
    assert (boundaries[-1].start, boundaries[-1].end) == last
    assert boundary_digest(boundaries) == digest


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_reference_implementation_matches_golden_digest(case):
    """The frozen reference itself must still reproduce the seed digests."""
    seed, size, kwargs, digest, _, _, _ = GOLDEN[case]
    data = random.Random(seed).randbytes(size)
    chunker = RabinChunker(**kwargs)
    assert boundary_digest(oracle_boundaries(chunker, data)) == digest


def test_all_paths_agree_on_memoryview_and_bytearray_input():
    data = random.Random(109).randbytes(24 * 1024)
    chunker = RabinChunker(average_size=1024)
    want = chunker.boundaries(data)
    for view in (memoryview(data), bytearray(data)):
        for vectorized in MODES:
            assert RabinChunker(average_size=1024, vectorized=vectorized).boundaries(view) == want


def test_split_yields_zero_copy_views_tiling_the_input():
    data = random.Random(110).randbytes(48 * 1024)
    chunker = RabinChunker(average_size=2048)
    pieces = list(chunker.split(data))
    assert all(isinstance(piece, memoryview) for piece in pieces)
    assert b"".join(pieces) == data
    # Zero-copy: every view aliases the original buffer.
    assert all(piece.obj is data for piece in pieces)


def test_vectorized_flag_validation_and_fallback():
    if HAVE_NUMPY:
        assert RabinChunker(average_size=4096, vectorized=True)._vectorized is True
        # Demanding the vectorised path where it cannot run is rejected
        # rather than silently falling back to the scalar path.
        with pytest.raises(ValueError):
            RabinChunker(average_size=256, min_size=16, vectorized=True)
    else:
        with pytest.raises(ValueError):
            RabinChunker(average_size=4096, vectorized=True)
    # min_size below the window silently selects the scalar path on auto.
    chunker = RabinChunker(average_size=256, min_size=16)
    data = random.Random(111).randbytes(8 * 1024)
    assert chunker.boundaries(data) == oracle_boundaries(chunker, data)


def test_skip_per_chunk_matches_min_size_geometry():
    assert RabinChunker(average_size=4096).skip_per_chunk == 1024 - 48
    assert RabinChunker(average_size=256, min_size=16).skip_per_chunk == 0
    assert RabinChunker(average_size=4096, min_size=48).skip_per_chunk == 0
