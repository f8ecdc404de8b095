"""Seeded request streams for the three workloads.

Everything here is plain Python on the standard library: the program under
test only ever sees the requests these generators yield, and the same seed
always yields the same requests.  Each generator is lazy, so the benchmark
can build its deployment (fork the workers) before any large input exists.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
import struct
from collections import deque
from typing import Iterator, List, Tuple

#: Index operations per request in the two index workloads.
BATCH_SIZE = 64

#: index-zipf: Zipf(1.1) over this many fingerprints, two lookup batches for
#: every insert batch.  6k keys fit both CLAM (18,432 entries per shard with
#: the standard config) and the parent's 65,536-entry digest cache.
ZIPF_KEYS = 6_000
ZIPF_SKEW = 1.1
ZIPF_INSERT_EVERY = 3

#: index-churn: lookups draw uniformly from this multiple of the range of
#: fingerprints inserted so far, so about a third of them ask for keys that
#: were never written.
CHURN_LOOKUP_SPAN = 1.5

#: wan-dedup object stream: objects of a few tens of KiB.  Some are revisions
#: of one of the branch's recent objects (one small edit); the rest are built
#: from 8 KiB pieces, some drawn from a pool that every branch sends.
OBJECT_MIN_BYTES = 16 * 1024
OBJECT_MAX_BYTES = 48 * 1024
REVISION_SHARE = 0.4
EDIT_BYTES = 1024
HISTORY_OBJECTS = 64
PIECE_BYTES = 8 * 1024
POOL_PIECES = 32
POOL_SHARE = 0.25

#: One index request: ``(kind, key, value)`` tuples with kind ``"insert"``
#: or ``"lookup"`` (value ``b""`` for lookups).
IndexRequest = List[Tuple[str, bytes, bytes]]


def fingerprint(namespace: str, seed: int, identifier: int) -> bytes:
    """A 20-byte SHA-1 fingerprint naming one key of one seeded stream."""
    return hashlib.sha1(f"{namespace}:{seed}:{identifier}".encode()).digest()


def zipf_requests(seed: int) -> Iterator[IndexRequest]:
    """index-zipf: 64-op batches, one insert batch per two lookup batches.

    Inserted values are unique per write (batch and position), so a lookup
    that returns an older value than the last acknowledged write shows.
    """
    rng = random.Random(seed)
    keys = [fingerprint("zipf", seed, rank) for rank in range(ZIPF_KEYS)]
    weights = (1.0 / (rank + 1) ** ZIPF_SKEW for rank in range(ZIPF_KEYS))
    cumulative = list(itertools.accumulate(weights))
    total = cumulative[-1]
    for batch in itertools.count():
        ranks = [
            min(bisect.bisect_left(cumulative, rng.random() * total), ZIPF_KEYS - 1)
            for _ in range(BATCH_SIZE)
        ]
        if batch % ZIPF_INSERT_EVERY == 0:
            yield [
                ("insert", keys[rank], struct.pack(">II", batch, position))
                for position, rank in enumerate(ranks)
            ]
        else:
            yield [("lookup", keys[rank], b"") for rank in ranks]


def churn_requests(seed: int) -> Iterator[IndexRequest]:
    """index-churn: insert batches of fresh fingerprints alternating with
    uniform lookup batches over 1.5x the range inserted so far."""
    rng = random.Random(seed)
    inserted = 0
    for batch in itertools.count():
        if batch % 2 == 0:
            ids = range(inserted, inserted + BATCH_SIZE)
            inserted += BATCH_SIZE
            yield [("insert", fingerprint("churn", seed, i), i.to_bytes(8, "big")) for i in ids]
        else:
            span = int(inserted * CHURN_LOOKUP_SPAN)
            yield [
                ("lookup", fingerprint("churn", seed, rng.randrange(span)), b"")
                for _ in range(BATCH_SIZE)
            ]


def wan_objects(seed: int) -> Iterator[Tuple[int, bytes]]:
    """wan-dedup: ``(object_id, payload)`` for one branch office.

    About half of the bytes repeat earlier content, like the paper's
    ~50%-redundant trace: 40% of objects are an earlier object of this
    branch with one 1 KiB edit, and a quarter of the pieces of the other
    objects come from a small pool shared by every branch.  With 4 KiB
    chunks, about 40% of the chunks match.
    """
    rng = random.Random(seed)
    pool = [rng.randbytes(PIECE_BYTES) for _ in range(POOL_PIECES)]
    history: deque = deque(maxlen=HISTORY_OBJECTS)
    for object_id in itertools.count():
        if history and rng.random() < REVISION_SHARE:
            source = history[rng.randrange(len(history))]
            at = rng.randrange(len(source))
            payload = source[:at] + rng.randbytes(EDIT_BYTES) + source[at + EDIT_BYTES :]
        else:
            size = rng.randint(OBJECT_MIN_BYTES, OBJECT_MAX_BYTES)
            pieces: List[bytes] = []
            filled = 0
            while filled < size:
                if rng.random() < POOL_SHARE:
                    piece = pool[rng.randrange(POOL_PIECES)]
                else:
                    piece = rng.randbytes(PIECE_BYTES)
                pieces.append(piece)
                filled += len(piece)
            payload = b"".join(pieces)[:size]
        history.append(payload)
        yield object_id, payload
