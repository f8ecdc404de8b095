"""The original per-byte Rabin chunking loop, kept as a test oracle.

:func:`oracle_boundaries` is the pre-optimisation implementation of
:meth:`repro.wanopt.chunking.RabinChunker.boundaries`, verbatim: the golden
and property tests prove the production paths (table-driven scalar and
vectorised) emit bit-identical boundaries, and
``benchmarks/bench_chunking.py`` measures it as the "before" side.
"""

from __future__ import annotations

from typing import List

from repro.wanopt.chunking import (
    _BASE,
    _LEADING_FACTOR,
    _PRIME,
    _WINDOW_SIZE,
    ChunkBoundary,
    RabinChunker,
)


def oracle_boundaries(chunker: RabinChunker, data: bytes) -> List[ChunkBoundary]:
    """Chunk ``data`` with ``chunker``'s parameters, one byte at a time."""
    length = len(data)
    if length == 0:
        return []
    boundaries: List[ChunkBoundary] = []
    start = 0
    rolling = 0
    window_fill = 0
    position = 0
    while position < length:
        byte = data[position]
        if window_fill < _WINDOW_SIZE:
            rolling = (rolling * _BASE + byte) % _PRIME
            window_fill += 1
        else:
            outgoing = data[position - _WINDOW_SIZE]
            rolling = ((rolling - outgoing * _LEADING_FACTOR) * _BASE + byte) % _PRIME
        position += 1
        chunk_length = position - start
        if chunk_length < chunker.min_size:
            continue
        at_boundary = (rolling % chunker.average_size) == chunker._boundary_residue
        if at_boundary or chunk_length >= chunker.max_size:
            boundaries.append(ChunkBoundary(start, position))
            start = position
            rolling = 0
            window_fill = 0
    if start < length:
        boundaries.append(ChunkBoundary(start, length))
    return boundaries
