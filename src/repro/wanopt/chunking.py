"""Content-defined chunking with a Rabin-Karp rolling hash.

WAN optimizers and deduplication systems cut byte streams into chunks at
positions determined by the *content* (not fixed offsets), so that inserting
a byte near the start of a file only perturbs one chunk boundary instead of
shifting every subsequent chunk.  The classic scheme (LBFS, cited by the
paper as [34]) slides a fixed-width window over the data, maintains a
Rabin-Karp rolling hash of the window and declares a boundary whenever the
hash matches a target pattern modulo the average chunk size.

The paper's evaluation pre-computes chunk boundaries and SHA-1 hashes (§8)
because content-defined chunking is the CPU bottleneck of a WAN optimizer.
This module makes the real-byte path affordable instead of dodging it; three
implementations produce **bit-identical boundaries** (same polynomial, same
residue rule, frozen by ``tests/test_chunking_golden.py``):

* the original per-byte pure Python loop — kept verbatim outside the
  package, in ``tests/rabin_oracle.py``, as the frozen reference for golden
  and property tests and as the "before" side of
  ``benchmarks/bench_chunking.py``;
* the **table-driven scalar path** — a 256-entry outgoing-byte removal
  table, all attribute lookups hoisted into locals, flat ``(start, end)``
  tuples internally, and **min-size skip-ahead**: after each declared
  boundary the scan jumps straight to ``start + min_size - WINDOW``, since
  no earlier position can produce a boundary (the window resets at a cut, so
  the hash at the first eligible position only depends on the preceding
  ``WINDOW`` bytes).  At the default ``min = average/4`` this eliminates
  roughly a quarter of all byte visits;
* the **vectorised path** (used automatically when numpy is importable and
  ``min_size >= WINDOW``) — inside a chunk, once the window is full, the
  rolling hash at position ``p`` is simply the hash of ``data[p-W:p]``,
  independent of where the chunk started.  So candidate cut points can be
  computed for the whole buffer at once from modular prefix sums
  (``H[p] = B^(p-1) · (S[p] - S[p-W]) mod P`` where
  ``S[p] = Σ data[j]·B^(-j)``), and boundary selection is a cheap walk over
  the sorted candidate positions.  When ``min_size < WINDOW`` a boundary
  may be declared while the window is still filling (the hash then depends
  on the chunk start), so those configurations fall back to the scalar path.

:meth:`RabinChunker.split` yields zero-copy ``memoryview`` slices; callers
that need owned bytes (the public ``Chunk.payload`` edge) materialise them
exactly once per object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

try:  # Optional acceleration: the scalar path is always available.
    import numpy as _np
except ImportError:  # pragma: no cover - the CI image ships numpy
    _np = None

#: Whether the vectorised path can run at all — the exact condition the
#: chunker's auto-selection uses; tests and benchmarks gate on this instead
#: of re-probing the import themselves.
HAVE_NUMPY = _np is not None

_WINDOW_SIZE = 48
_PRIME = 1_000_000_007
_BASE = 257

_LEADING_FACTOR = pow(_BASE, _WINDOW_SIZE - 1, _PRIME)

#: ``_REMOVAL_TABLE[b] == (b * BASE^(WINDOW-1)) % PRIME`` — subtracting this
#: from the rolling hash evicts outgoing byte ``b`` with one table lookup
#: instead of a multiply-mod per byte.
_REMOVAL_TABLE = tuple((b * _LEADING_FACTOR) % _PRIME for b in range(256))

#: Modular inverse of the base: ``(BASE * _BASE_INVERSE) % PRIME == 1``.
_BASE_INVERSE = pow(_BASE, _PRIME - 2, _PRIME)

#: Block length for the vectorised prefix sum: raw (un-reduced) cumulative
#: sums of per-byte terms (< 2^38 each) stay below 2^61 per block, so the
#: int64 arithmetic never overflows.
_CUMSUM_BLOCK = 1 << 22

# base -> int64 array q with q[i] = base^i mod PRIME, grown by doubling and
# shared across chunker instances (the powers depend only on the constants).
_POW_CACHE: dict = {}


def _power_table(base: int, length: int):
    """``[base^0, base^1, ...] mod PRIME`` as int64, at least ``length`` long."""
    table = _POW_CACHE.get(base)
    if table is None or len(table) < length:
        size = 1024
        while size < length:
            size *= 2
        table = _np.empty(size, dtype=_np.int64)
        table[0] = 1
        filled = 1
        while filled < size:
            step = min(filled, size - filled)
            multiplier = (int(table[filled - 1]) * base) % _PRIME
            _np.multiply(table[:step], multiplier, out=table[filled : filled + step])
            table[filled : filled + step] %= _PRIME
            filled += step
        _POW_CACHE[base] = table
    return table


@dataclass(frozen=True)
class ChunkBoundary:
    """A [start, end) byte range of one chunk within an object."""

    start: int
    end: int

    @property
    def length(self) -> int:
        """Chunk length in bytes."""
        return self.end - self.start


class RabinChunker:
    """Content-defined chunker with minimum / average / maximum chunk sizes.

    Parameters
    ----------
    average_size:
        Target mean chunk size; a boundary is declared when the rolling hash
        is congruent to a fixed residue modulo ``average_size``.
    min_size / max_size:
        Hard bounds on chunk length; defaults are ``average_size / 4`` and
        ``average_size * 4`` (the paper uses 4-8 KB average chunks).
    vectorized:
        ``None`` (default) picks the numpy candidate-scan path when numpy is
        importable and ``min_size >= WINDOW``; ``False`` forces the
        table-driven scalar path; ``True`` demands the vectorised path and
        raises when it cannot run (numpy missing, or ``min_size`` below the
        rolling window — there the hash at an eligible position depends on
        the chunk start, which the whole-buffer scan cannot express).  All
        paths produce bit-identical boundaries.
    """

    #: Rolling-hash window width in bytes (the LBFS scheme's 48).
    WINDOW_SIZE = _WINDOW_SIZE

    def __init__(
        self,
        average_size: int = 4096,
        min_size: int | None = None,
        max_size: int | None = None,
        vectorized: bool | None = None,
    ) -> None:
        if average_size < 64:
            raise ValueError("average_size must be at least 64 bytes")
        self.average_size = average_size
        self.min_size = min_size if min_size is not None else max(1, average_size // 4)
        self.max_size = max_size if max_size is not None else average_size * 4
        if self.min_size <= 0 or self.min_size > self.max_size:
            raise ValueError("require 0 < min_size <= max_size")
        if vectorized and _np is None:
            raise ValueError("vectorized=True requires numpy, which is not importable")
        if vectorized and self.min_size < _WINDOW_SIZE:
            raise ValueError(
                "vectorized=True requires min_size >= WINDOW_SIZE "
                f"({_WINDOW_SIZE}); use vectorized=None for automatic fallback"
            )
        self._boundary_residue = average_size - 1
        self._vectorized = (
            vectorized
            if vectorized is not None
            else (_np is not None and self.min_size >= _WINDOW_SIZE)
        )
        # Reusable int64 scratch for the vectorised path (grown on demand):
        # avoids re-faulting fresh pages on every call.
        self._scratch_terms = None
        self._scratch_prefix = None

    @property
    def skip_per_chunk(self) -> int:
        """Bytes the scan skips (never hashes) at the head of each chunk."""
        return max(0, self.min_size - _WINDOW_SIZE)

    # -- Public API -------------------------------------------------------------------

    def boundaries(self, data) -> List[ChunkBoundary]:
        """Chunk boundaries covering ``data`` completely and in order.

        ``data`` may be ``bytes``, ``bytearray`` or a ``memoryview``.
        """
        return [ChunkBoundary(start, end) for start, end in self._flat_boundaries(data)]

    def split(self, data) -> Iterator[memoryview]:
        """Yield the chunk payloads of ``data`` as zero-copy memoryview slices."""
        view = memoryview(data)
        for start, end in self._flat_boundaries(data):
            yield view[start:end]

    # -- Boundary computation ---------------------------------------------------------

    def _flat_boundaries(self, data) -> List[Tuple[int, int]]:
        """Flat ``(start, end)`` tuples; the internal form of :meth:`boundaries`."""
        if len(data) == 0:
            return []
        if self._vectorized:  # construction guarantees min_size >= WINDOW here
            return self._boundaries_vectorized(data)
        return self._boundaries_scalar(data)

    def _boundaries_scalar(self, data) -> List[Tuple[int, int]]:
        """Table-driven per-byte scan with min-size skip-ahead.

        Bit-identical to the per-byte reference loop: same polynomial, same
        residue rule, same forced cut at ``max_size``.  The window resets at
        every cut, so the hash at the first eligible check position
        (``start + min_size``) depends only on the ``WINDOW`` bytes before
        it — positions before ``start + min_size - WINDOW`` need not be
        visited at all.
        """
        length = len(data)
        boundaries: List[Tuple[int, int]] = []
        append = boundaries.append
        # Hoist everything the inner loops touch into locals.
        window, prime, base, table = _WINDOW_SIZE, _PRIME, _BASE, _REMOVAL_TABLE
        min_size, max_size, average = self.min_size, self.max_size, self.average_size
        residue = self._boundary_residue
        power_of_two = average & (average - 1) == 0
        mask = average - 1
        skip = min_size - window if min_size > window else 0
        start = 0
        while start < length:
            first_check = start + min_size
            if first_check > length:
                append((start, length))
                break
            rolling = 0
            pos = start + skip
            # Warm-up: hash up to the first position where a boundary could be
            # declared (no checks can fire before chunk_length == min_size).
            # The span is min(min_size, WINDOW) bytes, so the window never
            # fills *before* the last warm-up byte — no eviction needed here.
            for byte in data[pos:first_check]:
                rolling = (rolling * base + byte) % prime
            pos = first_check
            window_fill = min(min_size, window)
            limit = start + max_size
            if limit > length:
                limit = length
            if (rolling & mask == residue) if power_of_two else (rolling % average == residue):
                cut = pos
            elif window_fill == window:
                # Hot loop: full window, one table lookup + one mod per byte,
                # iterating incoming/outgoing byte pairs without indexing.
                incoming = data[pos:limit]
                outgoing = data[pos - window : limit - window]
                if power_of_two:
                    for inc, out in zip(incoming, outgoing):
                        rolling = ((rolling - table[out]) * base + inc) % prime
                        pos += 1
                        if rolling & mask == residue:
                            break
                else:
                    for inc, out in zip(incoming, outgoing):
                        rolling = ((rolling - table[out]) * base + inc) % prime
                        pos += 1
                        if rolling % average == residue:
                            break
                cut = pos
            else:
                # min_size < WINDOW: checks begin while the window still fills.
                while pos < limit:
                    byte = data[pos]
                    if window_fill < window:
                        rolling = (rolling * base + byte) % prime
                        window_fill += 1
                    else:
                        rolling = ((rolling - table[data[pos - window]]) * base + byte) % prime
                    pos += 1
                    if rolling % average == residue:
                        break
                cut = pos
            append((start, cut))
            start = cut
        return boundaries

    def _boundaries_vectorized(self, data) -> List[Tuple[int, int]]:
        """Whole-buffer candidate scan via modular prefix sums (numpy).

        With ``min_size >= WINDOW`` every eligible check position has a full
        window, and a full window's hash is position-local: the hash at
        ``p`` is ``hash(data[p-W:p])`` regardless of the chunk start.  Using
        ``S[p] = Σ_{j<p} data[j]·B^(-j) mod P``, that hash is
        ``B^(p-1) · (S[p] - S[p-W]) mod P``, so every candidate cut in the
        buffer is found with a handful of array passes; the boundary rule
        (first candidate at or past ``start + min_size``, forced cut at
        ``start + max_size``) is then a cheap walk over sorted candidates.
        """
        n = len(data)
        x = _np.frombuffer(data, dtype=_np.uint8)
        inverse_powers = _power_table(_BASE_INVERSE, n)
        powers = _power_table(_BASE, n)
        if self._scratch_terms is None or len(self._scratch_terms) < n:
            self._scratch_terms = _np.empty(max(n, 1024), dtype=_np.int64)
            self._scratch_prefix = _np.empty(max(n, 1024) + 1, dtype=_np.int64)
        terms = self._scratch_terms[:n]
        _np.multiply(inverse_powers[:n], x, out=terms)  # < 2^38 per element
        prefix = self._scratch_prefix[: n + 1]
        prefix[0] = 0
        if n <= _CUMSUM_BLOCK:
            _np.cumsum(terms, out=prefix[1:])
        else:
            carry = 0
            for offset in range(0, n, _CUMSUM_BLOCK):
                segment = terms[offset : offset + _CUMSUM_BLOCK]
                out = prefix[offset + 1 : offset + 1 + len(segment)]
                _np.cumsum(segment, out=out)
                if carry:
                    out += carry
                out %= _PRIME
                carry = int(out[-1])
        prefix %= _PRIME
        if n < _WINDOW_SIZE:
            candidates = _np.empty(0, dtype=_np.int64)
        else:
            window_hash = terms[: n + 1 - _WINDOW_SIZE]
            _np.subtract(
                prefix[_WINDOW_SIZE:], prefix[: -_WINDOW_SIZE], out=window_hash
            )  # in (-P, P)
            # Shift into (0, 2P) before multiplying: P·B^k ≡ 0 (mod P), so the
            # result is unchanged, the product still fits in int64 (< 2^61)
            # and the reduction below runs on non-negative dividends, which is
            # substantially faster than floor-mod over negatives.
            window_hash += _PRIME
            window_hash *= powers[_WINDOW_SIZE - 1 : n]
            window_hash %= _PRIME
            average = self.average_size
            if average & (average - 1) == 0:
                window_hash &= average - 1
            else:
                window_hash %= average
            candidates = _np.flatnonzero(window_hash == self._boundary_residue) + _WINDOW_SIZE
        boundaries: List[Tuple[int, int]] = []
        append = boundaries.append
        min_size, max_size = self.min_size, self.max_size
        search = candidates.searchsorted
        num_candidates = len(candidates)
        start = 0
        while start < n:
            lowest = start + min_size
            if lowest > n:
                append((start, n))
                break
            forced = start + max_size
            if forced > n:
                forced = n
            index = search(lowest)
            if index < num_candidates:
                candidate = int(candidates[index])
                cut = candidate if candidate < forced else forced
            else:
                cut = forced
            append((start, cut))
            start = cut
        return boundaries
