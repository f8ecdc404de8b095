"""Content-defined chunking throughput: reference vs optimized Rabin chunker.

The paper's evaluation pre-computes chunk boundaries and SHA-1 hashes (§8)
because content-defined chunking is the CPU bottleneck of a WAN optimizer.
PR 5 rewrote :class:`~repro.wanopt.chunking.RabinChunker` around a 256-entry
outgoing-byte removal table, min-size skip-ahead and (when numpy is
importable) a whole-buffer vectorised candidate scan — all bit-identical to
the original per-byte loop, which is kept verbatim as the test oracle
``tests/rabin_oracle.py`` and measured here as the "before" side.

Three measurements land in ``BENCH_chunking.json``:

* **MB/s per workload** — seeded payloads across average chunk sizes, each
  chunked by the reference loop, the table-driven scalar path and (when
  available) the vectorised path; the headline 64 KiB / 4 KiB-average
  workload must show >= 10x with the vectorised path;
* **skip-ahead savings** — the fraction of bytes the optimized scan never
  visits (``min_size - WINDOW`` dead bytes at the head of every chunk);
* **end-to-end objects/sec** — real payloads generated, chunked,
  SHA-1-fingerprinted and deduplicated through a
  :class:`~repro.wanopt.engine.CompressionEngine` on a CLAM index, i.e. the
  whole real-byte content pipeline rather than the chunker in isolation.

``--quick`` runs a reduced rep count, writes ``BENCH_chunking_quick.json``
(so the committed baseline is never clobbered) and enforces a **soft
regression ratchet**: if the committed ``BENCH_chunking.json`` contains a
result for the same workload shape (payload size, average size, seed, same
execution path), the fresh optimized-over-reference *speedup* must not fall
below 50 % of the committed one.  Ratcheting the speedup rather than the
absolute MB/s keeps the check machine-invariant — a slower CI runner scales
both sides equally, while a real regression in the optimized paths does not.
"""

from __future__ import annotations

import argparse
import json
import random
import time

from benchmarks.common import (
    REPO_ROOT,
    add_telemetry_arg,
    dump_telemetry,
    print_table,
    standard_clam,
    write_bench_json,
)
from benchmarks.ratchet import assert_fraction
from repro.telemetry import build_snapshot
from repro.wanopt.chunking import HAVE_NUMPY, RabinChunker
from repro.wanopt.engine import CompressionEngine
from repro.wanopt.traces import build_payload_objects
from tests.rabin_oracle import oracle_boundaries

#: (payload_kib, average_size) workloads; the first is the headline.
WORKLOADS = [
    (64, 4096),
    (64, 1024),
    (64, 16384),
    (1024, 4096),
]

PAYLOAD_SEED = 11

#: Headline shape the >= 10x acceptance bar applies to.
HEADLINE = (64, 4096)

#: Ratchet floor: fresh optimized MB/s vs the committed JSON, same shape.
RATCHET_FRACTION = 0.5

#: Telemetry snapshot of the end-to-end CLAM, filled by
#: ``measure_end_to_end(telemetry=True)`` for ``--telemetry-out``.
_END_TO_END_SNAPSHOT = None

END_TO_END = dict(num_objects=12, object_size=96 * 1024, redundancy=0.5, seed=23)


def _mb_per_s(nbytes: int, seconds: float) -> float:
    return nbytes / 1e6 / seconds if seconds > 0 else float("inf")


def _best_rate(fn, nbytes: int, reps: int) -> float:
    """Best-of-N MB/s (the least noise-sensitive estimator)."""
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return _mb_per_s(nbytes, best)


def measure_workload(payload_kib: int, average: int, reps: int, reference_reps: int):
    data = random.Random(PAYLOAD_SEED).randbytes(payload_kib * 1024)
    chunker = RabinChunker(average_size=average)
    boundaries = chunker.boundaries(data)
    reference = oracle_boundaries(chunker, data)
    assert boundaries == reference, "optimized boundaries diverged from the reference"

    skip = chunker.skip_per_chunk
    skipped = sum(min(skip, boundary.length) for boundary in boundaries)
    row = {
        "payload_kib": payload_kib,
        "average_size": average,
        "seed": PAYLOAD_SEED,
        "chunks": len(boundaries),
        "skip_ahead_byte_savings": skipped / len(data) if data else 0.0,
        "reference_mb_per_s": _best_rate(
            lambda: oracle_boundaries(chunker, data), len(data), reference_reps
        ),
    }
    scalar = RabinChunker(average_size=average, vectorized=False)
    row["scalar_mb_per_s"] = _best_rate(lambda: scalar.boundaries(data), len(data), reps)
    row["scalar_speedup"] = row["scalar_mb_per_s"] / row["reference_mb_per_s"]
    if HAVE_NUMPY:
        vectorized = RabinChunker(average_size=average, vectorized=True)
        vectorized.boundaries(data)  # warm the power tables and scratch
        row["vectorized_mb_per_s"] = _best_rate(
            lambda: vectorized.boundaries(data), len(data), reps
        )
        row["vectorized_speedup"] = row["vectorized_mb_per_s"] / row["reference_mb_per_s"]
    row["optimized_mb_per_s"] = row.get("vectorized_mb_per_s", row["scalar_mb_per_s"])
    row["optimized_speedup"] = row["optimized_mb_per_s"] / row["reference_mb_per_s"]
    return row


def measure_end_to_end(telemetry: bool = False):
    """Generate, chunk, fingerprint and deduplicate real objects on a CLAM."""
    started = time.perf_counter()
    objects = build_payload_objects(**END_TO_END)
    build_seconds = time.perf_counter() - started
    clam = standard_clam(telemetry_enabled=telemetry)
    engine = CompressionEngine(index=clam)
    started = time.perf_counter()
    for obj in objects:
        engine.process_object_batched(obj)
    engine_seconds = time.perf_counter() - started
    total_bytes = sum(obj.size_bytes for obj in objects)
    total_seconds = build_seconds + engine_seconds
    if telemetry:
        global _END_TO_END_SNAPSHOT
        _END_TO_END_SNAPSHOT = build_snapshot(per_shard={"clam": clam.telemetry})
    return {
        **END_TO_END,
        "total_bytes": total_bytes,
        "chunk_and_fingerprint_seconds": round(build_seconds, 4),
        "engine_seconds": round(engine_seconds, 4),
        "objects_per_second": len(objects) / total_seconds,
        "mb_per_second": _mb_per_s(total_bytes, total_seconds),
        "dedup_hit_rate": (
            sum(r.chunks_matched for r in engine.results)
            / max(1, sum(r.chunks_total for r in engine.results))
        ),
    }


def apply_ratchet(rows) -> list:
    """Compare fresh optimized-over-reference speedups against the committed JSON.

    Only rows with the same workload shape *and* the same execution path
    (vectorised or scalar) are comparable; a missing or foreign-shaped
    committed file ratchets nothing.  The speedup ratio is machine-invariant
    (both sides run on the same box in the same process), so a slower CI
    runner cannot trip it — only a genuine regression in the optimized
    paths relative to the frozen reference can.  The floor itself is
    enforced by the shared :func:`benchmarks.ratchet.assert_fraction`
    primitive.
    """
    committed_path = REPO_ROOT / "BENCH_chunking.json"
    if not committed_path.exists():
        return []
    committed = json.loads(committed_path.read_text())
    by_shape = {
        (row["payload_kib"], row["average_size"], row["seed"], "vectorized_mb_per_s" in row): row
        for row in committed.get("workloads", [])
    }
    checked = []
    for row in rows:
        shape = (row["payload_kib"], row["average_size"], row["seed"], HAVE_NUMPY)
        old = by_shape.get(shape)
        if old is None:
            continue
        check = assert_fraction(
            f"chunking speedup on {row['payload_kib']} KiB / avg {row['average_size']}",
            fresh=row["optimized_speedup"],
            committed=old["optimized_speedup"],
            floor=RATCHET_FRACTION,
        )
        checked.append(
            {
                "payload_kib": row["payload_kib"],
                "average_size": row["average_size"],
                "committed_speedup": old["optimized_speedup"],
                "fresh_speedup": row["optimized_speedup"],
                "floor_speedup": check["floor"],
            }
        )
    return checked


def check_invariants(payload) -> None:
    headline = next(
        row
        for row in payload["workloads"]
        if (row["payload_kib"], row["average_size"]) == HEADLINE
    )
    if HAVE_NUMPY:
        assert headline["optimized_speedup"] >= 10.0, headline
    # The pure-Python table-driven path must beat the reference everywhere.
    for row in payload["workloads"]:
        assert row["scalar_speedup"] > 1.2, row
    assert payload["end_to_end"]["dedup_hit_rate"] > 0.0, payload["end_to_end"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="fewer reps + regression ratchet for CI"
    )
    add_telemetry_arg(parser)
    args = parser.parse_args()
    global WORKLOADS, END_TO_END
    reps, reference_reps = (3, 1) if args.quick else (7, 3)
    if args.quick:
        WORKLOADS = [w for w in WORKLOADS if w[0] <= 64]
        END_TO_END = dict(END_TO_END, num_objects=6, object_size=64 * 1024)

    started = time.perf_counter()
    rows = [measure_workload(*workload, reps, reference_reps) for workload in WORKLOADS]
    end_to_end = measure_end_to_end(telemetry=args.telemetry_out is not None)
    ratchet = apply_ratchet(rows) if args.quick else []

    print_table(
        "Rabin chunking throughput (bit-identical boundaries, seeded payloads)",
        ["payload", "avg", "chunks", "ref MB/s", "scalar MB/s", "opt MB/s", "speedup", "skipped"],
        [
            (
                f"{row['payload_kib']} KiB",
                row["average_size"],
                row["chunks"],
                row["reference_mb_per_s"],
                row["scalar_mb_per_s"],
                row["optimized_mb_per_s"],
                f"{row['optimized_speedup']:.1f}x",
                f"{row['skip_ahead_byte_savings']:.1%}",
            )
            for row in rows
        ],
    )
    print(
        f"end to end (chunk + SHA-1 + dedup on CLAM): "
        f"{end_to_end['objects_per_second']:.1f} objects/s, "
        f"{end_to_end['mb_per_second']:.1f} MB/s, "
        f"hit rate {end_to_end['dedup_hit_rate']:.3f}"
    )
    if ratchet:
        print(f"ratchet: {len(ratchet)} workload(s) checked against the committed JSON")
    if not HAVE_NUMPY:
        print("numpy unavailable: vectorised path skipped (scalar path measured)")

    payload = {
        "spec": {
            "workloads": [list(w) for w in WORKLOADS],
            "headline": list(HEADLINE),
            "payload_seed": PAYLOAD_SEED,
            "numpy_available": HAVE_NUMPY,
            "quick": args.quick,
        },
        "workloads": rows,
        "end_to_end": end_to_end,
        "ratchet": ratchet,
    }
    check_invariants(payload)
    # Quick runs write under a distinct name: BENCH_chunking.json is the
    # committed ratchet baseline, and the CI smoke (or a developer running
    # it locally) must not clobber the full-run numbers with reduced
    # quick-mode data.
    name = "chunking_quick" if args.quick else "chunking"
    path = write_bench_json(name, payload, elapsed_seconds=time.perf_counter() - started)
    print(f"wrote {path}")
    dump_telemetry(args.telemetry_out, _END_TO_END_SNAPSHOT)


if __name__ == "__main__":
    main()
