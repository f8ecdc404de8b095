"""Hot-path microbenchmark: the hash-once KeyDigest pipeline on a CLAM.

BufferHash's premise is that an operation costs a handful of cheap in-memory
hash operations plus at most one flash read.  In pure Python the "cheap"
part used to dominate: every layer (super-table partition, two cuckoo
buckets, Bloom base hashes, incarnation page, shard ring) re-hashed the full
key bytes, 6-10+ FNV passes per operation.  The hash-once
:class:`~repro.core.hashing.KeyDigest` pipeline computes each seeded hash of
a key at most once per operation (and not at all once the digest cache has
seen the key); this benchmark measures that pipeline and holds its pass
counts.

Two workloads are timed with real wall-clock (this benchmark measures the
implementation, not the simulated device model):

* ``hotpath`` — the headline insert/lookup microbench: a buffer-resident
  working set (no flushes) driven with interleaved insert+lookup rounds.
  This isolates the DRAM hot path the paper calls "a handful of in-memory
  hash operations".
* ``steady_state`` — a flash-touching steady state (buffers full, 8
  incarnations per super table) driven with a lookup/update mix; flash-page
  simulation bounds the achievable rate, so this is the honest end-to-end
  number.

Per-operation full-key hash passes are counted by layer with
:func:`repro.core.hashing.count_hash_calls`.  Two kinds of check hold them:

* absolute hash-once invariants on every run — at most one pass per layer
  per operation, one digest build for a cold key, zero passes for a cached
  one;
* the ``hotpath`` spec of :mod:`benchmarks.ratchet` — every
  ``hash_calls_per_op`` entry must equal the committed
  ``BENCH_hotpath.json`` exactly.  The counts are sampled over a fixed
  number of operations on fixed configurations, so they are the same in
  quick and full runs and on any machine.

A telemetry off/on A/B on the hotpath workload rides along: telemetry off
must stay within 5 % of the same-run baseline, telemetry on above half of
it.

Results go to stdout (tables) and ``BENCH_hotpath.json`` (machine readable,
see ``benchmarks/common.py``); ``--quick`` writes ``BENCH_hotpath_quick.json``
instead, so the committed baseline is never clobbered, and ratchets it
against the committed file.  Run directly::

    PYTHONPATH=src:. python benchmarks/bench_hotpath.py [--quick] [--json PATH]

or through pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_hotpath.py -q -s
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, Optional

from benchmarks.common import add_telemetry_arg, dump_telemetry, print_table, write_bench_json
from benchmarks.ratchet import REGISTRY, assert_fraction, check_spec
from repro.core import CLAM, CLAMConfig
from repro.core.hashing import clear_digest_cache, count_hash_calls
from repro.telemetry import build_snapshot

#: Workload sizes: full run and --quick (CI smoke) variants.
FULL = {"hot_keys": 4000, "hot_rounds": 3, "steady_keys": 16000, "steady_ops": 16000}
QUICK = {"hot_keys": 1500, "hot_rounds": 2, "steady_keys": 6000, "steady_ops": 6000}

#: Seed-tree reference, measured on the pre-PR implementation with exactly the
#: FULL workloads below (recorded once so the trajectory keeps an absolute
#: anchor).
SEED_REFERENCE = {"hotpath_ops_per_sec": 56576.6, "steady_ops_per_sec": 26712.4}

VALUE = b"v" * 8


def hotpath_clam(telemetry: bool = False) -> CLAM:
    """Buffers sized so the hotpath working set never flushes to flash."""
    config = CLAMConfig.scaled(
        num_super_tables=4,
        buffer_capacity_items=2048,
        incarnations_per_table=2,
        telemetry_enabled=telemetry,
    )
    return CLAM(config, storage="intel-ssd", keep_latency_samples=False)


def steady_clam() -> CLAM:
    """The standard scaled configuration: small buffers, 8 incarnations."""
    config = CLAMConfig.scaled(
        num_super_tables=16,
        buffer_capacity_items=128,
        incarnations_per_table=8,
    )
    return CLAM(config, storage="intel-ssd", keep_latency_samples=False)


def run_hotpath(sizes: Dict[str, int], telemetry: bool = False):
    """(ops/sec, CLAM) of interleaved insert+lookup over a buffer-resident key set."""
    clear_digest_cache()
    clam = hotpath_clam(telemetry=telemetry)
    keys = [b"hotkey-%08d" % i for i in range(sizes["hot_keys"])]
    for key in keys:  # cold fill, not timed
        clam.insert(key, VALUE)
    assert clam.bufferhash.total_flushes == 0, "hotpath workload must stay in DRAM"
    operations = 0
    start = time.perf_counter()
    for _ in range(sizes["hot_rounds"]):
        for key in keys:
            clam.insert(key, VALUE)
            clam.lookup(key)
        operations += 2 * len(keys)
    return operations / (time.perf_counter() - start), clam


def run_steady_state(sizes: Dict[str, int]) -> float:
    """Ops/sec of a lookup/update mix against a flash-resident steady state."""
    clear_digest_cache()
    clam = steady_clam()
    num_keys = sizes["steady_keys"]
    keys = [b"sskey-%08d" % i for i in range(num_keys)]
    for key in keys:  # warm up into incarnations, not timed
        clam.insert(key, VALUE)
    operations = sizes["steady_ops"]
    start = time.perf_counter()
    for index in range(operations):
        key = keys[(index * 7919) % num_keys]  # deterministic stride "random"
        if index & 1:
            clam.insert(key, VALUE)
        else:
            clam.lookup(key)
    return operations / (time.perf_counter() - start)


def measure_hash_calls() -> Dict[str, Dict[str, float]]:
    """Per-operation full-key hash passes by layer.

    ``lookup_cold`` clears the cross-operation digest cache first, so it
    shows the per-operation cost of a never-seen key: exactly one digest
    build and at most one pass per layer.  ``lookup_cached``/
    ``insert_cached`` show the steady-state cost once the digest cache has
    seen the key.

    Lookups are sampled against the flash-resident steady-state CLAM (the
    interesting case: several incarnations probed per lookup); inserts
    against the flush-free hotpath CLAM, because a flush amortises
    whole-buffer serialisation (which hashes every *drained* key once for
    page placement) into whichever insert triggered it and would blur the
    per-operation accounting.
    """
    sample = 200

    def sampled(operation) -> Dict[str, float]:
        with count_hash_calls() as log:
            for index in range(sample):
                operation(index)
        return {name: count / sample for name, count in log.snapshot().items()}

    out: Dict[str, Dict[str, float]] = {}
    clear_digest_cache()
    clam = steady_clam()
    keys = [b"cntkey-%08d" % i for i in range(8000)]
    for key in keys:
        clam.insert(key, VALUE)
    clear_digest_cache()
    out["lookup_cold"] = sampled(lambda i: clam.lookup(keys[(i * 7919) % len(keys)]))
    out["lookup_cached"] = sampled(lambda i: clam.lookup(keys[(i * 7919) % len(keys)]))

    clear_digest_cache()
    buffered = hotpath_clam()
    hot_keys = [b"cntins-%08d" % i for i in range(2000)]
    for key in hot_keys:
        buffered.insert(key, VALUE)
    clear_digest_cache()
    out["insert_cold"] = sampled(lambda i: buffered.insert(hot_keys[(i * 6133) % 2000], VALUE))
    out["insert_cached"] = sampled(lambda i: buffered.insert(hot_keys[(i * 6133) % 2000], VALUE))
    return out


def run_workloads(sizes: Dict[str, int]) -> Dict:
    """Timings of both workloads plus the hash-call accounting.

    An untimed hotpath pass runs first, so the timed one — the baseline of
    the telemetry ratchet — is measured warm, like the telemetry-off passes
    it is compared with.
    """
    run_hotpath(sizes)
    return {
        "hotpath_ops_per_sec": round(run_hotpath(sizes)[0], 1),
        "steady_ops_per_sec": round(run_steady_state(sizes), 1),
        "hash_calls_per_op": measure_hash_calls(),
    }


def run_telemetry_ablation(sizes: Dict[str, int]):
    """Telemetry off/on A/B on the hotpath workload, plus the on-run snapshot.

    ``telemetry_enabled=False`` (the default every other number in this file
    is measured with) must cost nothing: the instrumentation collapses to a
    cached ``None`` check per operation.  The ratchet in
    :func:`check_telemetry_ratchet` holds the freshly measured off number
    within 5 % of the same-run hotpath number — same process, same machine,
    same workload, so the bound is noise-tight in a way a cross-machine
    comparison against a committed BENCH file could never be.  The on run's
    registry becomes the ``--telemetry-out`` snapshot.
    """
    off = max(run_hotpath(sizes)[0] for _ in range(2))
    on, clam = run_hotpath(sizes, telemetry=True)
    snapshot = build_snapshot(per_shard={"clam": clam.telemetry})
    ablation = {
        "off_ops_per_sec": round(off, 1),
        "on_ops_per_sec": round(on, 1),
        "on_over_off": round(on / off, 4),
    }
    return ablation, snapshot


def report(
    results: Dict,
    sizes: Dict[str, int],
    json_path: Optional[str],
    ablation: Optional[Dict] = None,
) -> None:
    print_table(
        "Hot path: wall-clock ops/sec of the hash-once pipeline",
        ["workload", "ops/s"],
        [
            ("hotpath (DRAM)", results["hotpath_ops_per_sec"]),
            ("steady state (flash)", results["steady_ops_per_sec"]),
        ],
    )
    calls = results["hash_calls_per_op"]
    cold, cached = calls["lookup_cold"], calls["lookup_cached"]
    print_table(
        "Full-key hash passes per lookup, by layer",
        ["layer", "cold key", "cached key"],
        [
            (layer, cold.get(layer, 0.0), cached.get(layer, 0.0))
            for layer in sorted(set(cold) | set(cached))
        ],
    )
    payload = {
        "description": (
            "Wall-clock ops/sec of the CLAM insert/lookup hot path with the "
            "hash-once KeyDigest pipeline and bytearray bitset Bloom filters, "
            "plus full-key hash passes per operation by layer."
        ),
        "workloads": dict(sizes),
        "quick": sizes != FULL,
        **results,
        "seed_reference": {
            "comment": (
                "Absolute ops/sec measured on the pre-PR tree with the FULL "
                "workloads (anchor for the trajectory)."
            ),
            **SEED_REFERENCE,
        },
    }
    if ablation is not None:
        payload["telemetry_ablation"] = ablation
        print(
            "telemetry ablation (hotpath): off "
            f"{ablation['off_ops_per_sec']:.1f} ops/s vs on "
            f"{ablation['on_ops_per_sec']:.1f} ops/s "
            f"(on/off {ablation['on_over_off']:.3f})"
        )
    if sizes == FULL:
        payload["seed_reference"]["speedup_vs_seed"] = {
            "hotpath": round(
                results["hotpath_ops_per_sec"] / SEED_REFERENCE["hotpath_ops_per_sec"], 2
            ),
            "steady_state": round(
                results["steady_ops_per_sec"] / SEED_REFERENCE["steady_ops_per_sec"], 2
            ),
        }
    path = write_bench_json("hotpath" if sizes == FULL else "hotpath_quick", payload)
    if json_path is not None:
        import shutil

        shutil.copyfile(path, json_path)
    print(f"wrote {path}")


def check_invariants(results: Dict) -> None:
    """The hash-once claims, which hold on every run."""
    calls = results["hash_calls_per_op"]
    # Every layer traverses the key bytes at most once per op, with at most
    # one digest build per operation (0 once cache-hot).
    for name, counts in calls.items():
        for layer, per_op in counts.items():
            if layer == "fnv_total":
                continue
            assert per_op <= 1.0 + 1e-9, f"{name} hashes {layer} {per_op}x per op"
    # A cold key is digested exactly once and never re-hashed afterwards.
    assert calls["lookup_cold"]["digest_builds"] == 1.0
    assert calls["insert_cold"]["digest_builds"] == 1.0
    assert calls["lookup_cached"]["fnv_total"] == 0.0
    assert calls["insert_cached"]["fnv_total"] == 0.0


def check_telemetry_ratchet(results: Dict, ablation: Dict) -> None:
    """telemetry_enabled=False must not tax the hot path (the <5 % ratchet).

    Both numbers come from the same process and workload — the hotpath
    measurement (telemetry off, like every other number in
    BENCH_hotpath.json) and a fresh best-of-two telemetry-off run — so the
    comparison is immune to machine-to-machine throughput differences that a
    ratchet against a committed file would trip over.  The enabled run only
    gets a loose floor: recording two histogram observations per operation
    costs real Python time and is priced in, not hidden.  Both floors go
    through the shared :func:`benchmarks.ratchet.assert_fraction` primitive.
    """
    off = ablation["off_ops_per_sec"]
    assert_fraction(
        "hotpath telemetry-off A/B vs same-run baseline",
        fresh=off,
        committed=results["hotpath_ops_per_sec"],
        floor=0.95,
    )
    assert_fraction(
        "hotpath telemetry-on floor vs telemetry-off",
        fresh=ablation["on_ops_per_sec"],
        committed=off,
        floor=0.5,
    )


def run_bench(
    quick: bool = False,
    json_path: Optional[str] = None,
    telemetry_out: Optional[str] = None,
) -> Dict:
    sizes = QUICK if quick else FULL
    results = run_workloads(sizes)
    ablation, snapshot = run_telemetry_ablation(sizes)
    report(results, sizes, json_path, ablation)
    check_invariants(results)
    check_telemetry_ratchet(results, ablation)
    if quick:
        checks = check_spec(REGISTRY["hotpath"])
        if checks:
            print(f"ratchet ok: {len(checks)} metric checks against BENCH_hotpath.json")
        else:
            print("ratchet skipped: no committed BENCH_hotpath.json yet")
    dump_telemetry(telemetry_out, snapshot)
    return results


def test_bench_hotpath(benchmark):
    results = benchmark.pedantic(lambda: run_workloads(QUICK), rounds=1, iterations=1)
    report(results, QUICK, None)
    check_invariants(results)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller workloads; writes BENCH_hotpath_quick.json and ratchets it",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also copy the written BENCH file to PATH",
    )
    add_telemetry_arg(parser)
    args = parser.parse_args()
    run_bench(quick=args.quick, json_path=args.json, telemetry_out=args.telemetry_out)
    print("hotpath benchmark invariants hold")


if __name__ == "__main__":
    main()
