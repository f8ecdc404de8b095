"""Workloads, measured passes and metric computation.

The deployment under test is the north-star one: a
:class:`~repro.service.parallel.ParallelClusterService` with two shard
worker processes, ``replication_factor=2`` and the benchmarks'
``standard_config()``.  Every workload is a closed loop with one client in
one thread: the next request is sent only after the previous one returned,
as a branch office's compression engine blocks on each round trip.

A *pass* builds nothing itself: it drives requests from a workload's seeded
stream against a deployment and records, per request, wall time and parent
CPU time; client-side work (making the next request, checking the last
outcome) happens between requests and is not counted in either.
"""

from __future__ import annotations

import importlib
import os
import platform
import random
import resource
import shutil
import statistics
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from benchmarks.common import standard_config
from e2ebench import inputs
from e2ebench.metrics import CLIENT_PREFIX, latency_name, tail_latency
from e2ebench.tracing import Tracer, durations, self_times
from repro.core.hashing import clear_digest_cache
from repro.flashsim.clock import SimulationClock
from repro.flashsim.disk import MagneticDisk
from repro.service import ParallelClusterService, router, wire
from repro.service.cluster import ClusterService
from repro.wanopt import chunking, engine as wan_engine
from repro.wanopt.cache import ContentCache
from repro.wanopt.fingerprint import Chunk
from repro.wanopt.traces import TraceObject
from repro.workloads.workload import Operation, OpKind

wan_fingerprint = importlib.import_module("repro.wanopt.fingerprint")

ROOT = Path(__file__).resolve().parent.parent
#: Shard files of persistent runs; every run deletes what it made here.
SCRATCH_DIR = ROOT / ".e2ebench-tmp"
#: Spans of the traced run, one CSV per workload, rewritten by every run.
SPAN_DIR = ROOT / ".e2ebench-out"

NUM_SHARDS = 2
REPLICATION_FACTOR = 2

#: Deployments built per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 31
#: Requests of the reference pass.  Its exact counts must repeat in the
#: measured pass, its workers' peak RSS is ``worker_rss_mb`` (fixed work, not
#: however far a run got), and ``compression_ratio`` covers the same prefix.
CHECK_REQUESTS = 1000
#: A pass runs past ``--seconds`` until it has this many untraced requests,
#: so the p99 latency has ten samples beyond it ...
MIN_REQUESTS = 1000
#: ... but never longer than this.
MAX_PASS_SECONDS = 60.0
#: CPU costs are medians over windows of this many requests, so a short
#: disturbance on a shared machine moves one window, not the result.
WINDOW_REQUESTS = 100
#: Share of the requests a traced run traces, chosen at random per request;
#: the rest run untraced beside them and give the tracer's overhead.
TRACED_SHARE = 0.5

#: Counters that must repeat exactly for a seed (``ClusterStats.combined``).
EXACT_COUNTERS = (
    "lookups",
    "lookup_hits",
    "inserts",
    "flushes",
    "evictions",
    "incarnations",
    "flash_reads",
    "flash_writes",
    "false_positive_reads",
    "device_read_ops",
    "device_read_bytes",
    "device_write_ops",
    "device_write_bytes",
    "device_erase_ops",
)


# -- Deployments and workloads ------------------------------------------------------


@dataclass
class Deployment:
    service: ParallelClusterService
    data_dir: Optional[str] = None
    engine: Optional[wan_engine.CompressionEngine] = None
    chunker: Optional[chunking.RabinChunker] = None
    branch_clock: Optional[SimulationClock] = None

    def close(self) -> None:
        try:
            self.service.close()
        finally:
            if self.data_dir is not None:
                shutil.rmtree(self.data_dir, ignore_errors=True)
                try:
                    SCRATCH_DIR.rmdir()
                except OSError:  # still holds another deployment's data dir
                    pass


def build_cluster(storage: str) -> Deployment:
    """Fork the two shard workers; persistent shards get a fresh data dir."""
    clear_digest_cache()  # forked workers inherit the parent's digest cache
    data_dir = None
    if storage == "persistent":
        SCRATCH_DIR.mkdir(exist_ok=True)
        data_dir = tempfile.mkdtemp(dir=SCRATCH_DIR)
    try:
        service = ParallelClusterService(
            num_shards=NUM_SHARDS,
            config=standard_config(),
            storage=storage,
            data_dir=data_dir,
            replication_factor=REPLICATION_FACTOR,
        )
    except BaseException:
        if data_dir is not None:
            shutil.rmtree(data_dir, ignore_errors=True)
        raise
    return Deployment(service, data_dir)


@dataclass
class Tally:
    """What one request did, as counted by the client."""

    ops: int
    failed_ops: int
    payload_bytes: int


class IndexWorkload:
    """``execute_batch`` on 64-op batches, checked against the last writes."""

    name = ""
    storage = "intel-ssd"
    #: The seeded request generator (a function of the seed).
    stream: Callable[[int], Iterator[inputs.IndexRequest]]

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.errors: List[str] = []
        self.last_written: Dict[bytes, bytes] = {}
        self.acked_inserts = 0
        self.found_lookups = 0
        self.inserted_bytes = 0

    def build(self) -> Deployment:
        return build_cluster(self.storage)

    def requests(self) -> Iterator[List[Operation]]:
        kinds = {"insert": OpKind.INSERT, "lookup": OpKind.LOOKUP}
        for batch in self.stream(self.seed):
            yield [Operation(kinds[kind], key, value) for kind, key, value in batch]

    def execute(self, deployment: Deployment, operations: List[Operation]):
        return deployment.service.execute_batch(operations)

    def check(self, operations: List[Operation], batch) -> Tally:
        failed = 0
        payload = 0
        for operation, result in zip(operations, batch.results):
            payload += len(operation.key) + len(operation.value)
            if result is None:
                failed += 1
            elif operation.kind is OpKind.INSERT:
                self.last_written[operation.key] = operation.value
                self.acked_inserts += 1
                self.inserted_bytes += len(operation.key) + len(operation.value)
            elif result.found:
                self.found_lookups += 1
                expected = self.last_written.get(operation.key)
                if result.value != expected and len(self.errors) < 10:
                    self.errors.append(
                        f"lookup of {operation.key.hex()} returned {result.value!r}, "
                        f"last acknowledged write was {expected!r}"
                    )
        return Tally(len(operations), failed, payload)

    def summary(self) -> Dict[str, int]:
        return {
            "acked_inserts": self.acked_inserts,
            "found_lookups": self.found_lookups,
            "inserted_bytes": self.inserted_bytes,
        }

    def verify(self, deployment: Deployment) -> None:
        """Lookups were checked as they returned; nothing is left to rebuild."""

    def sim_now_ms(self, deployment: Deployment) -> float:
        return deployment.service.clock.now_ms


class ZipfWorkload(IndexWorkload):
    name = "index-zipf"
    stream = staticmethod(inputs.zipf_requests)


class ChurnWorkload(IndexWorkload):
    name = "index-churn"
    storage = "persistent"
    stream = staticmethod(inputs.churn_requests)


class WanDedupWorkload:
    """One branch office: chunk, fingerprint and compress object after object."""

    name = "wan-dedup"
    storage = "intel-ssd"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.errors: List[str] = []
        #: Per object: chunk fingerprints, chunk sizes, matched flags.
        self.records: List[Tuple[Tuple[bytes, ...], Tuple[int, ...], Tuple[bool, ...]]] = []
        self.chunks = 0
        self.matched = 0
        self.original_bytes = 0
        self.compressed_bytes = 0
        self.inserted_bytes = 0

    def build(self) -> Deployment:
        deployment = build_cluster(self.storage)
        cache = ContentCache(MagneticDisk(clock=SimulationClock()))
        deployment.engine = wan_engine.CompressionEngine(
            index=deployment.service, content_cache=cache
        )
        deployment.chunker = chunking.RabinChunker()
        deployment.branch_clock = SimulationClock()
        return deployment

    def requests(self) -> Iterator[Tuple[int, bytes]]:
        return inputs.wan_objects(self.seed)

    def execute(self, deployment: Deployment, request: Tuple[int, bytes]):
        object_id, payload = request
        pieces = deployment.chunker.split(payload)
        chunks = tuple(
            Chunk(wan_fingerprint.fingerprint_bytes(piece), len(piece), piece) for piece in pieces
        )
        result = deployment.engine.process_object_batched(
            TraceObject(object_id, chunks), clock=deployment.branch_clock
        )
        return chunks, result

    def check(self, request: Tuple[int, bytes], outcome) -> Tally:
        chunks, result = outcome
        fingerprints = tuple(chunk.fingerprint for chunk in chunks)
        self.records.append(
            (fingerprints, tuple(chunk.size for chunk in chunks), result.matched_flags)
        )
        inserts = result.chunks_total - result.chunks_matched
        self.chunks += result.chunks_total
        self.matched += result.chunks_matched
        self.original_bytes += result.original_bytes
        self.compressed_bytes += result.compressed_bytes
        self.inserted_bytes += inserts * (20 + 8)  # fingerprint -> 8-byte cache address
        return Tally(len(set(fingerprints)) + inserts, 0, len(request[1]))

    def summary(self) -> Dict[str, int]:
        return {
            "chunks": self.chunks,
            "matched": self.matched,
            "original_bytes": self.original_bytes,
            "compressed_bytes": self.compressed_bytes,
            "inserted_bytes": self.inserted_bytes,
        }

    def verify(self, deployment: Deployment) -> None:
        """Rebuild every object as the far side would, byte for byte.

        A matched chunk must be one the far side already received as a
        literal (earlier in the stream or earlier in the same object) and is
        read back from the content cache; literals come from the object.
        """
        cache = deployment.engine.content_cache
        received = set()
        for (object_id, payload), (fingerprints, sizes, flags) in zip(
            inputs.wan_objects(self.seed), self.records
        ):
            parts = []
            offset = 0
            for fingerprint, size, matched in zip(fingerprints, sizes, flags):
                if matched:
                    data = cache.read(fingerprint)[0] if fingerprint in received else None
                    if data is None:
                        self.errors.append(
                            f"object {object_id}: chunk {fingerprint.hex()} was sent as a "
                            "reference but the far side never received it"
                        )
                        return
                    parts.append(data)
                else:
                    parts.append(payload[offset : offset + size])
                    received.add(fingerprint)
                offset += size
            if b"".join(parts) != payload:
                self.errors.append(f"object {object_id} did not rebuild byte-exact")
                return

    def sim_now_ms(self, deployment: Deployment) -> float:
        return deployment.branch_clock.now_ms


WORKLOADS = {w.name: w for w in (WanDedupWorkload, ZipfWorkload, ChurnWorkload)}


# -- Passes -------------------------------------------------------------------------


@dataclass
class Window:
    """Totals over :data:`WINDOW_REQUESTS` consecutive requests."""

    ops: int = 0
    payload_bytes: int = 0
    #: Parent CPU during the requests plus all worker CPU.
    cpu_s: float = 0.0


@dataclass
class PassResult:
    #: Per request: wall time, parent CPU time, operations, payload bytes,
    #: and (traced runs only) whether the request was traced.
    latencies_s: List[float] = field(default_factory=list)
    cpu_s: List[float] = field(default_factory=list)
    ops: List[int] = field(default_factory=list)
    payload_bytes: List[int] = field(default_factory=list)
    traced: List[bool] = field(default_factory=list)
    failed_ops: int = 0
    windows: List[Window] = field(default_factory=list)
    worker_cpu_s: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    summary: Dict[str, int] = field(default_factory=dict)
    sim_ms: float = 0.0
    #: Exact counts after :data:`CHECK_REQUESTS` requests (``None`` if never reached).
    checkpoint: Optional[Dict[str, object]] = None
    errors: List[str] = field(default_factory=list)

    @property
    def requests(self) -> int:
        return len(self.latencies_s)


def exact_counts(counters: Dict[str, float], summary: Dict[str, int]) -> Dict[str, object]:
    return {
        "counters": {name: counters.get(name, 0.0) for name in EXACT_COUNTERS},
        "summary": summary,
    }


def run_pass(
    workload,
    deployment: Deployment,
    seconds: Optional[float] = None,
    limit: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> PassResult:
    """Closed loop: one request at a time until ``seconds`` (and at least
    :data:`MIN_REQUESTS` untraced requests) have passed, or ``limit`` requests.

    With a ``tracer``, the layer wrappers are installed for the pass and a
    seeded random :data:`TRACED_SHARE` of the requests is traced.  The
    deployment's workers have already forked, so they run unwrapped.
    """
    result = PassResult()
    service = deployment.service
    workers_start = service.worker_cpu_seconds()
    workers_seen = sum(workers_start.values())
    window = Window()
    sim_start = workload.sim_now_ms(deployment)
    pick = random.Random(f"trace:{workload.seed}")
    untraced = 0
    if tracer is not None:
        install_wrappers(tracer)
    started = perf_counter()
    try:
        for request in workload.requests():
            traced = tracer is not None and pick.random() < TRACED_SHARE
            if traced:
                tracer.request = result.requests
                tracer.begin("request")
            cpu_start = process_time()
            wall_start = perf_counter()
            try:
                outcome = workload.execute(deployment, request)
            except Exception:  # reported as a failed run, never hidden
                result.errors.append(traceback.format_exc())
                result.failed_ops += len(request) if isinstance(request, list) else 1
                break
            finally:
                wall_s = perf_counter() - wall_start
                cpu_s = process_time() - cpu_start
                if traced:
                    tracer.end()
                    tracer.request = None
            tally = workload.check(request, outcome)
            result.latencies_s.append(wall_s)
            result.cpu_s.append(cpu_s)
            result.ops.append(tally.ops)
            result.payload_bytes.append(tally.payload_bytes)
            if tracer is not None:
                result.traced.append(traced)
            result.failed_ops += tally.failed_ops
            untraced += not traced
            window.ops += tally.ops
            window.payload_bytes += tally.payload_bytes
            window.cpu_s += cpu_s
            if result.requests % WINDOW_REQUESTS == 0:
                workers_now = sum(service.worker_cpu_seconds().values())
                window.cpu_s += workers_now - workers_seen
                workers_seen = workers_now
                result.windows.append(window)
                window = Window()
            if result.requests == CHECK_REQUESTS:
                result.checkpoint = exact_counts(service.stats.combined(), workload.summary())
            if limit is not None and result.requests >= limit:
                break
            elapsed = perf_counter() - started
            if seconds is not None and elapsed >= seconds and untraced >= MIN_REQUESTS:
                break
            if elapsed >= MAX_PASS_SECONDS:
                break
    finally:
        if tracer is not None:
            tracer.restore()
    workers_end = service.worker_cpu_seconds()
    result.worker_cpu_s = {
        shard: cpu - workers_start.get(shard, 0.0) for shard, cpu in workers_end.items()
    }
    result.sim_ms = workload.sim_now_ms(deployment) - sim_start
    result.counters = service.stats.combined()
    result.summary = workload.summary()
    workload.verify(deployment)
    result.errors.extend(workload.errors)
    return result


# -- Tracing ------------------------------------------------------------------------


def install_wrappers(tracer: Tracer) -> None:
    """Wrap each layer's public entry points in the parent process."""
    tracer.wrap(chunking.RabinChunker, "split", "chunking", consume=True)
    tracer.wrap(wan_fingerprint, "fingerprint_bytes", "fingerprint")
    tracer.wrap(wan_engine.CompressionEngine, "process_object_batched", "engine")
    tracer.wrap(ContentCache, "store", "cache", count=("cache.bytes", lambda args, _: args[2]))
    tracer.wrap(ClusterService, "lookup_batch", "index")
    tracer.wrap(ClusterService, "insert_batch", "index")
    tracer.wrap(
        ClusterService,
        "execute_batch",
        "batch",
        count=(
            "batch.retried",
            lambda _, batch: batch.retried_operations + len(batch.failed_shards),
        ),
    )
    tracer.wrap(router.ShardRouter, "preference_list", "router")
    tracer.wrap(wire, "encode_batch_request", "wire.encode")
    tracer.wrap(wire, "decode_batch_response", "wire.decode")
    tracer.wrap(
        wire, "send_frame", "parallel.send", count=("wire.request_bytes", lambda a, _: len(a[2]))
    )
    tracer.wrap(
        wire, "recv_frame", "parallel.wait", count=("wire.response_bytes", lambda _, r: len(r[2]))
    )


# -- Runs ---------------------------------------------------------------------------


@dataclass
class Report:
    environment: Dict[str, object]
    metrics: Dict[str, float]
    #: Figures printed beside the metrics but not part of the result line.
    figures: Dict[str, float]
    attempted: int
    failed: int
    errors: List[str]

    @property
    def correct(self) -> bool:
        return not self.errors and self.failed == 0 and self.attempted > 0


def environment(name: str, seed: int, seconds: int, trace: bool) -> Dict[str, object]:
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": chunking.HAVE_NUMPY,
        "shards": NUM_SHARDS,
        "replication_factor": REPLICATION_FACTOR,
        "storage": WORKLOADS[name].storage,
        "closed_loop_clients": 1,
    }


def compression_ratio(summary: Dict[str, int]) -> float:
    """wan-dedup: original over sent bytes.  The index workloads send
    nothing compressed, so their ratio is 1."""
    if "compressed_bytes" not in summary:
        return 1.0
    return summary["original_bytes"] / summary["compressed_bytes"]


def fresh_pass(name: str, seed: int, **pass_args) -> PassResult:
    """:func:`run_pass` on a deployment built for it and closed after it."""
    workload = WORKLOADS[name](seed)
    deployment = workload.build()
    try:
        return run_pass(workload, deployment, **pass_args)
    finally:
        deployment.close()


def run(name: str, seed: int, seconds: int, trace: bool) -> Report:
    """One run: ``setup_s`` from repeated builds; a reference pass over the
    first :data:`CHECK_REQUESTS` requests, which gives ``worker_rss_mb`` for
    a fixed amount of work; then the measured pass on a fresh deployment,
    whose exact counts after as many requests must match the reference."""
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        deployment = WORKLOADS[name](seed).build()
        deployment.service.worker_cpu_seconds()  # one round trip per worker
        setup_times.append(perf_counter() - start)
        deployment.close()
    reference = fresh_pass(name, seed, limit=CHECK_REQUESTS)
    # Every worker so far has been reaped, so this is the reference pass's peak.
    worker_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6
    tracer = Tracer() if trace else None
    main = fresh_pass(name, seed, seconds=seconds, tracer=tracer)

    errors = reference.errors + main.errors
    if main.checkpoint is None:
        errors.append(f"the pass ended before {CHECK_REQUESTS} requests")
    elif main.checkpoint != reference.checkpoint:
        errors.append(
            f"exact counts after {CHECK_REQUESTS} requests differ for the same seed: "
            f"{main.checkpoint} != {reference.checkpoint}"
        )
    metrics: Dict[str, float] = {}
    figures: Dict[str, float] = {}
    if not errors:
        if trace:
            metrics = per_layer_metrics(name, main, tracer)
            SPAN_DIR.mkdir(exist_ok=True)
            tracer.write_csv(str(SPAN_DIR / f"spans-{name}.csv"))
        else:
            metrics = end_to_end_metrics(main, setup_times, worker_rss_mb)
            figures = client_figures(main.latencies_s, main.ops, main.payload_bytes)
    return Report(
        environment(name, seed, seconds, trace),
        metrics,
        figures,
        sum(main.ops),
        main.failed_ops,
        errors,
    )


def end_to_end_metrics(
    main: PassResult, setup_times: List[float], worker_rss_mb: float
) -> Dict[str, float]:
    windows = main.windows
    return {
        "setup_s": statistics.median(setup_times),
        "cpu_us_per_op": statistics.median(w.cpu_s / w.ops * 1e6 for w in windows),
        "cpu_ms_per_mb": statistics.median(
            w.cpu_s * 1e3 / (w.payload_bytes / 1e6) for w in windows
        ),
        "worker_rss_mb": worker_rss_mb,
        "compression_ratio": compression_ratio(main.checkpoint["summary"]),
    }


def client_figures(
    latencies_s: List[float], ops: List[int], payload_bytes: List[int]
) -> Dict[str, float]:
    """Wall-clock rates and latencies of the closed-loop client over the
    given requests: operations and payload per second of request time."""
    busy = sum(latencies_s)
    figures = {
        "ops_per_s": sum(ops) / busy,
        "mb_per_s": sum(payload_bytes) / 1e6 / busy,
        "latency_p50_ms": statistics.median(latencies_s) * 1e3,
    }
    tail = tail_latency(latencies_s)
    if tail is not None:
        figures[latency_name(tail[0])] = tail[1] * 1e3
    return figures


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(name: str, main: PassResult, tracer: Tracer) -> Dict[str, float]:
    """Client figures and the CPU of the parent from the untraced requests;
    span metrics per traced operation, object or MB; worker CPU, CLAM and
    device counts (exact) from the whole pass."""

    def split(values):
        traced = sum(v for v, flag in zip(values, main.traced) if flag)
        return traced, sum(values) - traced

    def untraced(values):
        return [v for v, flag in zip(values, main.traced) if not flag]

    client = client_figures(
        untraced(main.latencies_s), untraced(main.ops), untraced(main.payload_bytes)
    )
    traced_ops, plain_ops = split(main.ops)
    traced_bytes, _ = split(main.payload_bytes)
    traced_busy, plain_busy = split(main.latencies_s)
    _, plain_cpu = split(main.cpu_s)
    traced_requests = sum(main.traced)
    plain_requests = main.requests - traced_requests
    objects = traced_requests if name == WanDedupWorkload.name else 0
    traced_mb = traced_bytes / 1e6 if objects else 0.0
    all_mb = sum(main.payload_bytes) / 1e6 if objects else 0.0
    all_ops = sum(main.ops)
    busy = sum(main.latencies_s)

    spans = tracer.spans
    own = self_times(spans)
    total, calls = durations(spans)
    summary = main.summary
    counters = main.counters
    lookups = counters["lookups"]
    return {
        **{CLIENT_PREFIX + figure: value for figure, value in client.items()},
        "chunking.ms_per_mb": _ratio(total.get("chunking", 0.0) * 1e3, traced_mb),
        "chunking.chunks_per_mb": _ratio(summary.get("chunks", 0), all_mb),
        "fingerprint.ms_per_mb": _ratio(total.get("fingerprint", 0.0) * 1e3, traced_mb),
        "engine.self_ms_per_object": _ratio(own.get("engine", 0.0) * 1e3, objects),
        "engine.index_wait_ms_per_object": _ratio(total.get("index", 0.0) * 1e3, objects),
        "engine.chunk_hit_rate": _ratio(summary.get("matched", 0), summary.get("chunks", 0)),
        "cache.ms_per_mb_stored": _ratio(
            total.get("cache", 0.0) * 1e3, tracer.counts["cache.bytes"] / 1e6
        ),
        "batch.self_us_per_op": _ratio(own.get("batch", 0.0) * 1e6, traced_ops),
        "batch.retried_ops": float(tracer.counts["batch.retried"]),
        "router.us_per_op": _ratio(total.get("router", 0.0) * 1e6, traced_ops),
        "router.calls_per_op": _ratio(calls.get("router", 0), traced_ops),
        "wire.encode_us_per_op": _ratio(total.get("wire.encode", 0.0) * 1e6, traced_ops),
        "wire.decode_us_per_op": _ratio(total.get("wire.decode", 0.0) * 1e6, traced_ops),
        "wire.request_bytes_per_op": _ratio(tracer.counts["wire.request_bytes"], traced_ops),
        "wire.response_bytes_per_op": _ratio(tracer.counts["wire.response_bytes"], traced_ops),
        "parallel.send_us_per_op": _ratio(total.get("parallel.send", 0.0) * 1e6, traced_ops),
        "parallel.wait_us_per_op": _ratio(total.get("parallel.wait", 0.0) * 1e6, traced_ops),
        "parallel.frames_per_batch": _ratio(calls.get("parallel.send", 0), traced_requests),
        "parent.cpu_us_per_op": _ratio(plain_cpu * 1e6, plain_ops),
        "parent.unattributed_frac": _ratio(own.get("request", 0.0), total.get("request", 0.0)),
        "worker.cpu_us_per_op": _ratio(sum(main.worker_cpu_s.values()) * 1e6, all_ops),
        "worker.busiest_util": _ratio(max(main.worker_cpu_s.values(), default=0.0), busy),
        "clam.flash_reads_per_lookup": _ratio(counters["flash_reads"], lookups),
        "clam.false_positive_reads_per_lookup": _ratio(counters["false_positive_reads"], lookups),
        "clam.lookup_hit_rate": _ratio(counters["lookup_hits"], lookups),
        "clam.flushes_per_kop": _ratio(counters["flushes"], all_ops / 1e3),
        "clam.evictions_per_kop": _ratio(counters["evictions"], all_ops / 1e3),
        "flashsim.write_bytes_per_user_byte": _ratio(
            counters["device_write_bytes"], summary["inserted_bytes"]
        ),
        "flashsim.read_ops_per_lookup": _ratio(counters["device_read_ops"], lookups),
        "sim.clock_ms_per_op": _ratio(main.sim_ms, all_ops),
        "trace.overhead_frac": _ratio(
            traced_busy / traced_requests, plain_busy / plain_requests
        )
        - 1.0,
    }
