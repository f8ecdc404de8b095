"""Metric names, units and the percentile rule.

``END_TO_END`` and ``PER_LAYER`` are the benchmark's metric catalogue; the
result line holds exactly these names (``BENCHMARK.json`` at the repository
root lists the same names and units, and the tests hold the two together).
``CLIENT`` are the wall-clock figures of the closed-loop client: an untraced
run prints them beside the end-to-end metrics, and a traced run reports them
as per-layer metrics under a ``client.`` prefix.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

#: End-to-end metrics (untraced runs): name -> unit.  Apart from ``setup_s``
#: they are CPU time, memory and exact counts; wall-clock rates and latencies
#: on a shared machine spread too far from run to run to gate on (see
#: README.md) and are reported as ``CLIENT`` figures instead.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "cpu_us_per_op": "us/op",
    "cpu_ms_per_mb": "ms/MB",
    "worker_rss_mb": "MB",
    "compression_ratio": "ratio",
}

#: Wall-clock figures of the client: name -> unit.
CLIENT: Dict[str, str] = {
    "ops_per_s": "ops/s",
    "mb_per_s": "MB/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
}

#: Prefix of the client figures among the per-layer metrics.
CLIENT_PREFIX = "client."

#: Per-layer metrics (the traced run): name -> unit.
PER_LAYER: Dict[str, str] = {
    **{CLIENT_PREFIX + name: metric_unit for name, metric_unit in CLIENT.items()},
    "chunking.ms_per_mb": "ms/MB",
    "chunking.chunks_per_mb": "count/MB",
    "fingerprint.ms_per_mb": "ms/MB",
    "engine.self_ms_per_object": "ms/object",
    "engine.index_wait_ms_per_object": "ms/object",
    "engine.chunk_hit_rate": "ratio",
    "cache.ms_per_mb_stored": "ms/MB",
    "batch.self_us_per_op": "us/op",
    "batch.retried_ops": "count",
    "router.us_per_op": "us/op",
    "router.calls_per_op": "count/op",
    "wire.encode_us_per_op": "us/op",
    "wire.decode_us_per_op": "us/op",
    "wire.request_bytes_per_op": "B/op",
    "wire.response_bytes_per_op": "B/op",
    "parallel.send_us_per_op": "us/op",
    "parallel.wait_us_per_op": "us/op",
    "parallel.frames_per_batch": "count/request",
    "parent.cpu_us_per_op": "us/op",
    "parent.unattributed_frac": "ratio",
    "worker.cpu_us_per_op": "us/op",
    "worker.busiest_util": "ratio",
    "clam.flash_reads_per_lookup": "count/lookup",
    "clam.false_positive_reads_per_lookup": "count/lookup",
    "clam.lookup_hit_rate": "ratio",
    "clam.flushes_per_kop": "count/kop",
    "clam.evictions_per_kop": "count/kop",
    "flashsim.write_bytes_per_user_byte": "ratio",
    "flashsim.read_ops_per_lookup": "count/lookup",
    "sim.clock_ms_per_op": "sim-ms/op",
    "trace.overhead_frac": "ratio",
}

#: Percentiles a latency tail may be reported at, highest first.
TAIL_PERCENTILES = (99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

#: The reported p99 is the median of the p99s of consecutive windows of at
#: least this many requests (each has 10 samples beyond its p99), so one
#: stall on a shared machine moves one window, not the result.
TAIL_WINDOW = 1000


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``samples`` (``p`` in (0, 100])."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, p: float) -> int:
    """Samples strictly above the nearest-rank ``p`` percentile of ``count``."""
    return count - max(1, math.ceil(p / 100.0 * count))


def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(p, value)`` for the highest percentile in :data:`TAIL_PERCENTILES`
    with at least :data:`MIN_SAMPLES_BEYOND` samples beyond it, or ``None``."""
    for p in TAIL_PERCENTILES:
        if samples_beyond(len(samples), p) >= MIN_SAMPLES_BEYOND:
            return p, percentile(samples, p)
    return None


def latency_name(p: float) -> str:
    """Metric name of a latency percentile (``99.0`` -> ``latency_p99_ms``)."""
    return f"latency_p{p:g}_ms"


def unit(name: str) -> str:
    """Unit of a metric, including a tail latency reported at a lower percentile."""
    for catalogue in (END_TO_END, CLIENT, PER_LAYER):
        if name in catalogue:
            return catalogue[name]
    if name.startswith(CLIENT_PREFIX):
        name = name[len(CLIENT_PREFIX) :]
    if name.startswith("latency_p") and name.endswith("_ms"):
        return "ms"
    raise KeyError(f"no unit for metric {name!r}")


def tail_latency(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(99.0, median of window p99s)`` over :data:`TAIL_WINDOW`-request
    windows; with fewer samples, :func:`tail_percentile` of them all."""
    windows = len(samples) // TAIL_WINDOW
    if not windows:
        return tail_percentile(samples)
    size = len(samples) // windows
    return 99.0, statistics.median(
        percentile(samples[i * size : (i + 1) * size], 99.0) for i in range(windows)
    )
