"""Tests of the benchmark's own machinery (no worker processes are started)."""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from e2ebench import inputs
from e2ebench.metrics import (
    CLIENT,
    CLIENT_PREFIX,
    END_TO_END,
    MIN_SAMPLES_BEYOND,
    PER_LAYER,
    latency_name,
    percentile,
    tail_latency,
    tail_percentile,
    unit,
)
from e2ebench.tracing import Span, Tracer, covered_length, durations, self_times

ROOT = Path(__file__).resolve().parent.parent


# -- Inputs -------------------------------------------------------------------------


@pytest.mark.parametrize(
    "stream", [inputs.zipf_requests, inputs.churn_requests, inputs.wan_objects]
)
def test_streams_are_deterministic_per_seed(stream):
    first = list(itertools.islice(stream(7), 40))
    again = list(itertools.islice(stream(7), 40))
    other = list(itertools.islice(stream(8), 40))
    assert first == again
    assert first != other


def test_zipf_shape():
    batches = list(itertools.islice(inputs.zipf_requests(3), 30))
    assert all(len(batch) == inputs.BATCH_SIZE for batch in batches)
    kinds = [batch[0][0] for batch in batches]
    assert kinds.count("lookup") == 2 * kinds.count("insert")
    keys = {key for batch in batches for _, key, _ in batch}
    assert len(keys) <= inputs.ZIPF_KEYS
    values = [value for batch in batches for kind, _, value in batch if kind == "insert"]
    assert len(set(values)) == len(values)  # every write is distinguishable


def test_churn_inserts_fresh_keys_and_looks_up_past_them():
    inserted, looked_up = [], []
    for kind, key, _ in itertools.chain.from_iterable(
        itertools.islice(inputs.churn_requests(5), 200)
    ):
        (inserted if kind == "insert" else looked_up).append(key)
    assert len(set(inserted)) == len(inserted)
    assert set(looked_up) - set(inserted)  # some lookups ask for unwritten keys


def test_wan_objects_repeat_about_half_their_chunks():
    from repro.wanopt.chunking import RabinChunker
    from repro.wanopt.fingerprint import fingerprint_bytes

    chunker = RabinChunker()
    seen, chunks, repeats = set(), 0, 0
    for _, payload in itertools.islice(inputs.wan_objects(2), 300):
        assert inputs.OBJECT_MIN_BYTES <= len(payload) <= 2 * inputs.OBJECT_MAX_BYTES
        for piece in chunker.split(payload):
            fingerprint = fingerprint_bytes(piece)
            chunks += 1
            repeats += fingerprint in seen
            seen.add(fingerprint)
    assert 0.3 < repeats / chunks < 0.6


# -- Span arithmetic ----------------------------------------------------------------


def span(sid, name, start, end, parent=None):
    return Span(sid, name, start, end, parent, 0)


def test_self_time_of_nested_spans():
    spans = [
        span(0, "request", 0.0, 10.0),
        span(1, "batch", 1.0, 9.0, parent=0),
        span(2, "wire", 2.0, 5.0, parent=1),
    ]
    own = self_times(spans)
    assert own == pytest.approx({"request": 2.0, "batch": 5.0, "wire": 3.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_of_sibling_spans():
    spans = [
        span(0, "engine", 0.0, 10.0),
        span(1, "index", 1.0, 3.0, parent=0),
        span(2, "cache", 3.0, 4.0, parent=0),
        span(3, "index", 6.0, 9.0, parent=0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({"engine": 4.0, "index": 5.0, "cache": 1.0})
    total, calls = durations(spans)
    assert total["index"] == pytest.approx(5.0)
    assert calls == {"engine": 1, "index": 2, "cache": 1}


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(7.0)
    assert covered_length([], 0.0, 1.0) == 0.0


class _Layer:
    def work(self, n):
        return n * 2

    def lazy(self, n):
        yield from range(n)


def test_wrappers_record_only_inside_requests_and_restore():
    original = _Layer.__dict__["work"]
    tracer = Tracer()
    tracer.wrap(_Layer, "work", "layer", count=("calls", lambda args, result: 1))
    tracer.wrap(_Layer, "lazy", "lazy", consume=True)
    layer = _Layer()
    assert layer.work(1) == 2  # outside a request: not recorded
    tracer.request = 0
    tracer.begin("request")
    assert layer.work(2) == 4
    assert layer.lazy(3) == [0, 1, 2]
    tracer.end()
    tracer.request = None
    tracer.restore()
    assert _Layer.__dict__["work"] is original
    spans = tracer.spans
    assert [s.name for s in spans] == ["request", "layer", "lazy"]
    assert spans[0].parent is None
    assert {s.parent for s in spans[1:]} == {spans[0].sid}
    assert all(s.request == 0 and s.end >= s.start for s in spans)
    assert tracer.counts["calls"] == 1


# -- Percentiles --------------------------------------------------------------------


def test_p99_needs_ten_samples_beyond_it():
    assert tail_percentile(list(range(1000))) == (99.0, 989)
    assert tail_percentile(list(range(999)))[0] == 98.0
    assert tail_percentile(list(range(10))) is None


def test_tail_percentile_always_leaves_ten_samples_beyond():
    for count in (20, 40, 100, 200, 500, 999, 1000, 5000):
        samples = [float(i) for i in range(count)]
        p, value = tail_percentile(samples)
        assert sum(sample > value for sample in samples) >= MIN_SAMPLES_BEYOND


def test_tail_latency_is_the_median_of_window_p99s():
    slow_window = [100.0] * 1000
    samples = [float(i % 1000) for i in range(2000)] + slow_window
    assert tail_latency(samples) == (99.0, 989.0)
    assert tail_latency(samples[:1500]) == (99.0, percentile(samples[:1500], 99.0))
    assert tail_latency(samples[:999]) == tail_percentile(samples[:999])


def test_percentile_is_nearest_rank():
    assert percentile([5.0, 1.0, 3.0], 50) == 3.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0
    assert latency_name(99.0) == "latency_p99_ms"
    assert latency_name(97.5) == "latency_p97.5_ms"


# -- Metric catalogue ---------------------------------------------------------------


def test_every_metric_has_a_unit_and_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    tails = [latency_name(95.0), CLIENT_PREFIX + latency_name(95.0)]
    for name in itertools.chain(END_TO_END, CLIENT, PER_LAYER, tails):
        assert unit(name)
    assert not set(CLIENT) & set(END_TO_END)  # wall-clock figures are not gated
    with pytest.raises(KeyError):
        unit("no_such_metric")
    from e2ebench.harness import WORKLOADS

    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


# -- Output checks ------------------------------------------------------------------


def test_index_check_flags_a_stale_lookup():
    from repro.core.results import InsertResult, LookupResult, ServedFrom
    from repro.workloads.workload import Operation, OpKind

    from e2ebench.harness import ZipfWorkload

    workload = ZipfWorkload(seed=1)
    key = b"k" * 20
    write = [Operation(OpKind.INSERT, key, b"new")]
    workload.check(write, SimpleNamespace(results=[InsertResult(key, 0.0)]))
    read = [Operation(OpKind.LOOKUP, key)]
    found_old = LookupResult(key, b"old", 0.0, ServedFrom.BUFFER)
    tally = workload.check(read, SimpleNamespace(results=[found_old]))
    assert tally.failed_ops == 0 and len(workload.errors) == 1
    tally = workload.check(read, SimpleNamespace(results=[None]))
    assert tally.failed_ops == 1


def test_wan_rebuild_flags_a_false_match():
    from repro.flashsim.disk import MagneticDisk
    from repro.wanopt.cache import ContentCache
    from repro.wanopt.chunking import RabinChunker
    from repro.wanopt.fingerprint import fingerprint_bytes

    from e2ebench.harness import WanDedupWorkload

    workload = WanDedupWorkload(seed=4)
    cache = ContentCache(MagneticDisk())
    deployment = SimpleNamespace(engine=SimpleNamespace(content_cache=cache))
    _, payload = next(inputs.wan_objects(4))
    pieces = list(RabinChunker().split(payload))
    fingerprints = tuple(fingerprint_bytes(piece) for piece in pieces)
    sizes = tuple(len(piece) for piece in pieces)
    for fingerprint, piece in zip(fingerprints, pieces):
        cache.store(fingerprint, len(piece), piece)

    workload.records = [(fingerprints, sizes, (False,) * len(pieces))]
    workload.verify(deployment)
    assert workload.errors == []

    workload.records = [(fingerprints, sizes, (True,) + (False,) * (len(pieces) - 1))]
    workload.verify(deployment)
    assert "never received" in workload.errors[0]
