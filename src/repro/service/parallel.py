"""Process-per-shard deployment of the cluster service.

Everything else in this repository runs in one Python thread over simulated
clocks — correct and deterministic, but capped at one core no matter how many
shards the cluster has.  :class:`ParallelClusterService` is the escape hatch:
each shard's CLAM (or :class:`~repro.core.recovery.DurableCLAM` when
``storage="persistent"``) runs in its **own worker process** behind the
length-prefixed binary protocol of :mod:`repro.service.wire`, and the batch
executor's per-shard fanout becomes a true scatter/gather — every worker
chews on its sub-batch concurrently while the parent waits.

The bit-identical results contract
----------------------------------
The in-process :class:`~repro.service.cluster.ClusterService` stays the
default deterministic test path.  The parallel deployment reuses its exact
routing, replication, hint and retry machinery — only the innermost dispatch
hop (:meth:`~repro.service.batch.BatchExecutor._dispatch_round`) is replaced
— and each worker runs the same deterministic CLAM on the same kind of
private :class:`~repro.flashsim.clock.SimulationClock`, advanced by exactly
the amounts the in-process executor would have advanced it (the parent
mirrors each worker clock and ships accrued advances inside batch frames).
Operation results, per-shard counters and simulated clocks are therefore
**bit-identical** between the two modes; ``tests/test_parallel_cluster.py``
enforces the contract and ``benchmarks/bench_parallel_cluster.py`` ratchets
it in CI.

Hash-once stops at the process boundary: the parent hashes each key's ring
position to route it, but only canonical key bytes cross the socket.  A
worker hashes its sub-batch itself, once per distinct key and seed, in one
packed pass (:func:`_handle_batch`).  Digests are value-pure, so where a
key is hashed never changes a result.

Failure model
-------------
A worker that dies (killed, OOM, crashed interpreter) surfaces as
:class:`~repro.core.errors.WorkerDiedError` — a
:class:`~repro.core.errors.DeviceFailedError` subclass — at the next frame,
so every existing layer treats it like a crash-stopped device: the batch
executor fails the sub-batch over to the next live replica, the cluster's
error counters mark the shard down, missed writes become hinted handoffs,
and with ``replication_factor >= 2`` no acknowledged write is lost.  The
supervisor half (:meth:`ParallelClusterService.check_workers` /
:meth:`~ParallelClusterService.restart_worker`) detects dead workers, feeds
them into that same health machinery and respawns them; a persistent shard's
replacement worker reopens the backing file and runs CLAM crash recovery.

Workers are forked, not spawned: sockets, configs and eviction policies are
inherited instead of pickled, and a fork start is ~10x cheaper.  This is a
POSIX-only deployment mode — the deterministic in-process cluster remains
the portable default.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.clam import CLAM
from repro.core.config import CLAMConfig
from repro.core.errors import (
    BufferHashError,
    ConfigurationError,
    DeviceFailedError,
    WireProtocolError,
    WorkerDiedError,
    WorkerStalledError,
)
from repro.core.hashing import (
    BLOOM_SEED_H1,
    BLOOM_SEED_H2,
    CUCKOO_SEED_FIRST,
    CUCKOO_SEED_SECOND,
    PARTITION_SEED,
    KeyDigest,
    key_data,
    prime_digests,
)
from repro.core.recovery import CrashRecoveryReport, DurableCLAM
from repro.flashsim.clock import SimulationClock
from repro.service import wire
from repro.service.batch import BatchExecutor, BatchResult, ShardBatchStats, _count, _Slot
from repro.service.chaos import ChaosSchedule, ChaosTransport, derive_seed
from repro.service.cluster import ClusterService
from repro.telemetry import trace as _trace
from repro.telemetry.registry import MetricsRegistry
from repro.workloads.runner import apply_op
from repro.workloads.workload import OpKind

__all__ = [
    "DEFAULT_REQUEST_DEADLINE_MS",
    "DEFAULT_RETRY_BACKOFF_CAP_MS",
    "DEFAULT_RETRY_BACKOFF_MS",
    "DEFAULT_RETRY_LIMIT",
    "ParallelBatchExecutor",
    "ParallelClusterService",
    "RemoteShard",
]

#: Per-request deadline: how long the parent waits for one worker response
#: before treating the attempt as stalled.  Generous — healthy workers on a
#: socketpair answer in microseconds, so this only fires for genuine hangs.
DEFAULT_REQUEST_DEADLINE_MS = 30_000.0

#: Bounded idempotent retries after a timed-out or corrupted response (the
#: request is resent with the *same* sequence number, so a late answer to an
#: earlier attempt is recognised and discarded, never mis-matched).
DEFAULT_RETRY_LIMIT = 2

#: Exponential backoff between retries, capped so a retry burst under chaos
#: stays well inside one deadline.
DEFAULT_RETRY_BACKOFF_MS = 5.0
DEFAULT_RETRY_BACKOFF_CAP_MS = 50.0

#: Worker exit codes (beyond 0 = clean and the usual -signal values):
#: a desynchronised wire stream, and an unexpected socket error.
WORKER_EXIT_DESYNC = 2
WORKER_EXIT_SOCKET_ERROR = 3


class _MirrorClock:
    """The parent's mirror of one worker's :class:`SimulationClock`.

    The in-process executor charges dispatch/routing overhead to the shard's
    clock *before* the shard runs; in process mode the shard's real clock
    lives in the worker, so the parent accrues those advances here as
    *pending* milliseconds, ships them inside the next batch frame (the
    worker applies them before executing) and folds each worker response's
    clock reading back in.  ``now_ms`` therefore tracks the worker clock
    exactly at every frame boundary, which is what keeps the cluster's
    :class:`~repro.flashsim.clock.ClockEnsemble` readings bit-identical to
    the in-process deployment's.
    """

    __slots__ = ("_now_ms", "_pending_ms")

    def __init__(self) -> None:
        self._now_ms = 0.0
        self._pending_ms = 0.0

    @property
    def now_ms(self) -> float:
        return self._now_ms + self._pending_ms

    @property
    def now_s(self) -> float:
        return self.now_ms / 1000.0

    def advance(self, delta_ms: float) -> float:
        if delta_ms < 0:
            raise ValueError(f"cannot advance clock by negative amount {delta_ms!r}")
        self._pending_ms += delta_ms
        return self.now_ms

    def consume_pending_ms(self) -> float:
        """Pending advances to ship with the next frame (folded into now)."""
        pending = self._pending_ms
        self._now_ms += pending
        self._pending_ms = 0.0
        return pending

    def sync(self, worker_now_ms: float) -> None:
        """Adopt a worker clock reading (monotonic: never rewinds)."""
        if worker_now_ms > self._now_ms:
            self._now_ms = worker_now_ms


# -- Worker process -----------------------------------------------------------------


def _apply_fault(clam: CLAM, mode: str, fault_kwargs: Dict[str, object]) -> None:
    """Worker-side twin of ``ClusterService._inject_fault``."""
    for device in clam.devices:
        if mode == "crash":
            device.faults.crash()
        elif mode == "io-errors":
            device.faults.inject_errors(**fault_kwargs)
        elif mode == "degraded":
            device.faults.degrade(**fault_kwargs)
        elif mode == "power-cut":
            device.faults.crash_after_n_ios(int(fault_kwargs.get("after_n_ios", 1)))
        else:
            raise ConfigurationError(f"unknown fault mode {mode!r}")


#: The seeds every CLAM operation of a worker sub-batch is primed with: the
#: super-table partition, both cuckoo buckets and both Bloom base hashes.
#: The incarnation page seed is left lazy; only a lookup that reaches flash
#: (about one in ten on the benchmark's Zipf workload) needs it.
_PRIMED_SEEDS = (
    PARTITION_SEED,
    CUCKOO_SEED_FIRST,
    CUCKOO_SEED_SECOND,
    BLOOM_SEED_H1,
    BLOOM_SEED_H2,
)


def _handle_batch(clam: CLAM, hash_once: bool, payload: bytes) -> bytes:
    """Execute one batch frame against the worker's CLAM.

    In hash-once mode the sub-batch is hashed up front: one
    :class:`KeyDigest` per distinct key, its :data:`_PRIMED_SEEDS` filled by
    one packed pass (:func:`~repro.core.hashing.prime_digests`).  The
    digests live for this frame only.
    """
    advance_ms, kinds, keys, values = wire.decode_batch_request(payload)
    if advance_ms:
        clam.clock.advance(advance_ms)
    if hash_once:
        digests = {key: KeyDigest(key) for key in dict.fromkeys(keys)}
        prime_digests(digests.values(), _PRIMED_SEEDS)
        op_keys = [digests[key] for key in keys]
    else:
        op_keys = keys
    started_ms = clam.clock.now_ms
    results: List[object] = []
    error_code = wire.ERR_NONE
    message = ""
    for kind, key, value in zip(kinds, op_keys, values):
        try:
            results.append(apply_op(clam, kind, key, value))
        except DeviceFailedError as error:
            error_code = wire.ERR_DEVICE_FAILED
            message = f"{type(error).__name__}: {error}"
            break
        except Exception as error:  # surfaced to the parent as a typed code
            error_code = wire.ERR_UNEXPECTED
            message = f"{type(error).__name__}: {error}"
            break
    busy_ms = clam.clock.now_ms - started_ms
    return wire.encode_batch_response(results, error_code, message, clam.clock.now_ms, busy_ms)


def _handle_control(clam: CLAM, request: Dict[str, object]) -> Dict[str, object]:
    """Low-rate management requests (everything except batches and close)."""
    op = request.get("op")
    if op == "ping":
        return {"ok": True, "pid": os.getpid()}
    if op == "counters":
        return {"ok": True, "counters": clam.counters()}
    if op == "telemetry":
        snapshot = (
            clam.telemetry.snapshot(include_buckets=True) if clam.telemetry is not None else None
        )
        return {"ok": True, "telemetry": snapshot}
    if op == "cpu_time":
        return {"ok": True, "cpu_s": time.process_time()}
    if op == "fault":
        try:
            _apply_fault(clam, str(request.get("mode")), dict(request.get("kwargs") or {}))
        except BufferHashError as error:
            return {"ok": False, "error": str(error)}
        return {"ok": True}
    if op == "heal":
        for device in clam.devices:
            device.faults.heal()
        return {"ok": True}
    if op == "recovery_report":
        report = getattr(clam, "recovery_report", None)
        return {"ok": True, "report": report.to_dict() if report is not None else None}
    return {"ok": False, "error": f"unknown control op {op!r}"}


def _send_fatal(conn: socket.socket, error: Exception) -> None:
    """Best-effort dying words: tell the parent *why* the worker is exiting.

    Sent with sequence number 0 (no request maps to it); the parent's
    response matcher special-cases control frames carrying a ``fatal`` key
    so the reason survives even though the sequence number is stale.
    """
    note = {"ok": False, "fatal": type(error).__name__, "error": str(error)}
    try:
        wire.send_frame(conn, wire.FRAME_CONTROL_RESPONSE, wire.encode_control(note))
    except OSError:  # the stream is already gone; exiting is all that is left
        pass


def _worker_main(
    conn: socket.socket,
    shard_id: str,
    config: CLAMConfig,
    storage: str,
    data_path: Optional[str],
    eviction_policy,
    keep_latency_samples: bool,
) -> None:
    """Entry point of one shard worker: build the CLAM, serve frames, exit.

    The worker owns a private :class:`SimulationClock` and (forked) copies of
    the config and eviction policy; nothing is shared with the parent except
    the socket.  The loop exits on a clean ``close`` control frame or when
    the parent hangs up (EOF), and a persistent CLAM is always closed on the
    way out so an orphaned worker still checkpoints its file.

    Malformed traffic is survived or reported, never amplified: a frame that
    fails its CRC is discarded (framing is intact — the parent's deadline and
    retry path resends it), while a desynchronised stream (garbage length
    prefix or preamble) is unrecoverable, so the worker sends a fatal control
    frame naming the error and exits with :data:`WORKER_EXIT_DESYNC`.
    Genuine socket errors exit with :data:`WORKER_EXIT_SOCKET_ERROR` instead
    of masquerading as a clean parent hang-up.
    """
    _trace.ACTIVE = None  # the parent's tracer must not leak across the fork
    clam: Optional[CLAM] = None
    exit_code = 0
    try:
        try:
            if storage == "persistent":
                existing = data_path and os.path.exists(data_path) and os.path.getsize(data_path)
                clam = DurableCLAM(
                    data_path,
                    config=None if existing else config,
                    clock=SimulationClock(),
                    eviction_policy=eviction_policy,
                    keep_latency_samples=keep_latency_samples,
                    name=shard_id,
                )
            else:
                clam = CLAM(
                    config,
                    storage=storage,
                    clock=SimulationClock(),
                    eviction_policy=eviction_policy,
                    keep_latency_samples=keep_latency_samples,
                )
        except Exception as error:  # tell the parent why the build failed
            hello = {"ok": False, "error": f"{type(error).__name__}: {error}"}
            wire.send_frame(conn, wire.FRAME_CONTROL_RESPONSE, wire.encode_control(hello))
            return
        wire.send_frame(
            conn,
            wire.FRAME_CONTROL_RESPONSE,
            wire.encode_control({"ok": True, "pid": os.getpid()}),
        )
        hash_once = clam.config.use_hash_once
        while True:
            try:
                frame_type, seq, payload = wire.recv_frame(conn)
            except wire.CorruptFrameError:
                # Framing held (sane length, full body) but the bytes are
                # damaged.  Dropping the frame keeps the stream synchronised;
                # the parent's deadline expires and its retry resends.
                continue
            except wire.TruncatedFrameError:
                break  # parent hung up: the clean shutdown path
            except wire.WireProtocolError as error:
                # Desynchronised stream (corrupt length prefix, bad preamble,
                # oversized frame): nothing after this point can be framed.
                _send_fatal(conn, error)
                exit_code = WORKER_EXIT_DESYNC
                break
            except (ConnectionResetError, BrokenPipeError):
                break  # parent died: equivalent to a hang-up
            except OSError as error:
                _send_fatal(conn, error)
                exit_code = WORKER_EXIT_SOCKET_ERROR
                break
            try:
                if frame_type == wire.FRAME_BATCH_REQUEST:
                    response = _handle_batch(clam, hash_once, payload)
                    wire.send_frame(conn, wire.FRAME_BATCH_RESPONSE, response, seq=seq)
                elif frame_type == wire.FRAME_CONTROL_REQUEST:
                    request = wire.decode_control(payload)
                    if request.get("op") == "close":
                        reply: Dict[str, object] = {"ok": True}
                        if isinstance(clam, DurableCLAM):
                            try:
                                clam.close()
                            except Exception as error:
                                reply = {
                                    "ok": False,
                                    "error": f"{type(error).__name__}: {error}",
                                }
                        wire.send_frame(
                            conn, wire.FRAME_CONTROL_RESPONSE, wire.encode_control(reply), seq=seq
                        )
                        break
                    reply = _handle_control(clam, request)
                    wire.send_frame(
                        conn, wire.FRAME_CONTROL_RESPONSE, wire.encode_control(reply), seq=seq
                    )
                else:  # pragma: no cover - recv_frame validates frame types
                    break
            except OSError:
                break  # parent vanished mid-response
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        if isinstance(clam, DurableCLAM) and not clam.closed:
            try:
                clam.close()
            except Exception:  # pragma: no cover - dead device at exit
                pass
    if exit_code:
        sys.exit(exit_code)


# -- Parent-side shard proxy --------------------------------------------------------


class RemoteShard:
    """Parent-side proxy for one shard worker process.

    Satisfies everything :class:`~repro.service.cluster.ClusterService`
    needs from a shard — the ``HashIndex`` methods (as one-operation batch
    frames, so single ops and batches share one code path and one clock
    policy), ``counters()``, a ``clock`` for the cluster ensemble, and
    ``close()`` — plus the batch scatter/gather halves used by
    :class:`ParallelBatchExecutor` and the fault/telemetry controls.

    Transport failures (EOF, broken pipe) mark the proxy dead and raise
    :class:`~repro.core.errors.WorkerDiedError` so callers handle a dead
    worker exactly like a crash-stopped device.  Gray failures are bounded
    too: every request carries a deadline (``request_deadline_ms``) enforced
    with socket timeouts, a timed-out or CRC-corrupted response is retried
    up to ``retry_limit`` times with capped exponential backoff (the resend
    reuses the request's sequence number, so a late answer to an earlier
    attempt is discarded rather than mis-matched), and once retries are
    exhausted the proxy opens its circuit — marks itself dead and raises
    :class:`~repro.core.errors.WorkerStalledError` — so a hung worker feeds
    the exact same supervisor/replication machinery as a dead one.
    """

    def __init__(
        self,
        shard_id: str,
        ctx,
        config: CLAMConfig,
        storage: str,
        data_path: Optional[str] = None,
        eviction_policy=None,
        keep_latency_samples: bool = True,
        request_deadline_ms: float = DEFAULT_REQUEST_DEADLINE_MS,
        retry_limit: int = DEFAULT_RETRY_LIMIT,
        retry_backoff_ms: float = DEFAULT_RETRY_BACKOFF_MS,
        retry_backoff_cap_ms: float = DEFAULT_RETRY_BACKOFF_CAP_MS,
        on_event: Optional[Callable[..., None]] = None,
    ) -> None:
        if request_deadline_ms <= 0:
            raise ConfigurationError("request_deadline_ms must be positive")
        if retry_limit < 0:
            raise ConfigurationError("retry_limit must be non-negative")
        self.shard_id = shard_id
        self.config = config
        self.storage = storage
        self.data_path = data_path
        self.request_deadline_ms = float(request_deadline_ms)
        self.retry_limit = int(retry_limit)
        self.retry_backoff_ms = float(retry_backoff_ms)
        self.retry_backoff_cap_ms = float(retry_backoff_cap_ms)
        #: RPC-resilience event hook: ``on_event(kind, **attributes)`` fires
        #: for ``rpc_timeout`` / ``rpc_retry`` / ``worker_stalled``.  The
        #: cluster wires it to its EventLog and per-shard counters.
        self.on_event = on_event
        self.clock = _MirrorClock()
        #: Always ``None``: the worker's registry lives in the worker; fetch a
        #: mergeable copy with :meth:`telemetry_registry`.  The attribute keeps
        #: in-process consumers (stats, autoscaler) working via their existing
        #: ``telemetry is None`` guards.
        self.telemetry = None
        self._ctx = ctx
        self._eviction_policy = eviction_policy
        self._keep_latency_samples = keep_latency_samples
        self._sock: Optional[socket.socket] = None
        self.process = None
        self._dead = False
        self._closed = False
        self._seq = 0
        self._inflight: Optional[Tuple[int, int, bytes]] = None
        self._inflight_keys: List[bytes] = []
        self._spawn()

    def _spawn(self) -> None:
        parent_sock, child_sock = socket.socketpair()
        self.process = self._ctx.Process(
            target=_worker_main,
            args=(
                child_sock,
                self.shard_id,
                self.config,
                self.storage,
                self.data_path,
                self._eviction_policy,
                self._keep_latency_samples,
            ),
            name=f"clam-worker-{self.shard_id}",
            daemon=True,
        )
        self.process.start()
        child_sock.close()
        self._sock = parent_sock
        self._dead = False
        self._closed = False
        self._seq = 0
        self._inflight = None
        hello = wire.decode_control(self._recv_plain(wire.FRAME_CONTROL_RESPONSE))
        if not hello.get("ok"):
            self.process.join(timeout=10.0)
            raise ConfigurationError(
                f"worker for shard {self.shard_id!r} failed to start: {hello.get('error')}"
            )

    # -- Liveness ----------------------------------------------------------------------

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    @property
    def alive(self) -> bool:
        """Whether the worker process can still serve frames."""
        return (
            not self._dead
            and not self._closed
            and self.process is not None
            and self.process.is_alive()
        )

    # -- Transport ---------------------------------------------------------------------

    def _mark_dead(self, error: Exception, action: str) -> WorkerDiedError:
        self._dead = True
        return WorkerDiedError(
            f"worker for shard {self.shard_id!r} died ({action}: {type(error).__name__}: {error})"
        )

    def _event(self, kind: str, **attributes) -> None:
        if self.on_event is not None:
            self.on_event(kind, **attributes)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _send(self, frame_type: int, payload: bytes, seq: int) -> None:
        if self._sock is None or self._dead or self._closed:
            raise WorkerDiedError(f"worker for shard {self.shard_id!r} is not running")
        try:
            wire.send_frame(self._sock, frame_type, payload, seq=seq)
        except OSError as error:
            raise self._mark_dead(error, "send") from error

    def _recv_plain(self, expected_type: int) -> bytes:
        """Blocking receive with no sequence matching — the hello handshake
        only (a persistent worker may legitimately spend a while in crash
        recovery before it can greet)."""
        if self._sock is None:
            raise WorkerDiedError(f"worker for shard {self.shard_id!r} is not running")
        try:
            frame_type, _seq, payload = wire.recv_frame(self._sock)
        except (wire.TruncatedFrameError, OSError) as error:
            raise self._mark_dead(error, "recv") from error
        if frame_type != expected_type:
            raise WireProtocolError(
                f"worker for shard {self.shard_id!r} sent frame type {frame_type}, "
                f"expected {expected_type}"
            )
        return payload

    def _recv_matching(self, expected_type: int, seq: int, timeout_s: float) -> bytes:
        """One response frame with the right sequence number, within a deadline.

        Stale frames — duplicates injected by the transport, or late answers
        to a request an earlier attempt (or an abandoned hedge) already gave
        up on — are silently discarded; a control frame carrying a ``fatal``
        key is the worker's dying words and raises
        :class:`~repro.core.errors.WorkerDiedError` with the reported reason
        regardless of its sequence number.  Raises ``TimeoutError`` when the
        deadline expires and :class:`~repro.service.wire.CorruptFrameError`
        on a CRC mismatch; both are the caller's retry currency.  EOF and
        genuine socket errors mark the proxy dead.
        """
        if self._sock is None:
            raise WorkerDiedError(f"worker for shard {self.shard_id!r} is not running")
        sock = self._sock
        deadline = time.monotonic() + timeout_s
        try:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise socket.timeout(
                        f"no response from shard {self.shard_id!r} within {timeout_s * 1000:g} ms"
                    )
                sock.settimeout(remaining)
                try:
                    frame_type, frame_seq, payload = wire.recv_frame(sock)
                except (wire.TruncatedFrameError, OSError) as error:
                    if isinstance(error, TimeoutError):
                        raise
                    raise self._mark_dead(error, "recv") from error
                if frame_type == wire.FRAME_CONTROL_RESPONSE and frame_seq != seq:
                    try:
                        note = wire.decode_control(payload)
                    except WireProtocolError:
                        continue  # stale and unreadable: drop it
                    if note.get("fatal"):
                        error = WireProtocolError(
                            f"worker reported fatal {note.get('fatal')}: {note.get('error')}"
                        )
                        raise self._mark_dead(error, "fatal") from error
                    continue  # stale control response from an abandoned request
                if frame_seq != seq:
                    continue  # duplicate or late answer to an earlier attempt
                if frame_type != expected_type:
                    raise WireProtocolError(
                        f"worker for shard {self.shard_id!r} sent frame type {frame_type}, "
                        f"expected {expected_type}"
                    )
                return payload
        finally:
            try:
                sock.settimeout(None)
            except OSError:  # pragma: no cover - socket died mid-conversation
                pass

    def _await_response(
        self,
        seq: int,
        frame_type: int,
        payload: bytes,
        expected_type: int,
        timeout_s: Optional[float] = None,
        attempts: Optional[int] = None,
    ) -> bytes:
        """Deadline + bounded-retry response wait (the request was already sent).

        Retryable failures — a missed deadline, a corrupted response — resend
        the identical frame (same sequence number: operations are idempotent
        re-sends, and a late original answer is discarded by the matcher).
        Exhausting the budget opens the circuit: the proxy is marked dead so
        the supervisor restarts the worker, and the caller gets
        :class:`~repro.core.errors.WorkerStalledError` (deadline) or
        :class:`~repro.core.errors.WorkerDiedError` (unrecoverable
        corruption), both :class:`~repro.core.errors.DeviceFailedError`
        subclasses feeding replica failover and hinted handoff.
        """
        timeout_s = self.request_deadline_ms / 1000.0 if timeout_s is None else timeout_s
        attempts = self.retry_limit + 1 if attempts is None else attempts
        backoff_s = self.retry_backoff_ms / 1000.0
        cap_s = self.retry_backoff_cap_ms / 1000.0
        last_error: Optional[Exception] = None
        reason = ""
        for attempt in range(attempts):
            if attempt:
                self._event("rpc_retry", attempt=attempt, reason=reason)
                time.sleep(backoff_s)
                backoff_s = min(backoff_s * 2.0, cap_s)
                self._send(frame_type, payload, seq)
            try:
                return self._recv_matching(expected_type, seq, timeout_s)
            except TimeoutError as error:
                last_error, reason = error, "timeout"
                self._event("rpc_timeout", attempt=attempt)
            except wire.CorruptFrameError as error:
                last_error, reason = error, "corrupt"
        self._dead = True  # circuit open: no more frames until a restart
        self._event("worker_stalled", reason=reason, attempts=attempts)
        if reason == "corrupt":
            raise WorkerDiedError(
                f"worker for shard {self.shard_id!r} returned corrupt frames "
                f"through {attempts} attempt(s)"
            ) from last_error
        raise WorkerStalledError(
            f"worker for shard {self.shard_id!r} missed its "
            f"{timeout_s * 1000:g} ms deadline {attempts} time(s)"
        ) from last_error

    # -- Batch scatter/gather ----------------------------------------------------------

    def send_batch(
        self,
        operations: List[Tuple[OpKind, object, bytes]],
        extra_advance_ms: float = 0.0,
    ) -> None:
        """Scatter half: ship one batch frame (pending clock advances ride along)."""
        if extra_advance_ms:
            self.clock.advance(extra_advance_ms)
        advance_ms = self.clock.consume_pending_ms()
        payload = wire.encode_batch_request(advance_ms, operations)
        seq = self._next_seq()
        self._inflight = (seq, wire.FRAME_BATCH_REQUEST, payload)
        # The response does not echo keys; its records get them from here.
        self._inflight_keys = [key_data(key) for _, key, _ in operations]
        self._send(wire.FRAME_BATCH_REQUEST, payload, seq)

    def recv_batch(
        self,
        probe_timeout_ms: Optional[float] = None,
        probe: bool = False,
    ) -> Tuple[List[object], int, str, float]:
        """Gather half: returns ``(results, error_code, message, busy_ms)``.

        ``probe=True`` is the hedged-read mode: one attempt with
        ``probe_timeout_ms`` as the deadline, no retries, no circuit-opening
        — a miss raises :class:`~repro.core.errors.WorkerStalledError` while
        leaving the worker marked alive, and the executor reroutes the
        lookups to another replica (the abandoned response is discarded by
        sequence number on the next exchange).
        """
        if self._inflight is None:
            raise WireProtocolError(f"no batch in flight for shard {self.shard_id!r}")
        seq, frame_type, payload = self._inflight
        if probe:
            timeout_ms = (
                probe_timeout_ms if probe_timeout_ms is not None else self.request_deadline_ms
            )
            try:
                response = self._recv_matching(
                    wire.FRAME_BATCH_RESPONSE, seq, timeout_ms / 1000.0
                )
            except TimeoutError as error:
                raise WorkerStalledError(
                    f"shard {self.shard_id!r} missed the {timeout_ms:g} ms hedge window"
                ) from error
            except wire.CorruptFrameError as error:
                raise WorkerStalledError(
                    f"shard {self.shard_id!r} returned a corrupt frame in the hedge window"
                ) from error
        else:
            response = self._await_response(seq, frame_type, payload, wire.FRAME_BATCH_RESPONSE)
        self._inflight = None
        results, error_code, message, clock_ms, busy_ms = wire.decode_batch_response(
            response, self._inflight_keys
        )
        self.clock.sync(clock_ms)
        return results, error_code, message, busy_ms

    def _one(self, kind: OpKind, key, value: bytes):
        self.send_batch([(kind, key, value)])
        results, error_code, message, _busy_ms = self.recv_batch()
        wire.raise_for_code(error_code, f"shard {self.shard_id}: {message}")
        return results[0]

    # -- HashIndex interface -----------------------------------------------------------

    def lookup(self, key):
        return self._one(OpKind.LOOKUP, key, b"")

    def insert(self, key, value):
        return self._one(OpKind.INSERT, key, value)

    def update(self, key, value):
        return self._one(OpKind.UPDATE, key, value)

    def delete(self, key):
        return self._one(OpKind.DELETE, key, b"")

    # -- Controls ----------------------------------------------------------------------

    def _control(
        self,
        request: Dict[str, object],
        timeout_s: Optional[float] = None,
        attempts: Optional[int] = None,
    ) -> Dict[str, object]:
        payload = wire.encode_control(request)
        seq = self._next_seq()
        self._send(wire.FRAME_CONTROL_REQUEST, payload, seq)
        response = self._await_response(
            seq,
            wire.FRAME_CONTROL_REQUEST,
            payload,
            wire.FRAME_CONTROL_RESPONSE,
            timeout_s=timeout_s,
            attempts=attempts,
        )
        return wire.decode_control(response)

    def counters(self) -> Dict[str, float]:
        reply = self._control({"op": "counters"})
        return {name: float(value) for name, value in reply["counters"].items()}

    def telemetry_registry(self) -> Optional[MetricsRegistry]:
        """A mergeable copy of the worker's metrics registry (or ``None``)."""
        snapshot = self._control({"op": "telemetry"}).get("telemetry")
        return MetricsRegistry.from_snapshot(snapshot) if snapshot is not None else None

    def cpu_seconds(self) -> float:
        """CPU time the worker process has consumed (its ``process_time``)."""
        return float(self._control({"op": "cpu_time"})["cpu_s"])

    def inject_fault(self, mode: str, fault_kwargs: Dict[str, object]) -> None:
        reply = self._control({"op": "fault", "mode": mode, "kwargs": dict(fault_kwargs)})
        if not reply.get("ok"):
            raise ConfigurationError(str(reply.get("error", "fault injection failed")))

    def heal(self) -> None:
        self._control({"op": "heal"})

    @property
    def recovery_report(self) -> Optional[CrashRecoveryReport]:
        """The worker CLAM's crash-recovery report (persistent shards only)."""
        data = self._control({"op": "recovery_report"}).get("report")
        return CrashRecoveryReport(**data) if data is not None else None

    # -- Lifecycle ---------------------------------------------------------------------

    def kill(self) -> None:
        """SIGKILL the worker — the crash-drill hook.  No clean close, no
        checkpoint: exactly what a machine failure looks like."""
        self._dead = True
        if self.process is not None and self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=10.0)

    def shutdown(self, timeout_s: float = 10.0) -> None:
        """Cleanly stop the worker (idempotent), escalating on a hang.

        A live worker is asked to close over the wire — a persistent CLAM
        flushes and checkpoints before the ack — then reaped; a dead one is
        just reaped.  Every stage is bounded by ``timeout_s``: the close
        exchange runs under it as a single-attempt deadline (a wedged worker
        surfaces as :class:`~repro.core.errors.WorkerStalledError` instead
        of blocking forever), and if ``process.join`` then expires the worker
        is SIGKILLed and reaped — a hung worker can never stall
        ``ParallelClusterService.close()`` past its budget.  Raises
        :class:`~repro.core.errors.WireProtocolError` when the worker reports
        its close failed, or the stall/death error when the exchange could
        not complete (in every case after the socket is closed and the
        process reaped, so nothing leaks either way).
        """
        if self._closed:
            return
        failure: Optional[Exception] = None
        try:
            if not self._dead and self.process is not None and self.process.is_alive():
                try:
                    reply = self._control({"op": "close"}, timeout_s=timeout_s, attempts=1)
                    if not reply.get("ok"):
                        failure = WireProtocolError(
                            f"shard {self.shard_id!r} failed to close cleanly: "
                            f"{reply.get('error')}"
                        )
                except (DeviceFailedError, WireProtocolError) as error:
                    failure = failure or error
        finally:
            self._closed = True
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass
                self._sock = None
            if self.process is not None:
                self.process.join(timeout=timeout_s)
                if self.process.is_alive():
                    # Escalate: a worker that ignored (or never saw) the close
                    # and outlived its join budget is killed and reaped.
                    # SIGKILL works on stopped processes too, so even a
                    # SIGSTOP-frozen worker cannot leak past here.
                    self.process.kill()
                    self.process.join()
        if failure is not None:
            raise failure

    def close(self) -> None:
        """Alias for :meth:`shutdown` (the shard-side close interface)."""
        self.shutdown()


# -- Scatter/gather executor --------------------------------------------------------


class ParallelBatchExecutor(BatchExecutor):
    """The batch executor's per-shard fanout as a true scatter/gather.

    Only :meth:`_dispatch_round` changes relative to the base class: every
    shard's sub-batch frame is sent before any response is read, so the
    worker processes execute concurrently and a round's wall-clock cost is
    the *slowest* worker rather than the sum.  Routing, replica failover,
    retry and accounting are inherited unchanged — the same slots, the same
    hooks, the same stats — which is what keeps process-mode results
    bit-identical to the in-process executor's.

    Managed mode is required (a live view must drive failover): a worker
    death has to be survivable, and only the managed re-route machinery can
    move its slots to another replica.

    With ``hedge_delay_ms`` set and ``replication_factor >= 2``, all-lookup
    sub-batches are *hedged*: the gather half waits only the hedge window
    for the primary's response, and on a miss abandons it (without marking
    the shard failed — slow is not dead) and re-dispatches the lookups to
    the next untried live replica through the normal re-route machinery.
    The abandoned response is discarded by sequence number when it finally
    arrives.  Only groups where every slot has such an alternative are
    hedged, so a hedge can never manufacture a
    :class:`~repro.core.errors.ShardUnavailableError`.
    """

    def __init__(
        self,
        *args,
        hedge_delay_ms: Optional[float] = None,
        on_rpc_event: Optional[Callable[..., None]] = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if not self.managed:
            raise ConfigurationError(
                "ParallelBatchExecutor requires managed mode (an is_live hook); "
                "stand-alone batches belong on the in-process BatchExecutor"
            )
        if hedge_delay_ms is not None and hedge_delay_ms <= 0:
            raise ConfigurationError("hedge_delay_ms must be positive (or None to disable)")
        self.hedge_delay_ms = hedge_delay_ms
        self._on_rpc_event = on_rpc_event

    def _rpc_event(self, kind: str, **attributes) -> None:
        if self._on_rpc_event is not None:
            self._on_rpc_event(kind, **attributes)

    def _hedgeable(self, slots: List[_Slot]) -> bool:
        """Whether one sub-batch qualifies for a hedged read.

        Requires: hedging enabled, RF >= 2, every slot a lookup (writes are
        never hedged — a duplicated write still lands, but hedging buys
        nothing and doubles device work), and every slot having at least one
        live, untried replica to fail over to.
        """
        if self.hedge_delay_ms is None or self.replication_factor < 2:
            return False
        for slot in slots:
            if slot.operation.kind is not OpKind.LOOKUP:
                return False
            if self._targets_for is not None:
                replicas = self._targets_for(slot.key, slot.operation.kind)
            else:
                replicas = self.router.preference_list(slot.key, self.replication_factor)
            if not any(
                replica not in slot.attempted
                and replica in self.shards
                and self._is_live(replica)
                for replica in replicas
            ):
                return False
        return True

    def _dispatch_round(
        self, groups: Dict[str, List[_Slot]], batch: BatchResult
    ) -> List[_Slot]:
        failed_slots: List[_Slot] = []
        in_flight: List[Tuple[str, RemoteShard, List[_Slot], ShardBatchStats, float]] = []

        # Scatter: one frame per shard, no waiting in between.
        for shard_id, slots in groups.items():
            shard = self.shards.get(shard_id)
            for slot in slots:
                slot.attempted.add(shard_id)
            if shard is None:
                # Removed between routing and execution; managed mode re-routes.
                self._fail_group(shard_id, slots, batch, failed_slots, missed_writes=False)
                continue
            stats = ShardBatchStats(shard_id=shard_id)
            stats.dispatch_ms = self.dispatch_overhead_ms
            stats.routing_ms = self.routing_cost_ms * len(slots)
            operations = [(slot.operation.kind, slot.key, slot.operation.value) for slot in slots]
            try:
                shard.send_batch(operations, extra_advance_ms=stats.dispatch_ms + stats.routing_ms)
            except DeviceFailedError:
                self._fail_group(shard_id, slots, batch, failed_slots, missed_writes=True)
                continue
            in_flight.append((shard_id, shard, slots, stats, shard.clock.now_ms))

        # Gather: read responses in dispatch order.  Workers kept computing
        # while we were still scattering and while earlier responses were
        # being folded in — that overlap is the whole point.
        for shard_id, shard, slots, stats, started_ms in in_flight:
            try:
                if self._hedgeable(slots):
                    try:
                        results, error_code, message, busy_ms = shard.recv_batch(
                            probe_timeout_ms=self.hedge_delay_ms, probe=True
                        )
                    except WorkerStalledError:
                        # Slow, not dead: abandon the primary without marking
                        # it failed and reroute the lookups to a replica.
                        self._rpc_event("hedge_fired", shard=shard_id, operations=len(slots))
                        failed_slots.extend(slots)
                        continue
                else:
                    results, error_code, message, busy_ms = shard.recv_batch()
            except DeviceFailedError:
                # Killed mid-batch: no response, so none of its slots ran.
                self._fail_group(shard_id, slots, batch, failed_slots, missed_writes=True)
                continue
            if error_code == wire.ERR_UNEXPECTED:
                raise WireProtocolError(f"shard {shard_id}: {message}")
            tracer = _trace.ACTIVE
            span = None
            if tracer is not None:
                span = tracer.begin(
                    "shard.batch", shard.clock, shard=shard_id, operations=len(slots)
                )
                span.start_ms = started_ms  # the frame was sent back then
            stats.busy_ms = busy_ms
            for slot, result in zip(slots, results):
                if slot.primary:
                    batch.results[slot.index] = result
                elif batch.results[slot.index] is None:
                    batch.results[slot.index] = result
                stats.operations += 1
                _count(stats, slot.operation.kind, result)
            leftover = slots[len(results) :]
            if error_code == wire.ERR_DEVICE_FAILED or leftover:
                self._notify_failure(shard_id)
                for pending in leftover:
                    if (
                        pending.operation.kind is not OpKind.LOOKUP
                        and self._on_missed_write is not None
                    ):
                        self._on_missed_write(shard_id, pending.key)
                if shard_id not in batch.failed_shards:
                    batch.failed_shards.append(shard_id)
                failed_slots.extend(leftover)
            if span is not None:
                if leftover:
                    span.attributes["failed"] = True
                    span.attributes["operations_completed"] = stats.operations
                tracer.end(span, shard.clock)
            self._merge_shard_stats(batch, stats)
        return failed_slots

    def _fail_group(
        self,
        shard_id: str,
        slots: List[_Slot],
        batch: BatchResult,
        failed_slots: List[_Slot],
        missed_writes: bool,
    ) -> None:
        """One shard's whole sub-batch failed before (or without) a response."""
        self._notify_failure(shard_id)
        if missed_writes and self._on_missed_write is not None:
            for slot in slots:
                if slot.operation.kind is not OpKind.LOOKUP:
                    self._on_missed_write(shard_id, slot.key)
        if shard_id not in batch.failed_shards:
            batch.failed_shards.append(shard_id)
        failed_slots.extend(slots)


# -- The process-per-shard cluster --------------------------------------------------


class ParallelClusterService(ClusterService):
    """:class:`~repro.service.cluster.ClusterService` with one process per shard.

    Same constructor, same interface, same results (see the module docstring
    for the contract); additionally exposes the supervisor surface —
    :meth:`check_workers`, :meth:`restart_worker`, :meth:`kill_worker` — and
    per-worker CPU accounting for the scaling benchmark.  Always ``close()``
    it (or use it as a context manager): worker processes are daemonic, so
    they die with the parent, but only a clean close checkpoints persistent
    shards.
    """

    def __init__(
        self,
        *args,
        start_method: str = "fork",
        request_deadline_ms: float = DEFAULT_REQUEST_DEADLINE_MS,
        retry_limit: int = DEFAULT_RETRY_LIMIT,
        retry_backoff_ms: float = DEFAULT_RETRY_BACKOFF_MS,
        retry_backoff_cap_ms: float = DEFAULT_RETRY_BACKOFF_CAP_MS,
        hedge_delay_ms: Optional[float] = None,
        **kwargs,
    ) -> None:
        if start_method != "fork":
            raise ConfigurationError(
                "process-per-shard workers require the fork start method "
                "(sockets, configs and eviction policies are inherited, not pickled)"
            )
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigurationError(
                "this platform cannot fork; use the in-process ClusterService"
            )
        self._ctx = multiprocessing.get_context("fork")
        # RPC-resilience knobs, consumed by _build_shard/_build_executor —
        # which run during super().__init__, so they must be set first.
        self.request_deadline_ms = float(request_deadline_ms)
        self.retry_limit = int(retry_limit)
        self.retry_backoff_ms = float(retry_backoff_ms)
        self.retry_backoff_cap_ms = float(retry_backoff_cap_ms)
        self.hedge_delay_ms = hedge_delay_ms
        self._chaos: Optional[Tuple[ChaosSchedule, int]] = None
        super().__init__(*args, **kwargs)

    # -- Hook overrides ----------------------------------------------------------------

    def _build_shard(self, shard_id: str) -> RemoteShard:
        if shard_id in self.shards:
            raise ConfigurationError(f"shard {shard_id!r} already exists")
        data_path = self.shard_path(shard_id) if self.storage == "persistent" else None
        shard = RemoteShard(
            shard_id,
            self._ctx,
            self.config,
            self.storage,
            data_path=data_path,
            eviction_policy=self._eviction_policy,
            keep_latency_samples=self._keep_latency_samples,
            request_deadline_ms=self.request_deadline_ms,
            retry_limit=self.retry_limit,
            retry_backoff_ms=self.retry_backoff_ms,
            retry_backoff_cap_ms=self.retry_backoff_cap_ms,
        )
        shard.on_event = self._shard_event_hook(shard_id)
        if self._chaos is not None:
            self._wrap_with_chaos(shard_id, shard)
        self.shards[shard_id] = shard
        self.clock.add(shard.clock)
        return shard

    def _build_executor(self, dispatch_overhead_ms: float, routing_cost_ms: float):
        return ParallelBatchExecutor(
            self.router,
            self.shards,
            dispatch_overhead_ms=dispatch_overhead_ms,
            routing_cost_ms=routing_cost_ms,
            hash_once=self.config.use_hash_once,
            replication_factor=self.replication_factor,
            is_live=self.is_live,
            on_shard_error=self.record_shard_error,
            on_missed_write=self._record_hint,
            targets_for=self._op_replicas,
            hedge_delay_ms=self.hedge_delay_ms,
            on_rpc_event=self._record_rpc_event,
        )

    # -- RPC-resilience events ---------------------------------------------------------

    def _shard_event_hook(self, shard_id: str) -> Callable[..., None]:
        def hook(kind: str, **attributes) -> None:
            self._record_rpc_event(kind, shard=shard_id, **attributes)

        return hook

    def _record_rpc_event(self, kind: str, shard: str, **attributes) -> None:
        """One RPC-resilience event (``chaos_injected`` / ``rpc_timeout`` /
        ``rpc_retry`` / ``hedge_fired`` / ``worker_stalled``): logged to the
        EventLog and counted per shard.  Counters are created lazily, so a
        fault-free run registers nothing — keeping the chaos-off telemetry
        snapshot bit-identical to the in-process cluster's.
        """
        self.events.record(kind, shard=shard, **attributes)
        if self.telemetry is not None:
            self.telemetry.counter(f"rpc.{kind}").inc()
            self.telemetry.counter(f"rpc.{kind}.{shard}").inc()

    # -- Chaos injection ---------------------------------------------------------------

    def _wrap_with_chaos(self, shard_id: str, shard: RemoteShard) -> None:
        schedule, base_seed = self._chaos

        def on_inject(fault: str, direction: str, frame: int) -> None:
            self._record_rpc_event(
                "chaos_injected", shard=shard_id, fault=fault, direction=direction, frame=frame
            )

        shard._sock = ChaosTransport(
            shard._sock,
            schedule,
            seed=derive_seed(base_seed, shard_id),
            on_inject=on_inject,
        )

    def install_chaos(self, schedule: ChaosSchedule, seed: int = 0) -> None:
        """Slide a :class:`~repro.service.chaos.ChaosTransport` under every
        worker socket (and under every future replacement worker's, until
        :meth:`clear_chaos`).  Per-shard seeds derive deterministically from
        ``seed``, so one integer replays one cluster-wide fault history.
        """
        self._chaos = (schedule, seed)
        for shard_id, shard in self.shards.items():
            if shard._sock is not None and not isinstance(shard._sock, ChaosTransport):
                self._wrap_with_chaos(shard_id, shard)

    def clear_chaos(self) -> None:
        """Remove every chaos wrapper (buffered, un-faulted bytes included —
        frames swallowed by a hang stay lost, exactly like a real outage)."""
        self._chaos = None
        for shard in self.shards.values():
            if isinstance(shard._sock, ChaosTransport):
                shard._sock = shard._sock.raw

    def _inject_fault(self, shard_id: str, mode: str, fault_kwargs: Dict[str, object]) -> None:
        self.shards[shard_id].inject_fault(mode, fault_kwargs)

    def _heal_devices(self, shard_id: str) -> None:
        self.shards[shard_id].heal()

    def _close_shard(self, shard: RemoteShard) -> None:
        shard.shutdown()

    def _shard_registries(self) -> Dict[str, MetricsRegistry]:
        """Per-worker registries, fetched over the wire and rebuilt mergeable.

        Dead workers are skipped (their samples died with them — exactly like
        a crashed server's scrape target going away); everything that answers
        merges bit-exactly thanks to the bucket-preserving snapshots.
        """
        registries: Dict[str, MetricsRegistry] = {}
        for shard_id, shard in self.shards.items():
            if not shard.alive:
                continue
            try:
                registry = shard.telemetry_registry()
            except DeviceFailedError:
                continue
            if registry is not None:
                registries[shard_id] = registry
        return registries

    # -- Supervisor --------------------------------------------------------------------

    def check_workers(self) -> List[str]:
        """Detect dead workers and feed them into the health machinery.

        Every dead-but-not-yet-down worker is recorded as a ``worker_died``
        event and pushed through :meth:`record_shard_error` until the shard
        is marked down (so routing immediately avoids it).  Returns the
        newly-detected shard ids.  Callers run this periodically — or rely on
        the lazy path: any frame to a dead worker raises
        :class:`~repro.core.errors.WorkerDiedError`, which feeds the same
        counters through the executor's failure hooks.
        """
        died: List[str] = []
        for shard_id, shard in self.shards.items():
            if shard.alive or shard._closed or shard_id in self._down:
                continue
            exitcode = shard.process.exitcode if shard.process is not None else None
            self.events.record("worker_died", shard=shard_id, pid=shard.pid, exitcode=exitcode)
            while shard_id not in self._down:
                self.record_shard_error(shard_id)
            died.append(shard_id)
        return died

    def kill_worker(self, shard_id: str) -> None:
        """SIGKILL one shard's worker (the crash drill used by tests/benches).

        Only injects the failure — detection and recovery go through the
        normal machinery (:meth:`check_workers` or the next frame's
        :class:`~repro.core.errors.WorkerDiedError`).
        """
        shard = self.shards.get(shard_id)
        if shard is None:
            raise ConfigurationError(f"shard {shard_id!r} not present")
        pid = shard.pid
        shard.kill()
        self.events.record("worker_killed", shard=shard_id, pid=pid)

    def restart_worker(self, shard_id: str) -> Optional[CrashRecoveryReport]:
        """Respawn the worker for one shard and rejoin it to the cluster.

        A persistent shard's replacement worker reopens the backing file and
        runs CLAM crash recovery (the report is returned); a volatile shard
        comes back empty and relies on ``replication_factor >= 2`` —
        read-repair and the hinted-handoff replay below restore its keys
        lazily, exactly like :meth:`heal_shard` after a device crash.
        """
        shard = self.shards.get(shard_id)
        if shard is None:
            raise ConfigurationError(f"shard {shard_id!r} not present")
        shard.kill()
        self.clock.remove(shard.clock)
        del self.shards[shard_id]
        replacement = self._build_shard(shard_id)
        self._errors.pop(shard_id, None)
        self._down.discard(shard_id)
        report = replacement.recovery_report if self.storage == "persistent" else None
        self.events.record(
            "worker_restarted",
            shard=shard_id,
            pid=replacement.pid,
            crash_recovered=bool(report is not None and not report.clean_shutdown),
        )
        self._replay_hints_for(shard_id)
        return report

    # -- Accounting --------------------------------------------------------------------

    def worker_pids(self) -> Dict[str, Optional[int]]:
        """Current worker process id per shard."""
        return {shard_id: shard.pid for shard_id, shard in self.shards.items()}

    def worker_cpu_seconds(self) -> Dict[str, float]:
        """CPU seconds each live worker has consumed (benchmark accounting)."""
        cpu: Dict[str, float] = {}
        for shard_id, shard in self.shards.items():
            if not shard.alive:
                continue
            try:
                cpu[shard_id] = shard.cpu_seconds()
            except DeviceFailedError:
                continue
        return cpu
