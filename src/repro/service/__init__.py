"""Sharded CLAM service layer: routing, batching, clustering, traffic.

This package turns the single-node CLAM data structure into a simulated
key-value *service*: a consistent-hash router places keys on N independent
CLAM shards (each with its own simulated device and clock), a batch executor
amortises dispatch overhead across per-shard sub-batches, a cluster facade
exposes the whole fleet through the familiar single-index interface, and a
closed-loop traffic simulator drives it with M skewed clients.

With ``replication_factor=N`` the cluster survives shard failures: writes
fan out to each key's N-shard preference list, reads fail over (with
read-repair) to surviving replicas, and a
:class:`~repro.service.recovery.RecoveryCoordinator` re-replicates a dead
shard's key ranges onto the survivors along the router's exact handoff arcs.
The cluster also scales *online*: a :class:`KeyMigrator` streams the exact
key-range arcs a membership change moves while traffic continues (double-read
during the move, atomic per-arc cut-over), and an :class:`AutoscalePolicy`
can drive those migrations from live hot-shard and p99 signals.
Faults are injected deterministically at the device layer
(:mod:`repro.flashsim.faults`), either directly or on a request-count
schedule (:class:`FailureEvent`) inside the traffic simulator.

Quick start::

    from repro.service import ClusterService, TrafficSimulator, TrafficSpec

    cluster = ClusterService(num_shards=4, storage="intel-ssd")
    cluster.insert(b"fingerprint-1", b"chunk-address-1")
    assert cluster.lookup(b"fingerprint-1").found

    simulator = TrafficSimulator(cluster, TrafficSpec(num_clients=8, zipf_skew=1.2))
    simulator.warmup()
    report = simulator.run()
    print(report.throughput_ops_per_second, report.hot_shards)

Because :class:`ClusterService` satisfies the same structural
:class:`~repro.workloads.runner.HashIndex` protocol as a single
:class:`~repro.core.clam.CLAM`, every existing driver — the workload runner,
benchmarks and examples — can operate a cluster unchanged.
"""

from repro.service.batch import (
    DISPATCH_OVERHEAD_MS,
    ROUTING_COST_MS,
    BatchExecutor,
    BatchResult,
    ShardBatchStats,
)
from repro.service.chaos import CHAOS_FAULTS, ChaosSchedule, ChaosTransport, derive_seed
from repro.service.cluster import ClusterService, ClusterStats
from repro.service.parallel import ParallelBatchExecutor, ParallelClusterService, RemoteShard
from repro.service.rebalance import (
    ArcState,
    AutoscaleConfig,
    AutoscaleDecision,
    AutoscalePolicy,
    KeyMigrator,
    MigrationArc,
    MigrationReport,
    MigrationState,
    changed_arcs,
)
from repro.service.recovery import RecoveryCoordinator, RecoveryReport
from repro.service.router import RING_SPACE, HandoffStats, ShardRouter
from repro.service.simulator import (
    ClientReport,
    FailureEvent,
    TrafficReport,
    TrafficSimulator,
    TrafficSpec,
)

__all__ = [
    "BatchExecutor",
    "BatchResult",
    "ShardBatchStats",
    "DISPATCH_OVERHEAD_MS",
    "ROUTING_COST_MS",
    "ClusterService",
    "ClusterStats",
    "ParallelBatchExecutor",
    "ParallelClusterService",
    "RemoteShard",
    "CHAOS_FAULTS",
    "ChaosSchedule",
    "ChaosTransport",
    "derive_seed",
    "ShardRouter",
    "HandoffStats",
    "RING_SPACE",
    "TrafficSimulator",
    "TrafficSpec",
    "TrafficReport",
    "ClientReport",
    "FailureEvent",
    "RecoveryCoordinator",
    "RecoveryReport",
    "KeyMigrator",
    "MigrationState",
    "MigrationArc",
    "MigrationReport",
    "ArcState",
    "changed_arcs",
    "AutoscalePolicy",
    "AutoscaleConfig",
    "AutoscaleDecision",
]
