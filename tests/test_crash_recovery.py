"""CLAM crash recovery: power cuts at every I/O boundary lose no acknowledged write.

The acknowledged-write contract under test:

* a write is **acknowledged** once the incarnation flush containing it
  completed — after a crash, every item of every incarnation the (crashed)
  CLAM still listed must be readable from the reopened CLAM;
* writes still buffered in DRAM (including a flush the power cut tore) are
  **not** acknowledged and may be lost — the reopened CLAM reports this via
  ``recovery_report.may_have_lost_buffered_writes``.

The sweep test drives the same deterministic workload with a power cut armed
at I/O unit 1, 2, 3, ... n for every reachable n, covering cuts inside
streaming incarnation writes (torn pages), inside block erases (interrupted
erases), inside checkpoint writes and on reads.
"""

import json
import os

import pytest

from repro.core import CLAMConfig, DurableCLAM, PowerLossError
from repro.core.durable import SUPERBLOCK_MAGIC
from repro.core.errors import ConfigurationError, DeviceFailedError
from repro.core.hashing import key_data
from repro.core.incarnation import iter_page_entries
from repro.flashsim.device import DeviceGeometry
from repro.flashsim.faults import FaultMode
from repro.flashsim.persistent import PersistentFlashDevice
from repro.service.cluster import ClusterService
from repro.service.recovery import RecoveryCoordinator

# Tiny geometry so the deterministic workload reaches wrap-around, releases
# and erases within a few hundred I/O units.
GEOM = DeviceGeometry(page_size=1024, pages_per_block=8, num_blocks=16)
CFG = CLAMConfig(
    num_super_tables=2,
    buffer_capacity_items=8,
    incarnations_per_table=2,
    checkpoint_interval_flushes=4,
)
COLD_CFG = CLAMConfig(
    num_super_tables=2,
    buffer_capacity_items=8,
    incarnations_per_table=2,
)
N_OPS = 260


def key(i):
    return b"key-%04d" % i


def value(i):
    return b"val-%04d" % i


def run_workload(path, crash_at=None, config=CFG, n_ops=N_OPS):
    """Deterministic insert/lookup/delete mix; returns (clam, error)."""
    clam = DurableCLAM(path, config=config, geometry=GEOM)
    if crash_at is not None:
        clam.persistent_device.faults.crash_after_n_ios(crash_at)
    error = None
    try:
        for i in range(n_ops):
            clam.insert(key(i), value(i))
            if i % 17 == 0:
                clam.lookup(key(i // 2))
            if i and i % 23 == 0:
                clam.delete(key(i - 2))
        clam.close()
    except (PowerLossError, DeviceFailedError) as err:
        error = err
    return clam, error


def acknowledged_items(clam):
    """God's-eye oracle: items of every incarnation the CLAM still lists.

    Incarnation handles are registered in DRAM only *after* their streaming
    write returned, so at crash time they enumerate exactly the acknowledged
    (durable) state.  Pages are read via ``peek_page`` straight off the
    media image, bypassing the dead device's fault gate.
    """
    device = clam.persistent_device
    acked = {}
    for table in clam.bufferhash.tables:
        deleted = set(table.delete_list_snapshot())
        for handle in table.incarnation_handles:
            for offset in range(handle.num_pages):
                image = device.peek_page(handle.address + offset)
                assert image is not None, "acknowledged incarnation page damaged on media"
                for k, v in iter_page_entries(image):
                    if k not in deleted:
                        acked[k] = v
    return acked


def total_io_units(tmp_path):
    """I/O units the uncrashed workload (including clean close) performs."""
    path = tmp_path / "dry.clam"
    clam, error = run_workload(path)
    assert error is None
    sentinel = 10**9
    # Count with a fresh run and an armed-but-unreachable countdown.
    path2 = tmp_path / "dry2.clam"
    clam2 = DurableCLAM(path2, config=CFG, geometry=GEOM)
    clam2.persistent_device.faults.crash_after_n_ios(sentinel)
    injector = clam2.persistent_device.faults
    for i in range(N_OPS):
        clam2.insert(key(i), value(i))
        if i % 17 == 0:
            clam2.lookup(key(i // 2))
        if i and i % 23 == 0:
            clam2.delete(key(i - 2))
    clam2.close()
    return sentinel - injector._power_countdown


class TestCrashSweep:
    def test_power_cut_at_every_io_boundary_loses_no_acknowledged_write(self, tmp_path):
        """The headline robustness property, exhaustively over crash points."""
        total = total_io_units(tmp_path)
        assert total > 50, "workload too small to exercise interesting crash points"
        cut_modes = set()
        reports = []
        path = tmp_path / "sweep.clam"
        for n in range(1, total + 1):
            if path.exists():
                os.unlink(path)
            crashed, error = run_workload(path, crash_at=n)
            assert error is not None, f"cut at unit {n} never fired (total={total})"
            cut_modes.add(crashed.persistent_device.faults.mode)
            acked = acknowledged_items(crashed)
            crashed.close()

            with DurableCLAM(path, geometry=GEOM) as reopened:
                report = reopened.recovery_report
                assert report is not None
                reports.append(report)
                for k, v in acked.items():
                    result = reopened.lookup(k)
                    assert result.found and result.value == v, (
                        f"cut at unit {n}: acknowledged key {k!r} lost "
                        f"(report: {report})"
                    )
                # The reopened CLAM is fully operational.
                reopened.insert(b"probe", b"probe-value")
                assert reopened.lookup(b"probe").value == b"probe-value"

        # The sweep must actually have reached every power-loss state.
        assert FaultMode.TORN_WRITE in cut_modes
        assert FaultMode.INTERRUPTED_ERASE in cut_modes
        assert FaultMode.POWER_LOST in cut_modes  # a cut on a read path
        assert any(r.torn_pages_discarded for r in reports)
        assert any(r.interrupted_erase_blocks for r in reports)
        assert any(r.incarnations_from_checkpoint for r in reports)
        assert any(r.log_records_replayed for r in reports)


class TestDurableCLAM:
    def test_clean_shutdown_roundtrip_loses_nothing(self, tmp_path):
        path = tmp_path / "clean.clam"
        with DurableCLAM(path, config=CFG, geometry=GEOM) as clam:
            assert clam.recovery_report is None  # fresh create
            for i in range(30):
                clam.insert(key(i), value(i))
        with DurableCLAM(path, geometry=GEOM) as clam:
            report = clam.recovery_report
            assert report.clean_shutdown
            assert not report.may_have_lost_buffered_writes
            for i in range(30):
                assert clam.lookup(key(i)).value == value(i)

    def test_unclean_shutdown_reports_possible_buffered_loss(self, tmp_path):
        path = tmp_path / "dirty.clam"
        clam = DurableCLAM(path, config=CFG, geometry=GEOM)
        for i in range(30):
            clam.insert(key(i), value(i))
        buffered = {key_data(k) for table in clam.bufferhash.tables for k in table.buffer.items()}
        assert buffered  # some writes were still DRAM-only
        clam.persistent_device.faults.crash()  # hard stop: no flush, no checkpoint
        clam.close()
        with DurableCLAM(path, geometry=GEOM) as clam:
            report = clam.recovery_report
            assert not report.clean_shutdown
            assert report.may_have_lost_buffered_writes
            for k in buffered:
                assert not clam.lookup(k).found

    def test_checkpoint_shortens_recovery_versus_cold_rebuild(self, tmp_path):
        # Deep incarnation chains so a cold rebuild has real work to do; the
        # checkpoint restores all but the post-checkpoint suffix for free.
        ckpt_cfg = CLAMConfig(
            num_super_tables=2,
            buffer_capacity_items=8,
            incarnations_per_table=8,
            checkpoint_interval_flushes=4,
        )
        cold_cfg = CLAMConfig(
            num_super_tables=2,
            buffer_capacity_items=8,
            incarnations_per_table=8,
        )
        results = {}
        for label, config in (("ckpt", ckpt_cfg), ("cold", cold_cfg)):
            # Dry run to learn the config's total I/O units, then cut late in
            # the run so both variants crash with comparable durable state.
            sentinel = 10**9
            dry = DurableCLAM(tmp_path / f"{label}-dry.clam", config=config, geometry=GEOM)
            dry.persistent_device.faults.crash_after_n_ios(sentinel)
            injector = dry.persistent_device.faults
            for i in range(N_OPS):
                dry.insert(key(i), value(i))
            dry.close()
            crash_at = (sentinel - injector._power_countdown) * 4 // 5
            path = tmp_path / f"{label}.clam"
            crashed, error = run_workload(path, crash_at=crash_at, config=config)
            assert error is not None
            crashed.close()
            with DurableCLAM(path, geometry=GEOM) as reopened:
                results[label] = reopened.recovery_report
        assert results["ckpt"].checkpoint_seq is not None
        assert results["ckpt"].incarnations_from_checkpoint > 0
        assert results["cold"].checkpoint_seq is None
        assert results["cold"].log_records_replayed > 0
        # Checkpoint restores Bloom filters without reading data pages, so
        # its simulated recovery I/O must be cheaper than the cold rebuild.
        assert results["ckpt"].recovery_io_ms < results["cold"].recovery_io_ms
        assert results["ckpt"].entries_rebuilt < results["cold"].entries_rebuilt

    def test_recovery_events_recorded(self, tmp_path):
        path = tmp_path / "events.clam"
        crashed, error = run_workload(path, crash_at=60)
        assert error is not None
        crashed.close()
        with DurableCLAM(path, geometry=GEOM) as clam:
            kinds = [event.kind for event in clam.events]
            assert kinds[0] == "crash_recovery_started"
            assert "crash_recovery_completed" in kinds
            completed = next(
                event for event in clam.events if event.kind == "crash_recovery_completed"
            )
            assert completed.attributes["pages_scanned"] == clam.recovery_report.pages_scanned
            if clam.recovery_report.torn_pages_discarded:
                assert "torn_page_discarded" in kinds

    def test_config_mismatch_rejected_and_superblock_adopted(self, tmp_path):
        path = tmp_path / "conf.clam"
        with DurableCLAM(path, config=CFG, geometry=GEOM):
            pass
        with pytest.raises(ConfigurationError, match="configuration mismatch"):
            DurableCLAM(path, config=COLD_CFG, geometry=GEOM)
        with DurableCLAM(path, geometry=GEOM) as clam:  # adopt stored config
            assert clam.config == CFG

    @staticmethod
    def _edit_superblock(path, edit) -> None:
        """Rewrite a closed shard file's superblock JSON through ``edit``."""
        device = PersistentFlashDevice(path)
        try:
            page = device.layout.partition("superblock").start_page(device.geometry)
            payload, _latency = device.read_page(page)
            fields = json.loads(payload[len(SUPERBLOCK_MAGIC) :].decode("utf-8"))
            edit(fields)
            encoded = json.dumps(fields, sort_keys=True, separators=(",", ":")).encode("utf-8")
            device.write_page(page, SUPERBLOCK_MAGIC + encoded)
        finally:
            device.close()

    @pytest.mark.parametrize("stored", [True, False])
    def test_superblock_with_retired_hash_once_field_reopens(self, tmp_path, stored):
        # Files written while CLAMConfig had a ``use_hash_once`` switch store
        # it; the switch never changed the layout, so the key is dropped.
        path = tmp_path / "old.clam"
        with DurableCLAM(path, config=CFG, geometry=GEOM) as clam:
            for i in range(16):  # inside the retention window of CFG
                clam.insert(key(i), value(i))
        self._edit_superblock(path, lambda fields: fields.update(use_hash_once=stored))
        with DurableCLAM(path, geometry=GEOM) as clam:
            assert clam.config == CFG
            assert all(clam.get(key(i)) == value(i) for i in range(16))
        with DurableCLAM(path, config=CFG, geometry=GEOM) as clam:
            assert clam.get(key(7)) == value(7)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda fields: fields.update(no_such_option=1),
            lambda fields: fields.pop("num_super_tables"),
            lambda fields: fields.pop("memory_cost"),
            lambda fields: fields["memory_cost"].update(no_such_cost=0.1),
        ],
        ids=["unknown-field", "missing-field", "missing-memory-cost", "unknown-cost"],
    )
    def test_superblock_field_mismatch_is_a_configuration_error(self, tmp_path, edit):
        path = tmp_path / "odd.clam"
        with DurableCLAM(path, config=CFG, geometry=GEOM):
            pass
        self._edit_superblock(path, edit)
        with pytest.raises(ConfigurationError, match="superblock"):
            DurableCLAM(path, geometry=GEOM)

    def test_unbuffered_config_rejected(self, tmp_path):
        config = CLAMConfig(use_buffering=False)
        with pytest.raises(ConfigurationError, match="use_buffering"):
            DurableCLAM(tmp_path / "nope.clam", config=config, geometry=GEOM)

    def test_close_is_idempotent_and_leaves_only_the_device_file(self, tmp_path):
        path = tmp_path / "tidy.clam"
        clam = DurableCLAM(path, config=CFG, geometry=GEOM)
        clam.insert(b"k", b"v")
        clam.close()
        clam.close()
        assert clam.persistent_device.closed
        assert os.listdir(tmp_path) == ["tidy.clam"]

    def test_double_crash_during_recovery_era_is_survivable(self, tmp_path):
        """Crash, reopen, crash again mid-workload, reopen again."""
        path = tmp_path / "double.clam"
        crashed, error = run_workload(path, crash_at=80)
        assert error is not None
        crashed.close()
        clam = DurableCLAM(path, geometry=GEOM)
        clam.persistent_device.faults.crash_after_n_ios(13)
        try:
            for i in range(500, 700):
                clam.insert(key(i), value(i))
        except (PowerLossError, DeviceFailedError):
            pass
        acked = acknowledged_items(clam)
        clam.close()
        with DurableCLAM(path, geometry=GEOM) as reopened:
            for k, v in acked.items():
                assert reopened.lookup(k).value == v


class TestPersistentCluster:
    CLUSTER_CFG = CLAMConfig(
        num_super_tables=2,
        buffer_capacity_items=16,
        incarnations_per_table=16,
        checkpoint_interval_flushes=4,
    )

    def test_power_cut_shard_reopens_and_rejoins_with_zero_cluster_loss(self, tmp_path):
        data_dir = tmp_path / "cluster"
        with ClusterService(
            num_shards=3,
            config=self.CLUSTER_CFG,
            storage="persistent",
            data_dir=str(data_dir),
            replication_factor=2,
        ) as service:
            for i in range(300):
                service.insert(key(i), value(i))
            victim = service.shard_for(key(0))
            service.fail_shard(victim, mode="power-cut", after_n_ios=7)
            written = 300
            for i in range(300, 800):
                try:
                    service.insert(key(i), value(i))
                    written = i + 1
                except Exception:
                    written = i + 1  # replicas still applied it or hints recorded
                if victim in service.down_shard_ids:
                    break
            assert victim in service.down_shard_ids
            # More writes while the shard is down accumulate handoff hints.
            for i in range(written, written + 50):
                service.insert(key(i), value(i))
            written += 50

            reports = RecoveryCoordinator(service).reopen_and_rejoin()
            assert victim in reports
            assert not reports[victim].clean_shutdown
            assert service.is_live(victim)

            # RF=2: every key the cluster acknowledged is still readable.
            for i in range(written):
                assert service.get(key(i)) == value(i), f"key {i} lost cluster-wide"

            kinds = [event.kind for event in service.events]
            assert "crash_recovery_started" in kinds
            assert "crash_recovery_completed" in kinds
            assert "reopen_rejoin" in kinds
        # Context-manager close released every shard file cleanly.
        assert sorted(os.listdir(data_dir)) == [
            "shard-0.clam",
            "shard-1.clam",
            "shard-2.clam",
        ]

    def test_cluster_restart_from_data_dir_recovers_all_shards(self, tmp_path):
        data_dir = tmp_path / "cluster"
        with ClusterService(
            num_shards=2,
            config=self.CLUSTER_CFG,
            storage="persistent",
            data_dir=str(data_dir),
        ) as service:
            for i in range(120):
                service.insert(key(i), value(i))
        with ClusterService(
            num_shards=2,
            config=self.CLUSTER_CFG,
            storage="persistent",
            data_dir=str(data_dir),
        ) as service:
            for clam in service.shards.values():
                assert clam.recovery_report is not None
                assert clam.recovery_report.clean_shutdown
            for i in range(120):
                assert service.get(key(i)) == value(i)

    def test_data_dir_required_for_persistent_and_rejected_otherwise(self, tmp_path):
        with pytest.raises(ConfigurationError, match="data_dir"):
            ClusterService(num_shards=2, storage="persistent")
        with pytest.raises(ConfigurationError, match="data_dir"):
            ClusterService(num_shards=2, storage="dram", data_dir=str(tmp_path))
