"""Snapshot codec and store: envelope integrity, retention, fallback."""

from dataclasses import dataclass

import pytest

from repro.batch import BatchSession
from repro.core.thresholds import MonitorThresholds
from repro.errors import SnapshotError
from repro.serve.events import extract_lane_events
from repro.serve.snapshot import (SNAPSHOT_FIELDS, SNAPSHOT_MAGIC,
                                  SNAPSHOT_VERSION, ShardSnapshot,
                                  SnapshotStore, decode_snapshot,
                                  encode_snapshot, read_snapshot,
                                  write_snapshot)
from tests.conftest import model_stream


def make_snapshot(shard_id=0, applied_through=10, payload="state"):
    """A structurally complete snapshot with a lightweight session."""
    return ShardSnapshot(
        shard_id=shard_id,
        applied_through=applied_through,
        stream_seqs={"s0": 3, "s1": 1},
        stash={"s1": {2: payload}},
        event_cursors={"s0": (1, 2, 0), "s1": (0, 0, 0)},
        lane_names=("s0", "s1"),
        session={"detector": payload})


class TestCodec:
    def test_round_trip_preserves_every_field(self):
        snapshot = make_snapshot()
        restored = decode_snapshot(encode_snapshot(snapshot))
        for name in SNAPSHOT_FIELDS:
            assert getattr(restored, name) == getattr(snapshot, name)

    def test_envelope_starts_with_magic_and_version(self):
        blob = encode_snapshot(make_snapshot())
        assert blob.startswith(SNAPSHOT_MAGIC)
        assert int.from_bytes(
            blob[len(SNAPSHOT_MAGIC):len(SNAPSHOT_MAGIC) + 4],
            "little") == SNAPSHOT_VERSION

    def test_bad_magic_is_rejected(self):
        blob = encode_snapshot(make_snapshot())
        with pytest.raises(SnapshotError, match="magic"):
            decode_snapshot(b"NOTASNAP" + blob[len(SNAPSHOT_MAGIC):])

    def test_unknown_version_is_rejected(self):
        blob = bytearray(encode_snapshot(make_snapshot()))
        blob[len(SNAPSHOT_MAGIC)] ^= 0xFF
        with pytest.raises(SnapshotError, match="version"):
            decode_snapshot(bytes(blob))

    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.7, 0.999])
    def test_any_truncation_is_detected(self, fraction):
        blob = encode_snapshot(make_snapshot())
        torn = blob[:int(len(blob) * fraction)]
        with pytest.raises(SnapshotError):
            decode_snapshot(torn)

    def test_payload_corruption_fails_the_crc(self):
        blob = bytearray(encode_snapshot(make_snapshot()))
        blob[-1] ^= 0x01
        with pytest.raises(SnapshotError, match="CRC"):
            decode_snapshot(bytes(blob))

    def test_unpicklable_session_raises_snapshot_error(self):
        snapshot = make_snapshot(payload=lambda: None)  # lambdas don't pickle
        with pytest.raises(SnapshotError, match="picklable"):
            encode_snapshot(snapshot)

    def test_schema_drift_is_caught_at_encode_time(self):
        @dataclass
        class DriftedSnapshot(ShardSnapshot):
            extra: int = 0

        base = make_snapshot()
        drifted = DriftedSnapshot(
            **{name: getattr(base, name) for name in SNAPSHOT_FIELDS})
        with pytest.raises(SnapshotError, match="drifted"):
            encode_snapshot(drifted)


class TestFileFormat:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "one.snap"
        n_bytes = write_snapshot(path, make_snapshot())
        assert path.stat().st_size == n_bytes
        assert read_snapshot(path).applied_through == 10

    def test_write_leaves_no_temp_files(self, tmp_path):
        write_snapshot(tmp_path / "one.snap", make_snapshot())
        assert [p.name for p in tmp_path.iterdir()] == ["one.snap"]

    def test_torn_file_on_disk_is_rejected(self, tmp_path):
        path = tmp_path / "one.snap"
        blob = encode_snapshot(make_snapshot())
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_missing_file_is_a_snapshot_error(self, tmp_path):
        with pytest.raises(SnapshotError, match="could not read"):
            read_snapshot(tmp_path / "absent.snap")


class TestStore:
    def test_retention_keeps_newest_generations(self, tmp_path):
        store = SnapshotStore(tmp_path, shard_id=0, keep=2)
        for seq in (4, 9, 13):
            store.save(make_snapshot(applied_through=seq))
        assert store.seqs() == [9, 13]

    def test_load_latest_prefers_the_newest(self, tmp_path):
        store = SnapshotStore(tmp_path, shard_id=0)
        for seq in (4, 9):
            store.save(make_snapshot(applied_through=seq))
        loaded = store.load_latest()
        assert loaded is not None
        snapshot, path = loaded
        assert snapshot.applied_through == 9
        assert path == store.path_for(9)

    def test_load_latest_skips_a_torn_newest_generation(self, tmp_path):
        store = SnapshotStore(tmp_path, shard_id=0)
        store.save(make_snapshot(applied_through=4))
        blob = encode_snapshot(make_snapshot(applied_through=9))
        store.path_for(9).write_bytes(blob[:len(blob) // 3])
        loaded = store.load_latest()
        assert loaded is not None
        assert loaded[0].applied_through == 4

    def test_load_latest_ignores_other_shards_and_genesis(self, tmp_path):
        store_a = SnapshotStore(tmp_path, shard_id=0)
        store_b = SnapshotStore(tmp_path, shard_id=1)
        store_a.save(make_snapshot(shard_id=0, applied_through=4))
        assert store_b.load_latest() is None

    def test_safe_truncation_lags_one_generation(self, tmp_path):
        store = SnapshotStore(tmp_path, shard_id=0)
        assert store.safe_truncation_seq() == -1
        store.save(make_snapshot(applied_through=4))
        assert store.safe_truncation_seq() == -1  # lone newest may be torn
        store.save(make_snapshot(applied_through=9))
        assert store.safe_truncation_seq() == 4

    def test_keep_below_one_is_rejected(self, tmp_path):
        with pytest.raises(SnapshotError, match="keep"):
            SnapshotStore(tmp_path, shard_id=0, keep=0)


class TestSessionRestore:
    """A snapshot carries no derived attribution state (segment tables,
    registry order), and a session restored between two rounds steps
    the next one exactly like a twin that was never pickled."""

    @pytest.mark.parametrize("attribution", ["list", "tree"])
    def test_restored_session_steps_next_round_bit_identically(
            self, attribution):
        model, stream = model_stream("181.mcf")
        size = 504

        def fleet():
            session = BatchSession(
                binary=model.binary,
                monitor_thresholds=MonitorThresholds(buffer_size=size),
                attribution=attribution)
            for index in range(3):
                session.add_lane(name=f"s{index}")
            return session

        def feed(session, first, last):
            for index, lane in enumerate(session.lanes):
                base = index * 40 * size
                lane.feed_many(stream.pcs[base + first * size:
                                          base + last * size])
            session.process_ready()

        kept, pickled = fleet(), fleet()
        feed(kept, 0, 12)
        feed(pickled, 0, 12)
        blob = encode_snapshot(ShardSnapshot(
            shard_id=0, applied_through=-1, stream_seqs={}, stash={},
            event_cursors={}, lane_names=("s0", "s1", "s2"),
            session=pickled))
        assert b"SegmentTable" not in blob
        restored = decode_snapshot(blob).session
        feed(kept, 12, 13)
        feed(restored, 12, 13)
        for mine, twin in zip(restored.lanes, kept.lanes):
            assert extract_lane_events(mine) == extract_lane_events(twin)
            assert mine.monitor.ledger == twin.monitor.ledger
            assert mine.monitor.registry.regions() \
                == twin.monitor.registry.regions()
            last, reference = mine.reports[-1], twin.reports[-1]
            assert last.interval_index == reference.interval_index == 12
            assert last.ucr_fraction == reference.ucr_fraction
            assert last.region_samples == reference.region_samples
