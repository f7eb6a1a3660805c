"""Checkpoint container: atomicity, exact round-trips, format guards."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core.classification import UserClass
from repro.core.report import GroupTally, RetentionReport
from repro.emulation.metrics import DailyMetrics
from repro.stream import atomic_write_npz, load_checkpoint
from repro.stream.checkpoint import (
    SERVER_CHECKPOINT_FORMAT,
    CheckpointCorruption,
    CheckpointManager,
    activeness_from_arrays,
    activeness_to_arrays,
    metrics_from_arrays,
    metrics_to_arrays,
    reports_from_jsonable,
    reports_to_jsonable,
    verify_checkpoint,
)


def manifest(**extra):
    base = {"format": SERVER_CHECKPOINT_FORMAT, "cursor": 42}
    base.update(extra)
    return base


def test_npz_round_trip(tmp_path):
    path = str(tmp_path / "ck.npz")
    arrays = {
        "ints": np.arange(5, dtype=np.int64),
        "floats": np.array([0.1, -np.inf, 3.5e300]),
        "bools": np.array([True, False, True]),
        "paths": np.asarray(["/proj/α β/v1.2/out", "/proj/x"],
                            dtype=np.str_),
    }
    atomic_write_npz(path, manifest(lifetime=90.0, name="π"), arrays)
    loaded_manifest, loaded = load_checkpoint(path)
    digests = loaded_manifest.pop("array_digests")
    assert set(digests) == set(arrays)
    assert loaded_manifest == manifest(lifetime=90.0, name="π")
    for key, value in arrays.items():
        assert np.array_equal(loaded[key], value), key
    assert not os.path.exists(f"{path}.tmp")


def test_atomic_write_preserves_old_on_failure(tmp_path):
    path = str(tmp_path / "ck.npz")
    atomic_write_npz(path, manifest(generation=1), {"a": np.arange(3)})

    class Unserializable:
        pass

    with pytest.raises(TypeError):
        # json.dumps fails mid-write; the destination must be untouched.
        atomic_write_npz(path, manifest(bad=Unserializable()),
                         {"a": np.arange(4)})
    loaded_manifest, arrays = load_checkpoint(path)
    assert loaded_manifest["generation"] == 1
    assert np.array_equal(arrays["a"], np.arange(3))


def test_write_rejects_reserved_array_name(tmp_path):
    with pytest.raises(ValueError):
        atomic_write_npz(str(tmp_path / "ck.npz"), manifest(),
                         {"__manifest__": np.arange(3)})


def test_load_rejects_foreign_npz(tmp_path):
    path = str(tmp_path / "other.npz")
    np.savez(path, a=np.arange(3))
    with pytest.raises(ValueError, match="manifest"):
        load_checkpoint(path)


def test_load_rejects_unknown_format(tmp_path):
    path = str(tmp_path / "ck.npz")
    atomic_write_npz(path, {"format": "something-else/9"}, {})
    with pytest.raises(ValueError, match="format"):
        load_checkpoint(path)


def test_reports_round_trip_exactly():
    report = RetentionReport(policy="activedr", t_c=1_467_331_200,
                             lifetime_days=90.0,
                             target_bytes=1234567890123,
                             purged_bytes_total=987654321,
                             target_met=True, passes_used=2)
    report.groups[UserClass.BOTH_ACTIVE] = GroupTally(
        purged_files=3, purged_bytes=100, retained_files=7,
        retained_bytes=900, users_purged={9, 2}, users_scanned={2, 9, 11})
    report.groups[UserClass.BOTH_INACTIVE] = GroupTally()
    encoded = reports_to_jsonable([report])
    # Must survive an actual JSON round-trip (it lives in the manifest).
    decoded = reports_from_jsonable(json.loads(json.dumps(encoded)))
    assert decoded == [report]


def test_metrics_round_trip_exactly():
    metrics = DailyMetrics(4)
    metrics.record_access(0)
    metrics.record_access(1)
    metrics.record_miss(1, UserClass.BOTH_INACTIVE)
    metrics.record_access(3)
    metrics.record_miss(3, UserClass.OPERATION_ACTIVE_ONLY)
    restored = metrics_from_arrays(metrics_to_arrays(metrics))
    assert np.array_equal(restored.accesses, metrics.accesses)
    assert np.array_equal(restored.misses, metrics.misses)
    for cls in UserClass:
        assert np.array_equal(restored.group_misses[cls],
                              metrics.group_misses[cls])


def test_activeness_arrays_round_trip(tiny_dataset, tmp_path):
    from repro.core.incremental import build_activity_store

    store = build_activity_store(tiny_dataset.jobs,
                                 tiny_dataset.publications)
    state = store.snapshot_state()
    table, arrays = activeness_to_arrays(state)
    # Through an actual npz file, like the service does.
    path = str(tmp_path / "ck.npz")
    atomic_write_npz(path, manifest(activity_types=table), arrays)
    loaded_manifest, loaded_arrays = load_checkpoint(path)
    restored = activeness_from_arrays(loaded_manifest["activity_types"],
                                      loaded_arrays)
    assert list(restored) == list(state)  # type identity and order
    for atype in state:
        for mine, theirs in zip(state[atype], restored[atype]):
            assert np.array_equal(mine, theirs)


def _tamper_array(path, name):
    """Rewrite the npz with one array modified but the old digests."""
    manifest, arrays = load_checkpoint(path, verify=False)
    arrays[name] = np.asarray(arrays[name]) + 1
    payload = dict(arrays)
    payload["__manifest__"] = np.asarray(json.dumps(manifest))
    np.savez_compressed(path, **payload)


def test_load_detects_tampered_array(tmp_path):
    path = str(tmp_path / "ck.npz")
    atomic_write_npz(path, manifest(), {"a": np.arange(4),
                                        "b": np.ones(3)})
    _tamper_array(path, "b")
    with pytest.raises(CheckpointCorruption) as exc:
        verify_checkpoint(path)
    assert exc.value.array == "b"
    assert "digest mismatch" in exc.value.reason
    assert "sha256" in exc.value.reason  # names the digests, not a trace
    # Verification is opt-out for forensics.
    loaded_manifest, arrays = load_checkpoint(path, verify=False)
    assert np.array_equal(arrays["b"], np.ones(3) + 1)


def test_load_detects_truncated_npz(tmp_path):
    from repro.faults import corrupt_file
    path = str(tmp_path / "ck.npz")
    atomic_write_npz(path, manifest(), {"a": np.arange(100)})
    corrupt_file(path, "truncate")
    with pytest.raises(CheckpointCorruption) as exc:
        load_checkpoint(path)
    assert exc.value.path == path


def test_load_detects_missing_array(tmp_path):
    path = str(tmp_path / "ck.npz")
    atomic_write_npz(path, manifest(), {"a": np.arange(4),
                                        "b": np.ones(3)})
    loaded_manifest, arrays = load_checkpoint(path, verify=False)
    payload = {"a": arrays["a"],
               "__manifest__": np.asarray(json.dumps(loaded_manifest))}
    np.savez_compressed(path, **payload)
    with pytest.raises(CheckpointCorruption) as exc:
        load_checkpoint(path)
    assert exc.value.array == "b"
    assert "missing" in exc.value.reason


def test_load_refuses_manifest_without_digests(tmp_path):
    # Every writer records per-array digests, so a manifest without
    # them is damage (or a forgery), not an older format to wave past.
    path = str(tmp_path / "ck.npz")
    atomic_write_npz(path, manifest(), {"a": np.arange(4)})
    loaded_manifest, arrays = load_checkpoint(path)
    del loaded_manifest["array_digests"]
    np.savez_compressed(path, a=arrays["a"], __manifest__=np.asarray(
        json.dumps(loaded_manifest)))
    with pytest.raises(CheckpointCorruption, match="digests"):
        load_checkpoint(path)


def test_manager_keeps_bounded_chain(tmp_path):
    mgr = CheckpointManager(str(tmp_path / "ck"), retain=3)
    assert mgr.latest() is None
    with pytest.raises(FileNotFoundError):
        mgr.load()
    saved = [mgr.save(manifest(cursor=10 * i), {"a": np.arange(i + 2)})
             for i in range(5)]
    assert len(set(saved)) == 5  # every save is a distinct chain link
    assert mgr.paths() == saved[-3:]  # GC keeps the newest `retain`
    assert mgr.latest() == saved[-1]
    loaded_manifest, arrays = mgr.load()
    assert loaded_manifest["cursor"] == 40
    assert np.array_equal(arrays["a"], np.arange(6))
    assert sorted(os.listdir(mgr.directory)) == [
        os.path.basename(p) for p in saved[-3:]]


def test_manager_rolls_back_past_corrupt_head(tmp_path):
    from repro.faults import corrupt_file
    mgr = CheckpointManager(str(tmp_path / "ck"), retain=3)
    for i in range(3):
        mgr.save(manifest(cursor=i), {"a": np.arange(i + 2)})
    corrupt_file(mgr.latest(), "truncate")
    newest, failures = mgr.latest_verified()
    assert newest == mgr.paths()[-2]
    assert len(failures) == 1 and failures[0][0] == mgr.paths()[-1]
    loaded_manifest, _arrays = mgr.load()
    assert loaded_manifest["cursor"] == 1  # rolled back one link


def test_manager_raises_when_nothing_verifies(tmp_path):
    from repro.faults import corrupt_file
    mgr = CheckpointManager(str(tmp_path / "ck"), retain=2)
    for i in range(2):
        mgr.save(manifest(cursor=i), {"a": np.arange(9)})
    for path in mgr.paths():
        corrupt_file(path, "truncate")
    with pytest.raises(CheckpointCorruption, match="no checkpoint"):
        mgr.load()
    with pytest.raises(ValueError):
        CheckpointManager(str(tmp_path / "x"), retain=0)
