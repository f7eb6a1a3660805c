"""One-tenant streaming suite: ``serve --policy X`` runs the streaming
engine (:class:`~repro.server.MultiTenantService`) with a single tenant,
which must reproduce the batch FastEmulator bit for bit -- for every
policy in the retention spectrum, every replay config variant, with
exemptions, and across a checkpoint / kill / resume cycle.  The N-tenant
fleet cases live in ``tests/test_server.py``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.activeness import ActivenessParams
from repro.core.exemption import ExemptionList
from repro.core.incremental import build_activity_store
from repro.emulation import (
    CompiledTrace,
    EmulatorConfig,
    FastEmulator,
    compile_dataset,
)
from repro.server import MultiTenantService, TenantSpec
from repro.stream import (
    CheckpointManager,
    IncrementalActivenessState,
    StreamEvent,
    dataset_event_stream,
    skip_events,
)
from repro.traces.schema import AppAccessRecord

from test_compiled_replay import POLICIES, assert_results_equal
from test_server import build_policy, make_fleet

KINDS = [name for name, _ in POLICIES]


@pytest.fixture(scope="module")
def dataset(tiny_dataset):
    return tiny_dataset


@pytest.fixture(scope="module")
def compiled(dataset) -> CompiledTrace:
    return compile_dataset(dataset)


def fast_result(dataset, compiled, spec, emu_config, *, exemptions=None):
    known = [u.uid for u in dataset.users]
    return FastEmulator(build_policy(spec, dataset),
                        spec.retention_config().activeness, emu_config,
                        exemptions).run(compiled, known_uids=known)


def make_service(dataset, spec, emu_config, **kwargs):
    """The one-tenant fleet ``serve --policy`` builds."""
    return make_fleet(dataset, [spec], config=emu_config, **kwargs)


def run_one(service, events):
    results = service.run(events)
    return None if results is None else results[service.tenants[0].name]


@pytest.mark.parametrize("kind", KINDS)
def test_stream_matches_batch(dataset, compiled, kind):
    spec = TenantSpec(name=kind, policy=kind)
    emu_config = EmulatorConfig()
    service = make_service(dataset, spec, emu_config)
    streamed = run_one(service, dataset_event_stream(dataset))
    batch = fast_result(dataset, compiled, spec, emu_config)
    assert_results_equal(streamed, batch)
    triggers = service.tenants[0].stats["triggers"]
    assert triggers == len(streamed.reports)
    # One fold per trigger plus the initial classification.
    assert service.stats["activeness_evals"] == triggers + 1


@pytest.mark.parametrize("apply_creates", [True, False])
@pytest.mark.parametrize("restore_on_miss", [True, False])
def test_stream_matches_batch_config_variants(dataset, compiled,
                                              apply_creates,
                                              restore_on_miss):
    emu_config = EmulatorConfig(apply_creates=apply_creates,
                                restore_on_miss=restore_on_miss)
    spec = TenantSpec(name="activedr", policy="activedr")
    streamed = run_one(make_service(dataset, spec, emu_config),
                       dataset_event_stream(dataset))
    batch = fast_result(dataset, compiled, spec, emu_config)
    assert_results_equal(streamed, batch)


def test_stream_matches_batch_with_exemptions(dataset, compiled):
    paths = [p for p, _ in dataset.filesystem.iter_files()]
    exemptions = ExemptionList()
    for path in paths[::7]:
        exemptions.reserve_file(path)
    exemptions.reserve_directory(
        "/" + "/".join(paths[0].strip("/").split("/")[:2]))
    for kind in KINDS[:3]:
        spec = TenantSpec(name=kind, policy=kind)
        streamed = run_one(make_service(dataset, spec, EmulatorConfig(),
                                        exemptions=exemptions),
                           dataset_event_stream(dataset))
        batch = fast_result(dataset, compiled, spec, EmulatorConfig(),
                            exemptions=exemptions)
        assert_results_equal(streamed, batch)


def test_refold_is_incremental(dataset):
    # The O(delta) claim: most users are quiescent at any trigger, so
    # only a minority of user-type histories are ever refolded.
    service = make_service(dataset, TenantSpec(name="activedr"),
                           EmulatorConfig())
    service.run(dataset_event_stream(dataset))
    assert service.tenants[0].stats["triggers"] > 10
    assert service.stats["eval_users"] > 0
    refolded = service.stats["eval_refolded"]
    assert 0 < refolded < 0.5 * service.stats["eval_users"]


@pytest.mark.parametrize("policy_name", ["activedr", "value"])
def test_checkpoint_kill_resume_is_bit_identical(dataset, compiled,
                                                 tmp_path, policy_name):
    spec = TenantSpec(name=policy_name, policy=policy_name)
    emu_config = EmulatorConfig()
    ckdir = str(tmp_path / policy_name)
    events = list(dataset_event_stream(dataset))
    kill_at = len(events) // 2

    service = make_service(dataset, spec, emu_config,
                           checkpoint_dir=ckdir, checkpoint_every_days=7)
    assert service.run(iter(events), stop_after_events=kill_at) is None

    latest = CheckpointManager(ckdir).latest()
    assert latest is not None
    resumed = MultiTenantService.resume(
        latest, policy_factory=lambda s: build_policy(s, dataset),
        config=emu_config, checkpoint_dir=ckdir)
    assert 0 < resumed.cursor <= kill_at
    streamed = run_one(resumed, skip_events(iter(events), resumed.cursor))

    batch = fast_result(dataset, compiled, spec, emu_config)
    assert_results_equal(streamed, batch)
    # Counters continue across the kill: summed per-kind stats equal the
    # trace family sizes, with no double count of the redelivered event.
    assert resumed.cursor == len(events)
    assert resumed.stats["events_job"] == len(dataset.jobs)
    assert resumed.stats["events_publication"] == len(dataset.publications)
    assert resumed.stats["events_access"] == len(dataset.accesses)


def test_resume_rejects_fingerprint_mismatch(dataset, tmp_path):
    ckdir = str(tmp_path / "ck")
    service = make_service(dataset, TenantSpec(name="activedr"),
                           EmulatorConfig(), checkpoint_dir=ckdir)
    service.run(dataset_event_stream(dataset))
    latest = CheckpointManager(ckdir).latest()
    # The same spec rebuilt into a policy with another lifetime, and the
    # stored spec replayed under another replay config: both refused.
    with pytest.raises(ValueError, match="fingerprint"):
        MultiTenantService.resume(
            latest, policy_factory=lambda s: build_policy(
                TenantSpec(name=s.name, lifetime_days=7.0), dataset))
    with pytest.raises(ValueError, match="fingerprint"):
        MultiTenantService.resume(
            latest, policy_factory=lambda s: build_policy(s, dataset),
            config=EmulatorConfig(restore_on_miss=True))


def test_checkpoint_refuses_partial_day(dataset, tmp_path):
    service = make_service(dataset, TenantSpec(name="activedr"),
                           EmulatorConfig(),
                           checkpoint_dir=str(tmp_path / "ck"))
    for event in dataset_event_stream(dataset):
        service.ingest(event)
        if service._buf_pid:
            break
    with pytest.raises(ValueError, match="partial day"):
        service.save_checkpoint()


def test_out_of_window_accesses_are_dropped(dataset):
    service = make_service(dataset, TenantSpec(name="flt", policy="flt"),
                           EmulatorConfig())
    early = AppAccessRecord(ts=service.replay_start - 10, uid=1,
                            path="/proj/a/x")
    late = AppAccessRecord(ts=service.window_end + 10, uid=1,
                           path="/proj/a/x")
    service.ingest(StreamEvent(early.ts, "access", early))
    service.ingest(StreamEvent(late.ts, "access", late))
    assert service.dropped_accesses == 2
    assert service.stats["events_access"] == 2
    assert service.cursor == 2


def test_service_rejects_empty_window(dataset):
    spec = TenantSpec(name="activedr")
    with pytest.raises(ValueError, match="replay_end"):
        MultiTenantService([(spec, build_policy(spec, dataset))],
                           replay_start=100, replay_end=100)


PARAM_VARIANTS = [
    ActivenessParams(),
    ActivenessParams(period_days=30.0),
    ActivenessParams(empty_period="skip"),
    ActivenessParams(empty_period="epsilon", epsilon=1e-6),
    ActivenessParams(max_periods=3),
]


@pytest.mark.parametrize("params", PARAM_VARIANTS,
                         ids=["default", "p30", "skip", "epsilon", "maxp"])
def test_incremental_activeness_matches_store(dataset, params):
    known = [u.uid for u in dataset.users]
    store = build_activity_store(dataset.jobs, dataset.publications)
    t_end = max(max(j.submit_ts for j in dataset.jobs),
                max(p.ts for p in dataset.publications))
    t_mid = (min(j.submit_ts for j in dataset.jobs) + t_end) // 2

    # Full history at the end of the trace.
    inc = IncrementalActivenessState()
    for job in dataset.jobs:
        inc.add_job(job)
    for pub in dataset.publications:
        inc.add_publication(pub)
    assert inc.evaluate(t_end, params, known) == store.evaluate(
        t_end, params, known_uids=known)

    # Mid-trace: the incremental state only ever holds ts <= t_c (the
    # service's boundary ordering guarantees this); the batch store
    # clips internally.
    inc = IncrementalActivenessState()
    for job in dataset.jobs:
        if job.submit_ts <= t_mid:
            inc.add_job(job)
    for pub in dataset.publications:
        if pub.ts <= t_mid:
            inc.add_publication(pub)
    assert inc.evaluate(t_mid, params, known) == store.evaluate(
        t_mid, params, known_uids=known)


def test_incremental_activeness_snapshot_round_trip(dataset):
    known = [u.uid for u in dataset.users]
    params = ActivenessParams()
    inc = IncrementalActivenessState()
    for job in dataset.jobs:
        inc.add_job(job)
    for pub in dataset.publications:
        inc.add_publication(pub)
    t_c = max(j.submit_ts for j in dataset.jobs)
    expected = inc.evaluate(t_c, params, known)

    snap = inc.snapshot_state()
    for atype, (uids, ts, imp) in snap.items():
        assert uids.shape == ts.shape == imp.shape
        assert np.array_equal(uids, np.sort(uids))

    restored = IncrementalActivenessState()
    restored.restore_state(snap)
    assert restored.evaluate(t_c, params, known) == expected

    # The snapshot payload is interchangeable with the batch store's:
    # restoring it into a ColumnarActivityStore evaluates identically
    # (uid-major vs ingestion order is erased by the stable fold sort).
    cross = build_activity_store()
    cross.restore_state(snap)
    assert cross.evaluate(t_c, params, known_uids=known) == expected
