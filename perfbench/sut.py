"""One repetition of a workload: the process that runs the system under test.

``run.py`` starts a fresh process per repetition, so every repetition
is a cold start and its memory high-water belongs to the system alone
(the orchestrator generates inputs and holds the oracle elsewhere)::

    python3 perfbench/sut.py --workload serve-file --workspace DIR \\
        --results FILE [--trace] [--address unix:PATH --checkpoint-dir DIR]

Set-up (``setup_s``) is everything until the system is ready for its
first event.  ``ingest-durable`` then prints ``ready`` and starts its
clock when the orchestrator writes ``go`` on stdin -- the moment the
load generator starts offering events.  The clock stops when ``run()``
has returned the results.  Imports happen before the set-up clock
starts.  The per-tenant results are pickled to ``--results`` for the
orchestrator's oracle check -- for ``ingest-durable`` together with the
results restored, off the clock, from the newest checkpoint link -- and
the last stdout line is a JSON report of raw timings and counters.

With ``--trace`` the calls into each layer are wrapped in spans (see
``tracing.py``); nothing inside the program changes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pickle
import resource
import sys
import time

from common import (CHECKPOINT_EVERY_DAYS, CHECKPOINT_RETAIN,
                    INGEST_SOURCES, INGEST_TENANTS, SERVE_FILE_TENANTS)
from tracing import Tracer

perf = time.perf_counter


def peak_rss_mb() -> float:
    """This process's memory high-water, in MiB.

    ``VmHWM`` belongs to the address space built by ``exec``; Linux
    carries the *parent's* high-water into a child's ``ru_maxrss``
    across exec, which would charge the orchestrator's memory here.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextlib.contextmanager
def patched(module, name: str, value):
    """Temporarily rebind ``module.name`` (trace wrappers only)."""
    original = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, original)


def traced_reader(tracer: Tracer | None, reader):
    """A trace-file reader whose record iteration is ``traces.parse``."""
    if tracer is None:
        return reader

    def read(path, on_error=None):
        return tracer.iter("traces.parse", reader(path, on_error=on_error))

    return read


# ---------------------------------------------------------------------------
# replay-spectrum: load a workspace, compare the four policies


def replay_spectrum(args, tracer: Tracer | None) -> dict:
    import repro.cli.workspace as workspace_mod
    import repro.emulation.runner as runner_mod
    from repro.emulation import ComparisonRunner, FastEmulator

    with contextlib.ExitStack() as stack:
        if tracer is not None:
            for name in ("read_users", "read_jobs", "read_publications",
                         "read_app_log"):
                stack.enter_context(patched(
                    workspace_mod, name,
                    traced_reader(tracer, getattr(workspace_mod, name))))
            stack.enter_context(patched(
                workspace_mod, "load_filesystem",
                tracer.wrap("vfs.snapshot", workspace_mod.load_filesystem)))
            stack.enter_context(patched(
                runner_mod, "compile_dataset",
                tracer.wrap("emulation.compile", runner_mod.compile_dataset)))
            wrap_replay = tracer.wrap

            class TracedFastEmulator(FastEmulator):
                def run(self, *a, **kw):
                    return wrap_replay("emulation.replay",
                                       super().run)(*a, **kw)

            stack.enter_context(patched(runner_mod, "FastEmulator",
                                        TracedFastEmulator))

        t0 = perf()
        ws = workspace_mod.load_workspace(args.workspace)
        setup_s = perf() - t0
        t1 = perf()
        results = ComparisonRunner(ws, engine="fast",
                                   policies="spectrum").run().results
        run_s = perf() - t1

    return {
        "setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_rss_mb(),
        # A batch replay consumes every loaded record by construction:
        # the drain check is that every generated record was loaded.
        "consumed": {"jobs": len(ws.jobs),
                     "publications": len(ws.publications),
                     "accesses": len(ws.accesses)},
        "cursor": len(ws.jobs) + len(ws.publications) + len(ws.accesses),
        "results": results,
    }


# ---------------------------------------------------------------------------
# the two server workloads


def service_builder(workspace: str, tenant_texts, tracer: Tracer | None,
                    **service_kwargs):
    """Import the server layers, then return the timed set-up step.

    The returned ``build()`` is the snapshot + users load and
    ``MultiTenantService`` construction, the way ``repro serve`` builds
    a fresh server.  The imports happen here, before any set-up clock
    starts, as they do for every workload.
    """
    from repro.core import JobResidencyIndex
    from repro.server import MultiTenantService, TenantSpec
    from repro.traces import read_jobs, read_users
    from repro.vfs import load_filesystem

    def call(name, fn, *a, **kw):
        return (fn if tracer is None else tracer.wrap(name, fn))(*a, **kw)

    def build():
        with open(os.path.join(workspace, "meta.json")) as f:
            meta = json.load(f)
        fs = call("vfs.snapshot", load_filesystem,
                  os.path.join(workspace, "snapshot"),
                  size_seed=int(meta.get("size_seed", 2021)),
                  capacity_bytes=None)
        read = traced_reader(tracer, read_users)
        known = [u.uid for u in read(os.path.join(workspace, "users.txt.gz"))]
        specs = [TenantSpec.parse(text) for text in tenant_texts]
        residency = None
        if any(spec.policy == "cache" for spec in specs):
            read = traced_reader(tracer, read_jobs)
            residency = JobResidencyIndex(
                list(read(os.path.join(workspace, "jobs.txt.gz"))))
        policies = [(spec, spec.build_policy(residency=residency))
                    for spec in specs]
        return call("server.tenants.setup", MultiTenantService, policies,
                    snapshot_fs=fs, replay_start=int(meta["replay_start"]),
                    replay_end=int(meta["replay_end"]), known_uids=known,
                    **service_kwargs)

    return build


def trigger_seconds(service) -> float:
    return sum(t.stats["trigger_seconds"] for t in service.tenants)


def instrument_service(service, tracer: Tracer, report: dict):
    """Instance-level spans on the engine's entry points.

    ``ingest``/``ingest_run`` are ``server.tenants.ingest``,
    ``save_checkpoint`` is ``stream.checkpoint`` (nested inside the
    ingest call whose boundary wrote it) and ``finalize`` is
    ``server.tenants.finalize``.  Trigger time is read from the
    tenants' own counters; the share spent inside ingest calls is the
    trigger total as ``finalize`` starts.
    """
    service.ingest = tracer.wrap("server.tenants.ingest", service.ingest)
    service.ingest_run = tracer.wrap("server.tenants.ingest",
                                     service.ingest_run)
    save = tracer.wrap("stream.checkpoint", service.save_checkpoint)
    link_bytes = report.setdefault("checkpoint_link_bytes", [])

    def save_checkpoint(*a, **kw):
        path = save(*a, **kw)
        link_bytes.append(os.path.getsize(path))
        return path

    service.save_checkpoint = save_checkpoint
    finalize = tracer.wrap("server.tenants.finalize", service.finalize)

    def traced_finalize():
        report["trigger_in_ingest_s"] = trigger_seconds(service)
        return finalize()

    service.finalize = traced_finalize


def counted(tracer: Tracer, events, report: dict):
    """The input iterator as ``stream.wait`` spans, counting items/rows."""
    from repro.stream.batch import BatchRun

    items = rows = 0
    try:
        for item in tracer.iter("stream.wait", events):
            items += 1
            rows += item.n_rows if type(item) is BatchRun else 1
            yield item
    finally:
        report["items"], report["rows"] = items, rows


def server_report(service, setup_s: float, run_s: float, results) -> dict:
    stats = service.stats
    return {
        "setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_rss_mb(),
        "cursor": service.cursor,
        "consumed": {"jobs": stats["events_job"],
                     "publications": stats["events_publication"],
                     "accesses": stats["events_access"]},
        "activeness_evals": stats["activeness_evals"],
        "eval_users": stats["eval_users"],
        "eval_refolded": stats["eval_refolded"],
        "trigger_s": trigger_seconds(service),
        "trigger_samples": [s for t in service.tenants
                            for s in t.trigger_latency_log],
        "results": results,
    }


def serve_file(args, tracer: Tracer | None) -> dict:
    from repro.stream import ReliableEventStream

    build = service_builder(args.workspace, SERVE_FILE_TENANTS, tracer)
    t0 = perf()
    service = build()
    setup_s = perf() - t0

    stream_cls = ReliableEventStream
    extra: dict = {}
    if tracer is not None:
        instrument_service(service, tracer, extra)

        class TracedStream(ReliableEventStream):
            SOURCES = tuple((name, filename, traced_reader(tracer, reader),
                             to_events)
                            for name, filename, reader, to_events
                            in ReliableEventStream.SOURCES)

        stream_cls = TracedStream

    t1 = perf()
    stream = stream_cls(args.workspace)
    events = iter(stream)
    if tracer is not None:
        events = counted(tracer, events, extra)
    results = service.run(events)
    run_s = perf() - t1

    report = server_report(service, setup_s, run_s, results)
    report.update(extra, quarantined=stream.quarantine.total)
    return report


def ingest_durable(args, tracer: Tracer | None) -> dict:
    from repro.server import MultiTenantService
    from repro.server.ingest import NetworkEventStream, SocketListener

    build = service_builder(
        args.workspace, INGEST_TENANTS, tracer,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every_days=CHECKPOINT_EVERY_DAYS,
        checkpoint_retain=CHECKPOINT_RETAIN)
    t0 = perf()
    service = build()
    listener = SocketListener(args.address,
                              expected={name: 1 for name in INGEST_SOURCES})
    setup_s = perf() - t0
    try:
        stream = NetworkEventStream(listener)
        # As `repro serve --listen` wires it: every checkpoint link
        # records the per-source producer cursors.
        service.ingest_snapshot = stream.sequence_snapshot
        extra: dict = {}
        events = iter(stream)
        if tracer is not None:
            instrument_service(service, tracer, extra)
            events = counted(tracer, events, extra)

        print("ready", flush=True)
        if sys.stdin.readline().strip() != "go":
            raise SystemExit("sut: expected 'go' on stdin")
        t1 = perf()
        results = service.run(events)
        run_s = perf() - t1

        report = server_report(service, setup_s, run_s, results)
        ledger = stream.sequence_snapshot(service.cursor)["source_seqs"]
        report.update(
            extra, quarantined=stream.quarantine.total,
            source_consumed={k: int(v) for k, v in ledger.items()},
            source_received={s.name: int(s.acked_seq)
                             for s in listener.sources()},
            decode_samples=list(listener.decode_seconds),
            batches_received=int(listener.batches_received),
            checkpoints_written=service.stats["checkpoints_written"],
            checkpoint_failures=service.stats["checkpoint_failures"])

        # Off the clock: the newest link must verify and restore the
        # very state the run ended in (its results go to the oracle).
        path, corrupt = service.checkpoints.latest_verified()
        if path is None:
            raise SystemExit(f"sut: no checkpoint link verifies: {corrupt}")
        restored = MultiTenantService.resume(
            path, policy_factory=lambda spec: spec.build_policy())
        report.update(checkpoints_corrupt=len(corrupt),
                      restored_cursor=restored.cursor,
                      restored=restored.finalize())
        return report
    finally:
        listener.close()


RUNNERS = {"replay-spectrum": replay_spectrum, "serve-file": serve_file,
           "ingest-durable": ingest_durable}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--workspace", required=True)
    parser.add_argument("--results", required=True,
                        help="where to pickle the per-tenant results (and, "
                             "for ingest-durable, those restored from the "
                             "newest checkpoint link)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--address", help="ingest-durable listen address")
    parser.add_argument("--checkpoint-dir")
    args = parser.parse_args(argv)

    tracer = (Tracer(keep_samples=("stream.checkpoint",))
              if args.trace else None)
    report = RUNNERS[args.workload](args, tracer)
    outputs = {key: report.pop(key) for key in ("results", "restored")
               if key in report}
    with open(args.results, "wb") as f:
        pickle.dump(outputs, f, protocol=pickle.HIGHEST_PROTOCOL)
    if tracer is not None:
        report["spans"] = tracer.table()
        report["span_self_sum_s"] = tracer.self_sum()
        report["checkpoint_samples"] = tracer.samples["stream.checkpoint"]
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
