"""Prepare one facility for a run: inputs and oracle, untimed.

``run.py`` starts one of these per facility, at most one per CPU, and
waits for each; the system under test never shares their memory::

    python3 perfbench/prepare.py --workload serve-file --users 300 \\
        --seed 9 --work DIR

It generates the seeded dataset, saves its workspace under ``--work``,
computes the four-policy oracle and, for ``ingest-durable``, pre-encodes
the generator's frames.  The facility record (paths relative to
``--work``, oracle, input sizes) is pickled to ``FACILITY_RECORD`` in
``--work``, last; the last stdout line is ``{}``.
"""

from __future__ import annotations

import argparse
import heapq
import itertools
import json
import os
import pickle
import shutil

from common import (FACILITY_RECORD, INGEST_SOURCES, SERVE_FILE_TENANTS,
                    WORKLOADS)


def prepare_facility(workload: str, users: int, seed: int,
                     work: str) -> dict:
    from repro.cli.workspace import save_workspace
    from repro.emulation import ComparisonRunner
    from repro.synth import TitanConfig, generate_dataset

    dataset = generate_dataset(TitanConfig(n_users=users, seed=seed))
    workspace = save_workspace(dataset, os.path.join(work, "workspace"))
    if workload == "replay-spectrum":
        oracle = serve_oracle(dataset)
    else:
        oracle = ComparisonRunner(dataset, engine="fast",
                                  policies="spectrum").run().results
    per_source = {"jobs": len(dataset.jobs),
                  "publications": len(dataset.publications),
                  "accesses": len(dataset.accesses)}
    fac = {
        "workload": workload, "users": users, "seed": seed,
        "workspace": workspace, "oracle": oracle,
        "events_per_source": per_source,
        "n_events": sum(per_source.values()),
        "snapshot_files": dataset.filesystem.file_count,
    }
    if workload == "ingest-durable":
        fac.update(encode_frames(dataset, work))
    return fac


def serve_oracle(dataset) -> dict:
    """The four-policy spectrum from the serving engine, keyed by policy.

    ``replay-spectrum`` measures ``compile_dataset`` and
    ``FastEmulator``, so its oracle must not run them: this one is a
    ``MultiTenantService`` fleet fed the in-memory event merge.  The
    two server workloads, which run that engine, are checked against
    the ``FastEmulator`` spectrum instead.
    """
    from repro.core import JobResidencyIndex
    from repro.emulation.compiled import replay_bounds
    from repro.server import MultiTenantService, TenantSpec
    from repro.stream import dataset_event_stream

    start, end = replay_bounds(dataset)
    residency = JobResidencyIndex(dataset.jobs)
    specs = [TenantSpec.parse(text) for text in SERVE_FILE_TENANTS]
    service = MultiTenantService(
        [(spec, spec.build_policy(residency=residency)) for spec in specs],
        snapshot_fs=dataset.filesystem, replay_start=start,
        replay_end=end, known_uids=[u.uid for u in dataset.users])
    results = service.run(dataset_event_stream(dataset))
    return {result.policy: result for result in results.values()}


def encode_frames(dataset, work: str) -> dict:
    """Pre-encode the generator's v2 batch payloads, sequenced per source.

    Jobs and publications are merged into one activity source in the
    canonical order (time, then jobs before publications), so the
    server's 2-way merge with accesses reproduces the 3-way file order.
    """
    from loadgen import write_payloads
    from repro.server.ingest import DEFAULT_BATCH_EVENTS
    from repro.server.protocol import encode_batch
    from repro.stream.batch import BatchBuilder
    from repro.stream.events import (access_events, job_events,
                                     publication_events)

    feeds = {
        "activity": heapq.merge(job_events(dataset.jobs),
                                publication_events(dataset.publications),
                                key=lambda ev: ev.ts),
        "accesses": access_events(dataset.accesses),
    }
    files, published, wire_bytes = {}, {}, 0
    for name in INGEST_SOURCES:
        payloads, seq = [], 1
        events = iter(feeds[name])
        while chunk := list(itertools.islice(events, DEFAULT_BATCH_EVENTS)):
            builder = BatchBuilder()
            builder.extend(chunk)
            batch = builder.build()
            payload = encode_batch(batch, seq=seq)
            seq += batch.n
            payloads.append(payload)
            # Frame envelope: b"b<len>\n" + payload + b"\n".
            wire_bytes += len(payload) + len(b"b%d\n" % len(payload)) + 1
        files[name] = os.path.join(work, f"{name}.frames")
        write_payloads(files[name], payloads)
        published[name] = seq - 1
    return {"frame_files": files, "published": published,
            "wire_bytes": wire_bytes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--users", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)

    # Whatever a killed preparation left here is incomplete.
    shutil.rmtree(args.work, ignore_errors=True)
    fac = prepare_facility(args.workload, args.users, args.seed, args.work)
    fac["workspace"] = os.path.relpath(fac["workspace"], args.work)
    if "frame_files" in fac:
        fac["frame_files"] = {name: os.path.relpath(path, args.work)
                              for name, path in fac["frame_files"].items()}
    record = os.path.join(args.work, FACILITY_RECORD)
    with open(record + ".tmp", "wb") as f:
        pickle.dump(fac, f, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(record + ".tmp", record)
    print(json.dumps({}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
