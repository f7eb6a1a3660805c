"""ActiveDR benchmark: three oracle-checked workloads, timed and traced.

Run from the root of a checkout (the program is imported from ``src/``)::

    python3 perfbench/run.py --workload serve-file --seed 7 \
        --seconds 25 --trace 0
    python3 perfbench/run.py --self-check

Workloads (each over seeded synthetic facilities of ``DEFAULT_USERS``
users):

``replay-spectrum``
    Cold-start comparison of the four retention policies (FLT, ActiveDR,
    ValueBased, ScratchAsCache): ``load_workspace`` and then
    ``ComparisonRunner(engine="fast", policies="spectrum")`` -- the path
    behind ``repro replay --policy spectrum --engine fast``.
``ingest-durable``
    The production daemon: one ActiveDR ``MultiTenantService`` fed
    through ``SocketListener`` -> ``NetworkEventStream`` by a separate
    closed-loop generator process over two v2 binary connections
    (jobs+publications, accesses), checkpointing every 7 days, 3 links
    retained.  Frames are pre-encoded before the clock.
``serve-file``
    File-fed serving: ``ReliableEventStream(workspace)`` into a
    four-policy ``MultiTenantService`` fleet; no socket, no checkpoint.

Every repetition runs the system in a fresh child process (``sut.py``);
the inputs and the oracle are made untimed in other processes, so
neither pollutes the system's memory high-water.  The oracle is the
four-policy spectrum over the in-memory dataset from an engine the
workload does not run: the ``FastEmulator`` for the two server
workloads, a ``MultiTenantService`` fleet for ``replay-spectrum``.
Repetitions run until ``--seconds`` is used up; every one is checked
against the oracle and must drain (consumed cursor == events published,
per source too).  ``ingest-durable`` must also write every checkpoint
link, and its newest link must restore results equal to the oracle.

A run measures ``FACILITIES[workload]`` facilities drawn by ``--seed``
from a corpus of ``CORPUS`` generated ones (prepared once per checkout
and kept under ``.bench_work/corpus/``) and cycles repetitions through
them.  ``events_per_s`` is the facilities' events over the sum of each
one's mean clock; every other metric is the mean over facilities of its
median over that facility's repetitions.

``--trace 0`` prints the end-to-end metrics ``events_per_s``,
``setup_s`` and ``peak_rss_mb``.  ``--trace 1``
alternates untraced and traced repetitions and prints the per-layer
metrics of the traced ones, named by module; a layer a workload never
enters reads 0.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (input events not reflected
exactly once; all of a repetition's events when its results differ from
the oracle) and ``metrics``.  The line before it records the run's base
(hardware, versions, input sizes, sample counts), and a full report with
every repetition and the span table is written to
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import pickle
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from common import (FACILITY_RECORD, WORKLOADS, percentile,
                    result_mismatches, tail)

HERE = os.path.dirname(os.path.abspath(__file__))

#: Synthetic users per facility.  Sized so that one run of every
#: workload holds several repetitions within ``run_seconds``.
DEFAULT_USERS = 300

#: Synthetic users per facility in ``--self-check``.
SELF_CHECK_USERS = 40

#: Facilities in the benchmark's corpus; facility ``j`` is generated
#: with dataset seed ``j``.  A run measures ``FACILITIES[workload]`` of
#: them, drawn by ``--seed``.  At 300 users the facility-to-facility
#: variation in size and shape alone moves a facility's events_per_s by
#: ~20% -- per-day, per-trigger and per-file costs do not scale with the
#: event count -- so a run averages over several, and drawing them from
#: a corpus twice that size keeps the draw from dominating the spread
#: between seeds.
CORPUS = 12

#: Facilities per run, as many as one repetition each fits in a run.
FACILITIES = {"replay-spectrum": 6, "serve-file": 6, "ingest-durable": 3}

#: Wall-clock cap on one repetition (its child processes are killed).
REP_TIMEOUT_S = 120.0

perf = time.perf_counter


class RepFailed(RuntimeError):
    """A repetition's child process failed or broke the protocol."""


class Child:
    """A child process speaking line-oriented JSON on stdout."""

    def __init__(self, argv: list[str], env: dict, cwd: str) -> None:
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     env=env, cwd=cwd)
        self.argv = argv
        self._timer = threading.Timer(REP_TIMEOUT_S, self.proc.kill)
        self._timer.daemon = True
        self._timer.start()

    def expect(self, word: str) -> None:
        line = self.proc.stdout.readline().strip()
        if line != word:
            raise RepFailed(f"{self.argv[1]}: expected {word!r}, got "
                            f"{line!r}")

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def finish(self) -> dict:
        out, _ = self.proc.communicate()
        self._timer.cancel()
        lines = out.strip().splitlines()
        if self.proc.returncode != 0 or not lines:
            raise RepFailed(f"{self.argv[1]} exited "
                            f"{self.proc.returncode}: {lines[-1:]}")
        try:
            return json.loads(lines[-1])
        except ValueError as exc:
            raise RepFailed(f"{self.argv[1]}: bad report: {exc}") from None

    def stop(self) -> None:
        self._timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                pipe.close()


# ---------------------------------------------------------------------------
# inputs and oracle (untimed, in preparation workers)


def source_key(root: str) -> str:
    """Digest of the program and benchmark sources, naming a corpus."""
    digest = hashlib.sha256()
    for base in (os.path.join(root, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()[:16]


def prepare(workload: str, users: int, seed: int, root: str,
            env: dict) -> list[dict]:
    """The run's facilities, drawn from the corpus by ``seed``.

    A facility is prepared (dataset, workspace, oracle, frames) once per
    checkout and source digest and kept under ``.bench_work/corpus/``;
    missing ones are made by ``prepare.py`` children, one per CPU --
    plain children that are waited for, rather than a
    ``multiprocessing`` pool, whose spawn start method leaves a
    resource-tracker process behind the orchestrator.
    """
    corpus = os.path.join(root, ".bench_work", "corpus", source_key(root),
                          f"{workload}-{users}u")
    picks = random.Random(seed).sample(range(CORPUS), FACILITIES[workload])
    dirs = [os.path.join(corpus, f"facility{j}") for j in picks]
    missing = [[sys.executable, os.path.join(HERE, "prepare.py"),
                "--workload", workload, "--users", str(users),
                "--seed", str(j), "--work", d]
               for j, d in zip(picks, dirs)
               if not os.path.exists(os.path.join(d, FACILITY_RECORD))]
    width = os.cpu_count() or 1
    for first in range(0, len(missing), width):
        children: list[Child] = []
        try:
            for argv in missing[first:first + width]:
                children.append(Child(argv, env, root))
            for child in children:
                child.finish()
        finally:
            for child in children:
                child.stop()
    facilities = []
    for d in dirs:
        with open(os.path.join(d, FACILITY_RECORD), "rb") as f:
            fac = pickle.load(f)
        fac["workspace"] = os.path.join(d, fac["workspace"])
        if "frame_files" in fac:
            fac["frame_files"] = {name: os.path.join(d, path) for name, path
                                  in fac["frame_files"].items()}
        facilities.append(fac)
    return facilities


# ---------------------------------------------------------------------------
# one repetition


def run_rep(fac: dict, traced: bool, rep_dir: str, root: str,
            env: dict) -> dict:
    os.makedirs(rep_dir)
    results_path = os.path.join(rep_dir, "results.pkl")
    argv = [sys.executable, os.path.join(HERE, "sut.py"),
            "--workload", fac["workload"], "--workspace", fac["workspace"],
            "--results", results_path]
    if traced:
        argv.append("--trace")
    children: list[Child] = []
    started = perf()
    try:
        if fac["workload"] == "ingest-durable":
            # A relative Unix socket path stays short under any checkout
            # root (sun_path holds 108 bytes); every child runs in root.
            address = "unix:" + os.path.relpath(
                os.path.join(rep_dir, "ingest.sock"), root)
            argv += ["--address", address, "--checkpoint-dir",
                     os.path.join(rep_dir, "checkpoints")]
            gen = Child([sys.executable, os.path.join(HERE, "loadgen.py"),
                         "--address", address]
                        + [arg for name, path in fac["frame_files"].items()
                           for arg in ("--source", f"{name}={path}")],
                        env, root)
            children.append(gen)
            # The generator loads its frames before the system starts,
            # so nothing else competes for the CPUs while setup_s runs.
            gen.expect("ready")
            sut = Child(argv, env, root)
            children.append(sut)
            sut.expect("ready")
            sut.send("go")
            gen.send("go")
            report = sut.finish()
            report["loadgen"] = gen.finish()
        else:
            sut = Child(argv, env, root)
            children.append(sut)
            report = sut.finish()
        with open(results_path, "rb") as f:
            outputs = pickle.load(f)
    finally:
        for child in children:
            child.stop()
    report["elapsed_s"] = perf() - started
    report["traced"] = traced
    check_rep(fac, report, outputs)
    return report


def oracle_problems(oracle: dict, results: dict, expected_policies: set,
                    what: str) -> list[str]:
    """How per-tenant ``results`` differ from the per-policy oracle."""
    problems = []
    got_policies = {r.policy for r in results.values()}
    if got_policies != expected_policies:
        problems.append(f"{what}: policies {sorted(got_policies)} != "
                        f"{sorted(expected_policies)}")
    for name, result in results.items():
        want = oracle.get(result.policy)
        bad = (["policy"] if want is None
               else result_mismatches(result, want))
        if bad:
            problems.append(f"{what}: {name} differs from the oracle in "
                            f"{', '.join(bad)}")
    return problems


def check_rep(fac: dict, report: dict, outputs: dict) -> None:
    """Oracle, drain and durability checks; sets ``ok``, ``failed`` and
    ``problems``."""
    oracle = fac["oracle"]
    n = fac["n_events"]
    durable = fac["workload"] == "ingest-durable"
    expected_policies = {"ActiveDR"} if durable else set(oracle)
    problems = oracle_problems(oracle, outputs["results"], expected_policies,
                               "results")
    if durable:
        # A link per ActiveDR trigger (every 7 days) plus finalize's;
        # the newest must restore the end state at cursor == n.
        links = len(oracle["ActiveDR"].reports) + 1
        if (report["checkpoints_written"] != links
                or report["checkpoint_failures"]
                or report["checkpoints_corrupt"]):
            problems.append(
                f"checkpoints: {report['checkpoints_written']} written "
                f"(expected {links}), {report['checkpoint_failures']} "
                f"failed, {report['checkpoints_corrupt']} corrupt")
        if report["restored_cursor"] != n:
            problems.append(f"newest checkpoint restores cursor "
                            f"{report['restored_cursor']} != {n}")
        problems += oracle_problems(oracle, outputs["restored"],
                                    expected_policies, "restored")
    results_ok = not problems

    if report["cursor"] != n:
        problems.append(f"cursor {report['cursor']} != {n} events published")
    if report["consumed"] != fac["events_per_source"]:
        problems.append(f"consumed {report['consumed']} != published "
                        f"{fac['events_per_source']}")
    for key in ("source_consumed", "source_received"):
        if key in report and report[key] != fac["published"]:
            problems.append(f"{key} {report[key]} != published "
                            f"{fac['published']}")
    gen = report.get("loadgen")
    if gen and gen["errors"]:
        problems.append(f"load generator: {gen['errors']}")

    lost = abs(n - report["cursor"]) + report.get("quarantined", 0)
    report["failed"] = n if not results_ok else min(n, lost)
    report["ok"] = not problems
    report["problems"] = problems


# ---------------------------------------------------------------------------
# metrics


def across_facilities(facilities: list[dict], reps: list[dict],
                      traced: bool, value) -> float:
    """Mean over facilities of ``value(fac, rep)``'s median over the
    facility's repetitions (untraced or traced)."""
    return statistics.fmean(
        statistics.median(value(fac, r) for r in reps
                          if r["facility"] == k and r["traced"] == traced)
        for k, fac in enumerate(facilities))


def end_to_end(facilities: list[dict], reps: list[dict]) -> dict:
    def metric(value, unit):
        return {"value": across_facilities(facilities, reps, False, value),
                "unit": unit}

    # Throughput: the facilities' events over the sum of each one's mean
    # clock, so every facility weighs the same however many repetitions
    # the time budget gave it.  Means, not medians: the host's speed
    # drifts in phases of ~10-20 s, which a mean follows in proportion
    # and a median jumps between.
    clocks = [statistics.fmean(r["run_s"] for r in reps
                               if r["facility"] == k and not r["traced"])
              for k in range(len(facilities))]
    events_per_s = (sum(fac["n_events"] for fac in facilities)
                    / sum(clocks))
    return {
        "events_per_s": {"value": events_per_s, "unit": "1/s"},
        "setup_s": metric(lambda f, r: r["setup_s"], "s"),
        "peak_rss_mb": metric(lambda f, r: r["peak_rss_mb"], "MiB"),
    }


def per_layer(facilities: list[dict], reps: list[dict]) -> dict:
    """Per-layer metrics of the traced repetitions."""
    untraced_wall = [
        statistics.median(r["setup_s"] + r["run_s"] for r in reps
                          if r["facility"] == k and not r["traced"])
        for k in range(len(facilities))]

    def values(fac, r):
        return layer_values(fac, r, untraced_wall[r["facility"]])

    first = next(r for r in reps if r["traced"])
    units = values(facilities[first["facility"]], first)
    return {name: {"value": across_facilities(
                facilities, reps, True,
                lambda f, r, name=name: values(f, r)[name][0]),
                   "unit": unit}
            for name, (_value, unit) in units.items()}


def layer_values(fac: dict, r: dict, untraced_wall: float) -> dict:
    spans = r["spans"]

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def count(name):
        return spans.get(name, {}).get("count", 0)

    triggers = r.get("trigger_samples", [])
    tail_pct, tail_s = tail(triggers)
    ckpts = r.get("checkpoint_samples", [])
    links = r.get("checkpoint_link_bytes", [])
    decode = r.get("decode_samples", [])
    items = r.get("items", 0)
    wall = r["setup_s"] + r["run_s"]
    n = fac["n_events"]
    return {
        "traces.parse_s": (total("traces.parse"), "s"),
        "vfs.snapshot_s": (total("vfs.snapshot"), "s"),
        "emulation.compile_s": (total("emulation.compile"), "s"),
        "emulation.replay_s": (total("emulation.replay"), "s"),
        "core.activeness_evals": (r.get("activeness_evals", 0), "count"),
        "core.refold_share": (r.get("eval_refolded", 0)
                              / max(1, r.get("eval_users", 0)), "share"),
        "stream.wait_s": (total("stream.wait"), "s"),
        "stream.items": (items, "count"),
        "stream.rows_per_item": (r.get("rows", 0) / items if items else 0.0,
                                 "rows"),
        "stream.quarantined": (r.get("quarantined", 0), "count"),
        "stream.checkpoint_s": (total("stream.checkpoint"), "s"),
        "stream.checkpoint_p50_ms": (
            1e3 * percentile(ckpts, 50) if ckpts else 0.0, "ms"),
        "stream.checkpoints": (count("stream.checkpoint"), "count"),
        "stream.checkpoint_mb_per_link": (
            sum(links) / len(links) / 1e6 if links else 0.0, "MB"),
        "server.protocol.decode_p50_us": (
            1e6 * percentile(decode, 50) if decode else 0.0, "us"),
        "server.protocol.batches": (r.get("batches_received", 0), "count"),
        "server.protocol.wire_mb": (fac.get("wire_bytes", 0) / 1e6, "MB"),
        "server.ingest.send_blocked_s": (
            r.get("loadgen", {}).get("send_blocked_s", 0.0), "s"),
        "server.ingest.send_cpu_s": (
            r.get("loadgen", {}).get("send_cpu_s", 0.0), "s"),
        "server.tenants.setup_s": (total("server.tenants.setup"), "s"),
        "server.tenants.ingest_calls": (count("server.tenants.ingest"),
                                        "count"),
        "server.tenants.ingest_self_s": (
            self_s("server.tenants.ingest")
            - r.get("trigger_in_ingest_s", 0.0), "s"),
        "server.tenants.trigger_s": (r.get("trigger_s", 0.0), "s"),
        "server.tenants.trigger_p50_ms": (
            1e3 * percentile(triggers, 50) if triggers else 0.0, "ms"),
        "server.tenants.trigger_tail_ms": (1e3 * tail_s, "ms"),
        "server.tenants.trigger_tail_pct": (tail_pct if triggers else 0.0,
                                            "%"),
        "server.tenants.triggers": (len(triggers), "count"),
        "bench.unattributed_s": (wall - r["span_self_sum_s"], "s"),
        "bench.trace_overhead": (wall / untraced_wall, "x"),
        "error_rate": (r["failed"] / n, "share"),
    }


def base_record(seed: int, facilities: list[dict],
                reps: list[dict]) -> dict:
    import numpy

    def facility_base(k, fac):
        base = {key: fac[key] for key in ("seed", "n_events",
                                          "events_per_source",
                                          "snapshot_files")}
        base["repetitions"] = {
            mode: sum(r["facility"] == k and r["traced"] == traced
                      for r in reps)
            for mode, traced in (("timed", False), ("traced", True))}
        if "published" in fac:
            base["wire_sources"] = fac["published"]
            base["wire_bytes"] = fac["wire_bytes"]
        traced = [r for r in reps if r["facility"] == k and r["traced"]
                  and r["ok"]]
        if traced:
            base["percentile_samples"] = {
                key: len(traced[0].get(samples, []))
                for key, samples in (
                    ("stream.checkpoint_p50_ms", "checkpoint_samples"),
                    ("server.protocol.decode_p50_us", "decode_samples"),
                    ("server.tenants.trigger_*", "trigger_samples"))}
        return base

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": facilities[0]["workload"],
        "seed": seed,
        "corpus": CORPUS,
        "users": facilities[0]["users"],
        "facilities": [facility_base(k, fac)
                       for k, fac in enumerate(facilities)],
    }


# ---------------------------------------------------------------------------
# running a workload


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 users: int, root: str) -> tuple[list[dict], list[dict]]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    scratch = os.path.join(root, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
    try:
        facilities = prepare(workload, users, seed, root, env)
        # Every facility gets an untraced repetition (and, traced, one
        # of each kind) before the time budget may end the run.
        minimum = len(facilities) * (2 if trace else 1)
        reps: list[dict] = []
        started = perf()
        for i in itertools.count():
            k = i % len(facilities)
            traced = trace and (i // len(facilities)) % 2 == 1
            try:
                rep = run_rep(facilities[k], traced,
                              os.path.join(work, f"rep{i}"), root, env)
            except RepFailed as exc:
                rep = {"traced": traced, "ok": False,
                       "failed": facilities[k]["n_events"],
                       "problems": [str(exc)]}
            rep["facility"] = k
            reps.append(rep)
            if not rep["ok"]:
                break
            if len(reps) < minimum:
                continue
            used = perf() - started
            typical = statistics.median(r["elapsed_s"] for r in reps)
            if used + typical > seconds:
                break
        return facilities, reps
    finally:
        shutil.rmtree(work, ignore_errors=True)


def write_report(root: str, name: str, payload: dict) -> str:
    out_dir = os.path.join(root, ".bench_work", "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as f:
        json.dump(payload, f, indent=1, default=str)
        f.write("\n")
    return path


def measure(args, root: str) -> int:
    facilities, reps = run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace), DEFAULT_USERS, root)
    ok = all(r["ok"] for r in reps)
    metrics = (per_layer(facilities, reps) if args.trace and ok
               else end_to_end(facilities, reps) if ok else {})
    base = base_record(args.seed, facilities, reps)
    slim = [{k: v for k, v in r.items()
             if not k.endswith("_samples") and k != "checkpoint_link_bytes"}
            for r in reps]
    path = write_report(
        root, f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json",
        {"base": base, "metrics": metrics, "repetitions": slim})
    for r in reps:
        for problem in r["problems"]:
            print(f"FAILED: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    print(f"  report: {os.path.relpath(path, root)}")
    print(json.dumps({"base": base}))
    print(json.dumps({
        "correct": ok,
        "attempted": sum(facilities[r["facility"]]["n_events"]
                         for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    }))
    return 0 if ok else 1


def self_check(root: str) -> int:
    """Every workload at a tiny size, traced and untraced, end to end."""
    failures = 0
    for workload in WORKLOADS:
        facilities, reps = run_workload(workload, seed=11, seconds=0.0,
                                        trace=True, users=SELF_CHECK_USERS,
                                        root=root)
        problems = [p for r in reps for p in r["problems"]]
        if not problems:
            per_layer(facilities, reps)  # the metric derivation runs too
        status = "ok" if not problems else "FAILED"
        print(f"self-check {workload}: {status} ({len(reps)} repetitions "
              f"over {len(facilities)} facilities)")
        for problem in problems:
            print(f"  {problem}")
        failures += bool(problems)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload once at a tiny size and "
                             "fail on any oracle mismatch or undrained "
                             "cursor")
    args = parser.parse_args(argv)

    # A terminated run still stops its children: SystemExit unwinds
    # through every ``finally`` that owns a child process.
    signal.signal(signal.SIGTERM,
                  lambda signum, _frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        print("perfbench: run from the root of a checkout (no src/repro "
              "here)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    if args.self_check:
        return self_check(root)
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args, root)


if __name__ == "__main__":
    raise SystemExit(main())
