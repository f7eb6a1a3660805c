"""Definitions shared by the benchmark's orchestrator and child processes.

Nothing here imports the program at module import time: ``run.py``
must be able to load this module, and fail cleanly, in a checkout
that has no ``src/`` tree.
"""

from __future__ import annotations

WORKLOADS = ("replay-spectrum", "ingest-durable", "serve-file")

#: Tenant fleets of the two server workloads (``TenantSpec.parse`` form).
#: ``serve-file`` runs the whole retention spectrum, the same four
#: policies ``replay-spectrum`` compares; ``ingest-durable`` runs the
#: production daemon's single ActiveDR tenant.
SERVE_FILE_TENANTS = ("name=flt,policy=flt", "name=activedr,policy=activedr",
                      "name=value,policy=value", "name=cache,policy=cache")
INGEST_TENANTS = ("name=activedr,policy=activedr",)

#: ``ingest-durable`` wire sources, in merge tie-break order: jobs and
#: publications travel as one activity source, accesses as the other.
INGEST_SOURCES = ("activity", "accesses")

#: ``ingest-durable`` durability settings: a checkpoint link every 7
#: days (every ActiveDR trigger), the newest 3 links retained.
CHECKPOINT_EVERY_DAYS = 7
CHECKPOINT_RETAIN = 3

#: A prepared facility's record (paths relative to its directory,
#: oracle, input sizes), written last: a directory without it is
#: incomplete.
FACILITY_RECORD = "facility.pkl"

#: Percentiles a tail may be reported at, lowest first.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def percentile(samples, pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample list."""
    import numpy as np

    return float(np.percentile(samples, pct))


def tail(samples) -> tuple[float, float]:
    """``(pct, value)``: the highest percentile with >= 10 samples beyond."""
    n = len(samples)
    best = TAIL_PERCENTILES[0]
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10.0:
            best = pct
    return best, (percentile(samples, best) if samples else 0.0)


def result_mismatches(got, want) -> list[str]:
    """Fields of one policy's result that differ from the oracle's.

    The fields are those the repository's bit-identity checks compare:
    daily accesses and misses, per-group misses, every retention
    report, the group-count history and the final classes, bytes and
    file count.
    """
    import numpy as np

    bad = []
    if got.policy != want.policy:
        bad.append("policy")
    if not np.array_equal(got.metrics.accesses, want.metrics.accesses):
        bad.append("accesses")
    if not np.array_equal(got.metrics.misses, want.metrics.misses):
        bad.append("misses")
    for cls, series in want.metrics.group_misses.items():
        other = got.metrics.group_misses.get(cls)
        if other is None or not np.array_equal(other, series):
            bad.append(f"group_misses[{cls.name}]")
    if got.reports != want.reports:
        bad.append("reports")
    if got.group_count_history != want.group_count_history:
        bad.append("group_count_history")
    if got.final_classes != want.final_classes:
        bad.append("final_classes")
    if got.final_total_bytes != want.final_total_bytes:
        bad.append("final_total_bytes")
    if got.final_file_count != want.final_file_count:
        bad.append("final_file_count")
    return bad
