"""Streaming building blocks: event feeds, incremental state,
crash-safe checkpoints.

The batch pipeline (``repro.emulation``) answers "what would this policy
have done over this year of traces"; the streaming engine answers the
production question -- "run the policy *now*, continuously, over live
feeds" -- while provably computing the same thing.  This package holds
what that engine consumes and persists: the merged event feeds (per
event and columnar batches), the reliability layer (retries,
quarantine, dead letters), the incremental activeness and replay state,
and the self-verifying checkpoint chain.  The engine itself is
:class:`repro.server.MultiTenantService` (one tenant per policy), pinned
bit-identical to the batch ``FastEmulator`` across the full retention
spectrum, including across a checkpoint / kill / resume cycle.
"""

from .batch import (BatchBuilder, BatchRun, EventBatch, merge_stream_items,
                    skip_stream_items)
from .checkpoint import (CheckpointCorruption, CheckpointManager,
                         atomic_write_npz, ingest_cursors, load_checkpoint,
                         verify_checkpoint)
from .events import (EVENT_ACCESS, EVENT_JOB, EVENT_PUBLICATION, StreamEvent,
                     dataset_event_stream, merge_event_streams, skip_events,
                     workspace_event_stream)
from .reliability import (DeadLetterLog, EventQuarantine,
                          ReliableEventStream, ResilientSource, RetryPolicy,
                          SourceHealth, TailingFileSource)
from .state import (GrowableReplayState, IncrementalActivenessState,
                    PathCatalog)

__all__ = [
    "BatchBuilder",
    "BatchRun",
    "EventBatch",
    "merge_stream_items",
    "skip_stream_items",
    "CheckpointCorruption",
    "CheckpointManager",
    "atomic_write_npz",
    "ingest_cursors",
    "load_checkpoint",
    "verify_checkpoint",
    "EVENT_ACCESS",
    "EVENT_JOB",
    "EVENT_PUBLICATION",
    "StreamEvent",
    "dataset_event_stream",
    "merge_event_streams",
    "skip_events",
    "workspace_event_stream",
    "DeadLetterLog",
    "EventQuarantine",
    "ReliableEventStream",
    "ResilientSource",
    "RetryPolicy",
    "SourceHealth",
    "TailingFileSource",
    "GrowableReplayState",
    "IncrementalActivenessState",
    "PathCatalog",
]
