"""Closed-loop load generator for ``ingest-durable``: one separate process.

Reads the pre-encoded v2 batch payloads the orchestrator wrote (one
file per wire source), prints ``ready``, waits for ``go`` on stdin, then
publishes every source over its own connection -- one thread per
source -- as fast as the server's backpressure lets it::

    python3 perfbench/loadgen.py --address unix:PATH \\
        --source activity=FILE --source accesses=FILE

The last stdout line is a JSON report: ``send_blocked_s`` (wall time
from ``go`` to the last end-ack) and ``send_cpu_s`` (this process's CPU
time over the same span).  A slow generator shows as CPU time close to
its blocked time; a slow server as blocked time far above CPU time.
"""

from __future__ import annotations

import argparse
import json
import struct
import sys
import threading
import time

_LEN = struct.Struct("<Q")


def read_payloads(path: str) -> list[bytes]:
    """Length-prefixed payloads, as ``run.py`` writes them."""
    with open(path, "rb") as f:
        data = f.read()
    out, pos = [], 0
    while pos < len(data):
        (n,) = _LEN.unpack_from(data, pos)
        pos += _LEN.size
        out.append(data[pos:pos + n])
        pos += n
    return out


def write_payloads(path: str, payloads) -> None:
    with open(path, "wb") as f:
        for payload in payloads:
            f.write(_LEN.pack(len(payload)))
            f.write(payload)


def main(argv=None) -> int:
    from repro.server.ingest import publish_batches

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--address", required=True)
    parser.add_argument("--source", action="append", required=True,
                        metavar="NAME=FILE")
    args = parser.parse_args(argv)

    feeds = []
    for spec in args.source:
        name, _, path = spec.partition("=")
        feeds.append((name, read_payloads(path)))
    errors: list[str] = []

    def publish(name: str, payloads: list[bytes]) -> None:
        try:
            publish_batches(args.address, name, payloads,
                            producer=f"perfbench-{name}")
        except Exception as exc:  # reported, and fails the repetition
            errors.append(f"{name}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=publish, args=feed, name=feed[0])
               for feed in feeds]
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        raise SystemExit("loadgen: expected 'go' on stdin")
    t0, cpu0 = time.perf_counter(), time.process_time()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    print(json.dumps({"send_blocked_s": time.perf_counter() - t0,
                      "send_cpu_s": time.process_time() - cpu0,
                      "errors": errors}), flush=True)
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
