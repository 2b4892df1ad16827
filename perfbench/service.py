"""The ``serve_zipf`` service process: a 2-shard fabric behind a router.

``python -m perfbench.service [--trace-dir D]`` with ``REPRO_CACHE_DIR``
set by the caller.  It boots :class:`repro.fabric.cluster.HostedFabric`
(two serve shards with two model threads each, consistent-hash router in
front), prints one JSON ready line with the router and shard addresses,
then answers control lines on stdin:

* ``mark`` — print this process's CPU seconds and peak RSS;
* ``stop`` — stop the fabric, write the trace record, print the final
  CPU/RSS line and exit.

Running the service in its own process keeps the load generator's
client threads off the service's interpreter lock.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _usage() -> dict[str, float]:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_s": ru.ru_utime + ru.ru_stime, "peak_rss_kb": ru.ru_maxrss,
            "t": time.time()}


def _say(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


#: serve shards behind the router (each with HostedFabric's default two
#: model threads)
SHARDS = 2


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench.service")
    ap.add_argument("--trace-dir", default=None)
    args = ap.parse_args(argv)

    tracer = None
    if args.trace_dir:
        from perfbench.tracer import Tracer, install
        tracer = Tracer(Path(args.trace_dir))
    t0 = time.perf_counter()
    from repro.fabric.cluster import HostedFabric
    import_s = time.perf_counter() - t0
    if tracer is not None:
        install(tracer)

    fabric = HostedFabric(shards=SHARDS)
    router = fabric.start()
    try:
        shards = {sid: [spec.host, spec.port]
                  for sid, spec in fabric.router.specs.items()}
        _say({"ready": True, "router": list(router), "shards": shards,
              "import_s": import_s, **_usage()})
        for line in sys.stdin:
            cmd = line.strip()
            if cmd == "mark":
                _say(_usage())
            elif cmd == "stop":
                break
    finally:
        fabric.stop()
    if tracer is not None:
        tracer.flush()
    _say({"stopped": True, **_usage()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
