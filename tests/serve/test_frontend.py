"""The wire front end's stop order, at the shard service.

``stop()`` stops accepting, lets in-flight work finish — the busy
connection gets its answer — starts no new line, and then closes every
live connection, idle ones included, before it returns.
"""

import asyncio
import json

from repro.serve import CharacterizationService

from .conftest import run
from .test_scheduler import BlockingResolver, settle


def test_stop_answers_the_busy_line_then_closes_every_connection(
        thread_config):
    resolver = BlockingResolver()

    async def main():
        service = CharacterizationService(thread_config, resolver=resolver)
        host, port = await service.start_tcp()
        idle_r, idle_w = await asyncio.open_connection(host, port)
        busy_r, busy_w = await asyncio.open_connection(host, port)
        busy_w.write(b'{"id":"b","kind":"quadrant",'
                     b'"params":{"workload":"gemv"}}\n')
        await busy_w.drain()
        await settle(resolver.started.is_set)
        stopping = asyncio.ensure_future(service.stop())
        await asyncio.sleep(0.05)
        # a line that arrives while the service drains is not started
        idle_w.write(b'{"id":"late","kind":"ping"}\n')
        await idle_w.drain()
        await asyncio.sleep(0.05)
        held = not stopping.done()     # the drain waits for the busy job
        resolver.release.set()
        reply = await asyncio.wait_for(busy_r.readline(), 10)
        await asyncio.wait_for(stopping, 10)
        rest = [await asyncio.wait_for(r.read(), 5)
                for r in (busy_r, idle_r)]
        for w in (busy_w, idle_w):
            w.close()
        return held, json.loads(reply), rest

    held, reply, rest = run(main())
    assert held
    assert reply["id"] == "b" and reply["ok"] is True
    assert rest == [b"", b""]  # both closed; the late ping got no answer
