"""The worker link's one deadline: anchored on the oldest pending send.

A :class:`WorkerLink` arms one timer per link. A worker that stops
answering fails every pending request with :class:`ServiceTimeout` within
``timeout`` of the oldest send and resets the link; the next send
reconnects; and settling a request another timeout already failed never
touches the link that replaced the failed one.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.cluster.link import WorkerLink
from repro.errors import ServiceTimeout
from repro.service.protocol import BINARY_HEADER_SIZE, encode_frame

TIMEOUT = 0.1
#: How late past its deadline a timeout may surface on a loaded host.
SLACK = 0.5


def run(coro):
    return asyncio.run(coro)


def request(key: int) -> bytes:
    return encode_frame({"op": "GET", "key": key})


class scripted_worker:
    """A binary-framed fake worker.

    Connections are numbered from 1; connection ``n`` reads every frame
    and answers ``{"ok": true, "key": k}`` after ``delay`` seconds only
    when ``n >= answer_from``, and otherwise stays silent.
    """

    def __init__(self, *, answer_from: int = 1, delay: float = 0.0):
        self.answer_from = answer_from
        self.delay = delay
        self.connections = 0

    async def __aenter__(self):
        self._writers = []

        async def handler(reader, writer):
            self.connections += 1
            answers = self.connections >= self.answer_from
            self._writers.append(writer)
            try:
                while True:
                    header = await reader.readexactly(BINARY_HEADER_SIZE)
                    body = await reader.readexactly(int.from_bytes(header[1:], "big"))
                    if answers:
                        if self.delay:
                            await asyncio.sleep(self.delay)
                        key = json.loads(body)["key"]
                        writer.write(encode_frame({"ok": True, "key": key}))
            except (asyncio.IncompleteReadError, ConnectionError):
                pass

        self._server = await asyncio.start_server(handler, "127.0.0.1", 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc_info):
        for writer in self._writers:
            writer.close()
        self._server.close()
        await self._server.wait_closed()


class TestLinkDeadline:
    def test_silent_worker_fails_every_pending_request_then_reconnects(self):
        async def scenario():
            async with scripted_worker(answer_from=2) as worker:
                link = WorkerLink("w0", "127.0.0.1", worker.port, timeout=TIMEOUT)
                start = time.perf_counter()
                futures = [await link.send(request(k)) for k in range(3)]
                outcomes = []
                for future in futures:
                    with pytest.raises(ServiceTimeout):
                        await link.settle(future)
                    outcomes.append(time.perf_counter() - start)
                assert not link.connected and link.pending == 0
                body = await link.call(request(7))  # the next send reconnects
                await link.close()
                return outcomes, json.loads(body), link.connects, worker.connections

        outcomes, body, connects, connections = run(scenario())
        assert TIMEOUT * 0.9 <= outcomes[0] < TIMEOUT + SLACK
        assert outcomes[-1] < TIMEOUT + SLACK  # one reset failed them all
        assert body == {"ok": True, "key": 7}
        assert connects == connections == 2

    def test_sibling_timeout_keeps_the_reconnected_link(self):
        """A and B are pending on a silent link; A times out (resetting the
        link) and its retry succeeds on a new connection. Settling B then
        surfaces B's timeout and leaves the new connection alone."""

        async def scenario():
            async with scripted_worker(answer_from=2) as worker:
                link = WorkerLink("w0", "127.0.0.1", worker.port, timeout=TIMEOUT)
                a = await link.send(request(1))
                b = await link.send(request(2))
                with pytest.raises(ServiceTimeout):
                    await link.settle(a)
                retried = json.loads(await link.call(request(1)))
                with pytest.raises(ServiceTimeout):
                    await link.settle(b)
                state = link.connected, link.connects
                after = json.loads(await link.call(request(3)))
                await link.close()
                return retried, state, after, link.connects

        retried, state, after, connects = run(scenario())
        assert retried == {"ok": True, "key": 1}
        assert state == (True, 2)
        assert after == {"ok": True, "key": 3}
        assert connects == 2

    def test_steady_answers_never_time_out(self):
        """Each request's deadline runs from its own send: a link whose
        worker answers every request within ``timeout`` survives a run far
        longer than ``timeout`` (the one timer re-arms for each new head)."""

        async def scenario():
            async with scripted_worker(delay=TIMEOUT / 4) as worker:
                link = WorkerLink("w0", "127.0.0.1", worker.port, timeout=TIMEOUT)
                loop = asyncio.get_running_loop()
                end = loop.time() + TIMEOUT * 5
                calls = 0
                while loop.time() < end:
                    await link.call(request(calls))
                    calls += 1
                connects = link.connects
                await link.close()
                return calls, connects

        calls, connects = run(scenario())
        assert calls >= 5
        assert connects == 1

    def test_pipelined_requests_share_the_oldest_deadline(self):
        """Requests sent one after another behind a silent head all fail
        when the head's deadline passes, not each a full timeout later."""

        async def scenario():
            async with scripted_worker(answer_from=2) as worker:
                link = WorkerLink("w0", "127.0.0.1", worker.port, timeout=TIMEOUT)
                start = time.perf_counter()
                futures = [await link.send(request(0))]
                await asyncio.sleep(TIMEOUT / 2)
                futures.append(await link.send(request(1)))
                # the outer bound only turns a missing deadline into a failure
                results = await asyncio.wait_for(
                    asyncio.gather(*futures, return_exceptions=True), 10 * TIMEOUT
                )
                elapsed = time.perf_counter() - start
                await link.close()
                return results, elapsed

        results, elapsed = run(scenario())
        assert all(isinstance(r, ServiceTimeout) for r in results)
        assert TIMEOUT * 0.9 <= elapsed < TIMEOUT + SLACK
