"""The client's per-wait deadline: no task per wait, same guarantees.

Every wait of :class:`ServiceClient` arms one timer that cancels only the
waiting task; the cancellation surfaces as :class:`ServiceTimeout` when,
and only when, that timer fired.
"""

from __future__ import annotations

import asyncio
import sys
import time

import pytest

from repro.errors import ServiceTimeout
from repro.service.client import ServiceClient
from repro.service.protocol import Request, encode_request

TIMEOUT = 0.1
#: How late past its deadline a timeout may surface on a loaded host.
SLACK = 0.5

needs_uncancel = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="Task.cancelling/uncancel are Python 3.11+"
)


def run(coro):
    return asyncio.run(coro)


class silent_peer:
    """Accepts connections, reads nothing, answers nothing."""

    async def __aenter__(self):
        self._release = asyncio.Event()

        async def handler(reader, writer):
            await self._release.wait()
            writer.close()

        self._server = await asyncio.start_server(handler, "127.0.0.1", 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc_info):
        self._release.set()
        self._server.close()
        await self._server.wait_closed()


async def timed_failure(awaitable):
    """(exception type, seconds) of an awaitable expected to fail."""
    start = time.perf_counter()
    with pytest.raises(Exception) as info:
        await awaitable
    return info.type, time.perf_counter() - start


class TestClientDeadline:
    @pytest.mark.parametrize("call", ["get", "get_window"])
    def test_silent_server_times_out_within_timeout(self, call):
        async def scenario():
            async with silent_peer() as peer:
                async with await ServiceClient.connect(
                    "127.0.0.1", peer.port, timeout=TIMEOUT
                ) as client:
                    op = client.get(1) if call == "get" else client.get_window([1, 2, 3])
                    return await timed_failure(op)

        kind, seconds = run(scenario())
        assert kind is ServiceTimeout
        assert TIMEOUT * 0.9 <= seconds < TIMEOUT + SLACK

    def test_split_send_and_read_tasks_each_own_their_deadline(self):
        """The open-loop driver sends from one task and reads from another:
        the read's deadline fails the reader alone."""

        async def scenario():
            async with silent_peer() as peer:
                async with await ServiceClient.connect(
                    "127.0.0.1", peer.port, timeout=TIMEOUT
                ) as client:
                    reader = asyncio.create_task(timed_failure(client._read_response()))
                    sends = 0
                    while not reader.done():  # keep sending past the deadline
                        await client._send(encode_request(Request("GET", key=sends)))
                        sends += 1
                        await asyncio.sleep(TIMEOUT / 10)
                    # the sender outlived the reader's deadline untouched
                    await client._send(encode_request(Request("GET", key=sends)))
                    return await reader, sends

        (kind, seconds), sends = run(scenario())
        assert kind is ServiceTimeout
        assert TIMEOUT * 0.9 <= seconds < TIMEOUT + SLACK
        assert sends >= 5

    def test_outer_cancel_is_not_a_timeout(self):
        async def scenario():
            async with silent_peer() as peer:
                async with await ServiceClient.connect(
                    "127.0.0.1", peer.port, timeout=5.0
                ) as client:
                    task = asyncio.create_task(client.get(1))
                    await asyncio.sleep(TIMEOUT)
                    task.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await task
                    return task.cancelled()

        assert run(scenario())

    @needs_uncancel
    def test_outer_cancel_racing_the_deadline_wins(self):
        """Deadline and outer cancel fire in the same loop iteration: the
        caller asked to cancel, so it gets CancelledError."""

        async def scenario():
            async with silent_peer() as peer:
                async with await ServiceClient.connect(
                    "127.0.0.1", peer.port, timeout=TIMEOUT
                ) as client:
                    loop = asyncio.get_running_loop()
                    task = asyncio.create_task(client.get(1))
                    await asyncio.sleep(0)  # the wait (and its timer) is armed
                    loop.call_later(TIMEOUT * 1.2, task.cancel)
                    # block the loop past both timers so they run back to back
                    loop.call_later(TIMEOUT / 2, time.sleep, TIMEOUT * 2)
                    with pytest.raises(asyncio.CancelledError):
                        await task

        run(scenario())

    @needs_uncancel
    def test_timeout_leaves_no_pending_cancel(self):
        async def scenario():
            async with silent_peer() as peer:
                async with await ServiceClient.connect(
                    "127.0.0.1", peer.port, timeout=TIMEOUT
                ) as client:
                    with pytest.raises(ServiceTimeout):
                        await client.get(1)
                    task = asyncio.current_task()
                    assert task.cancelling() == 0
                    await asyncio.sleep(TIMEOUT)  # no stray cancel lands later
                    return task.cancelling()

        assert run(scenario()) == 0
