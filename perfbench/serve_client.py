"""A closed-loop HTTP client for ``repro serve``.

Each client sends its next request only after the previous one was
answered.  A request is sent with ``Connection: close`` and its reply
is read up to end of stream, as the program's own load-test client does;
an attempt with no complete reply within the client's limit times out,
counts as failed and is retried, as are refusals (429/503, honouring
``Retry-After``) and server errors.  A reply that differs from its
reference is never retried.

The client closes each connection with a reset (``SO_LINGER`` 0) after
reading the reply, so no ``TIME_WAIT`` entry is left on either side:
thousands of requests a run would otherwise fill the loopback port
range and make every later ``connect`` slower, run after run.
"""

import asyncio
import json
import socket
import struct
import time

from stats import Tally, classify

#: close with RST: no TIME_WAIT entry per request
_LINGER_RESET = struct.pack("ii", 1, 0)


def canonical(value):
    """The program's canonical JSON encoding (``serve.ops``)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


async def exchange(host, port, method, path, body=None, timeout=10.0):
    """One HTTP exchange: ``(status, headers, payload)``.

    Raises ``asyncio.TimeoutError`` when connecting, sending and reading
    to end of stream together take longer than *timeout*.
    """
    async def go():
        reader, writer = await asyncio.open_connection(host, port)
        writer.get_extra_info("socket").setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, _LINGER_RESET)
        try:
            data = b"" if body is None else json.dumps(body).encode()
            head = ("%s %s HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\n"
                    "Connection: close\r\n\r\n"
                    % (method, path, host, len(data))).encode("latin-1")
            writer.write(head + data)
            await writer.drain()
            raw = await reader.read(-1)
        finally:
            writer.close()
        header_blob, _, body_blob = raw.partition(b"\r\n\r\n")
        lines = header_blob.decode("latin-1").split("\r\n")
        try:
            status = int(lines[0].split()[1])
        except (IndexError, ValueError):
            return 0, {}, None
        headers = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        try:
            payload = json.loads(body_blob.decode("utf-8"))
        except ValueError:
            payload = None
        return status, headers, payload

    return await asyncio.wait_for(go(), timeout)


class LoopResult:
    """What the closed loop saw, per attempt and per request."""

    def __init__(self):
        self.tally = Tally()
        self.requests = []          # (template, latency_s, answered_at, ok)
        self.retries = 0
        self.first_ok_at = None
        self.answered = set()       # templates answered correctly
        self.all_answered_at = None
        self.end = None


async def closed_loop(host, port, templates, references, sequence,
                      clients, seconds, timeout, max_attempts=6,
                      grace=60.0):
    """Run *clients* closed-loop clients until *seconds* have passed
    since the first correct reply and every template has been answered
    correctly once; give up *grace* seconds after *seconds* from now.

    *sequence* yields template indices; each client takes the next one
    when it is free, and stops when it runs out.  Returns a
    :class:`LoopResult` whose times are ``time.monotonic()`` readings.
    """
    result = LoopResult()
    start = time.monotonic()

    async def send(index):
        template = templates[index]
        sent = time.monotonic()
        for attempt in range(max_attempts):
            if attempt:
                result.retries += 1
            status, headers, payload = None, {}, None
            try:
                status, headers, payload = await exchange(
                    host, port, "POST", "/v1/" + template["op"],
                    template["body"], timeout=timeout)
            except asyncio.TimeoutError:
                status = None
            except OSError:
                status = 0
            text = None
            if status == 200 and isinstance(payload, dict):
                text = canonical(payload.get("result"))
            outcome = classify(status, text, references[index])
            result.tally.record(outcome)
            now = time.monotonic()
            if outcome == "ok":
                result.requests.append((index, now - sent, now, True))
                if result.first_ok_at is None:
                    result.first_ok_at = now
                result.answered.add(index)
                if result.all_answered_at is None \
                        and len(result.answered) == len(templates):
                    result.all_answered_at = now
                return
            if outcome == "wrong":
                break
            pause = 0.1
            if outcome == "refused":
                try:
                    pause = min(2.0, float(headers.get("retry-after", 1)))
                except ValueError:
                    pause = 1.0
            await asyncio.sleep(pause)
        result.requests.append((index, time.monotonic() - sent,
                                time.monotonic(), False))

    async def client():
        while True:
            now = time.monotonic()
            if result.all_answered_at is not None \
                    and now - result.first_ok_at >= seconds:
                return
            if now - start >= seconds + grace:
                return
            index = next(sequence, None)
            if index is None:
                return
            await send(index)

    await asyncio.gather(*[client() for _ in range(clients)])
    result.end = time.monotonic()
    return result


async def wait_ready(host, port, deadline):
    """Poll ``/readyz`` until it answers 200; returns the monotonic time
    it did, or None at *deadline*."""
    while time.monotonic() < deadline:
        try:
            status, _, _ = await exchange(host, port, "GET", "/readyz",
                                          timeout=2.0)
            if status == 200:
                return time.monotonic()
        except (OSError, asyncio.TimeoutError):
            pass
        await asyncio.sleep(0.01)
    return None


async def metrics(host, port):
    """One ``/metrics`` snapshot, or None."""
    try:
        status, _, payload = await exchange(host, port, "GET", "/metrics",
                                            timeout=10.0)
    except (OSError, asyncio.TimeoutError):
        return None
    return payload if status == 200 else None
