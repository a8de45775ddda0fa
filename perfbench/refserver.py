#!/usr/bin/env python3
"""A reference service: the request shape of ``repro serve`` around
fixed, benchmark-owned work (see ``hostspeed.py``).

    python3 perfbench/refserver.py

serve_hot runs it beside the service, on the service's CPU, and times
a few requests to it between rotations.  Its latency goes through what
the host does to a service answering sporadic requests — waking an idle
CPU, the loopback socket, the work itself — without any ``repro`` code,
so it is the speed reference of serve_hot.  It prints its address on
the first line and serves until it is terminated.
"""

from __future__ import annotations

import asyncio

from hostspeed import kernel

#: Kernels per request: ~10 ms of work, near an ``/analyze ex2`` hit.
WORK_KERNELS = 4


async def handle(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    try:
        await reader.readuntil(b"\r\n\r\n")
        body = str(sum(kernel() for _ in range(WORK_KERNELS))).encode()
        writer.write(
            b"HTTP/1.1 200 OK\r\nConnection: close\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        await writer.drain()
    finally:
        writer.close()


async def main() -> None:
    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    print(f"reference service on {host}:{port} ", flush=True)
    async with server:
        await server.serve_forever()


if __name__ == "__main__":
    asyncio.run(main())
