"""CI smoke: the CLI's 2-worker serve tier, end to end.

Computes reference responses on an in-process one-worker server, then
starts the real thing — ``python -m repro.cli serve --workers 2`` as a
subprocess — and checks the multi-worker answers are byte-identical,
the pool reports two live workers, 20 ``AsyncServeClient`` requests
ride at most 2 connections, and SIGTERM drains it to a clean exit
promptly even with an idle persistent connection open.  Exercises
exactly the path an operator runs, not the embedding helper.
"""

from __future__ import annotations

import asyncio
import http.client
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

from repro.serve import AsyncServeClient, ServeClient, serve_in_thread

LATENCY_PARAMS = dict(gpu="V100", seed=0, sms=[0, 1, 2], samples=1)
MESH_PARAMS = dict(seed=0, rates=[0.05, 0.1], cycles=300, warmup=100)


def _reference_bytes() -> tuple:
    with serve_in_thread(workers=1) as reference:
        client = ServeClient(port=reference.port)
        latency = client.experiment("latency-matrix", **LATENCY_PARAMS)
        mesh = client.experiment("mesh-load-sweep", **MESH_PARAMS)
        assert latency.ok, latency.body
        assert mesh.ok, mesh.body
        return latency.body, mesh.body


async def _connections_for_20_requests(port: int) -> int:
    """Connections the server accepted for 20 async requests."""
    async with AsyncServeClient(port=port) as client:
        before = (await client.metricz()).json["counters"]["connections"]
        for _ in range(20):
            reply = await client.experiment("latency-matrix",
                                            **LATENCY_PARAMS)
            assert reply.ok, reply.body
        after = (await client.metricz()).json["counters"]["connections"]
    return after - before + 1          # + the first metricz's own


def main() -> int:
    latency_ref, mesh_ref = _reference_bytes()
    with tempfile.TemporaryDirectory() as cache_dir:
        process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve",
             "--port", "0", "--workers", "2", "--cache", cache_dir],
            stdout=subprocess.PIPE, text=True, env=dict(os.environ))
        try:
            banner = process.stdout.readline()
            match = re.search(r"http://[\d.]+:(\d+)", banner)
            assert match, f"no listen banner, got: {banner!r}"
            client = ServeClient(port=int(match.group(1)))
            health = client.wait_healthy(deadline_s=60)
            assert health["workers"] == 2, health

            latency = client.experiment("latency-matrix", **LATENCY_PARAMS)
            assert latency.body == latency_ref, "latency bytes differ"
            mesh = client.experiment("mesh-load-sweep", **MESH_PARAMS)
            assert mesh.body == mesh_ref, "mesh bytes differ"

            snapshot = client.metricz().json
            assert snapshot["workers"]["live"] == 2, snapshot["workers"]
            assert snapshot["counters"]["computations"] >= 2
            assert snapshot["registry"]["receipts"] >= 2

            connections = asyncio.run(_connections_for_20_requests(
                client.port))
            assert connections <= 2, f"{connections} connections"

            # an idle persistent connection must not hold up the drain
            idle = http.client.HTTPConnection("127.0.0.1", client.port,
                                              timeout=60)
            idle.request("GET", "/healthz")
            assert idle.getresponse().read()
        finally:
            stopped = time.monotonic()
            process.send_signal(signal.SIGTERM)
            returncode = process.wait(timeout=120)
            drain_s = time.monotonic() - stopped
        assert returncode == 0, f"serve exited with {returncode}"
        assert drain_s < 20, f"drain took {drain_s:.1f}s"
        assert idle.sock.recv(1) == b"", "idle connection left open"
        idle.close()
    print(f"serve 2-worker smoke: byte-identical responses, 2 live "
          f"workers, 20 async requests on {connections} connection(s), "
          f"SIGTERM drain in {drain_s:.1f}s with an idle connection open")
    return 0


if __name__ == "__main__":
    sys.exit(main())
