"""Benchmark-owned remote scorer: `POST /score` with {"inputs": [...]}
returns {"scores": [...]}, one per input.

Each score is crc32(sequence) / 0xFFFFFFFF, so the reference can predict
it, and every request sleeps a fixed service delay before answering.
Connections are served concurrently (one thread each), with HTTP/1.1
keep-alive, so neither a fresh-connection client nor a pooled one can
stall on another connection. Nagle's algorithm is off, so the headers and
the body, written separately, never wait for a delayed ACK: transport
times are the client's own.

`GET /stats` returns the counters: requests, failed_requests,
connections (that carried a scoring request), bytes_received (request
line, headers and body) and busy_s (summed handler time up to the reply,
delay included). Stats requests are not counted.

Run: python3 bench/scorer_server.py
It prints the port it listens on (loopback only) as its first stdout line
and serves until its standard input reaches end of file, so it cannot
outlive the process that started it with a pipe on stdin.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

DELAY_S = 0.001  # fixed service delay of every scoring request


def score(sequence: str) -> float:
    return zlib.crc32(sequence.encode("utf-8")) / 0xFFFFFFFF


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.counts = {
            "requests": 0,
            "failed_requests": 0,
            "connections": 0,
            "bytes_received": 0,
            "busy_s": 0.0,
        }

    def add(self, **deltas) -> None:
        with self.lock:
            for key, value in deltas.items():
                self.counts[key] += value

    def snapshot(self) -> dict:
        with self.lock:
            return dict(self.counts)


class ScorerHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    server: "ScorerServer"

    def setup(self):
        super().setup()
        self.scored_on_connection = False

    def log_message(self, format, *args):
        pass

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path == "/stats":
            self._reply(200, self.server.stats.snapshot())
        else:
            self._reply(404, {"error": "not found"})

    def do_POST(self):
        start = time.perf_counter()
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length)
        received = len(self.raw_requestline) + len(str(self.headers).encode()) + len(body)
        status, payload = 200, None
        try:
            if self.path != "/score":
                raise ValueError(f"unknown path {self.path}")
            inputs = json.loads(body)["inputs"]
            if not isinstance(inputs, list) or not all(isinstance(s, str) for s in inputs):
                raise ValueError("inputs must be a list of strings")
            payload = {"scores": [score(s) for s in inputs]}
        except (ValueError, KeyError, TypeError) as exc:
            status, payload = 400, {"error": str(exc)}
        time.sleep(DELAY_S)
        # Counted before replying, so a client that has its answer never
        # reads stats that miss its request.
        self.server.stats.add(
            connections=int(not self.scored_on_connection),
            requests=1,
            failed_requests=int(status != 200),
            bytes_received=received,
            busy_s=time.perf_counter() - start,
        )
        self.scored_on_connection = True
        self._reply(status, payload)


class ScorerServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address):
        super().__init__(address, ScorerHandler)
        self.stats = Stats()


def main() -> int:
    server = ScorerServer(("127.0.0.1", 0))
    print(server.server_address[1], flush=True)
    watchdog = threading.Thread(target=lambda: (sys.stdin.read(), server.shutdown()), daemon=True)
    watchdog.start()
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
