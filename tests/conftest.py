import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import urlsplit

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable


class _ScorerHandler(BaseHTTPRequestHandler):
    """Minimal /score endpoint implementing the remote scorer protocol.

    The owning server's `mode` attribute switches misbehavior on, from
    request number `mode_from_request` (1 by default):
    ok | http_error | created | redirect | hangup | bad_length | out_of_range
    | junk | deep (100,000 nested "[") | slow. Its `connection_mode` sets what happens to a connection
    after a reply: close (HTTP/1.0, the default), keep_alive (HTTP/1.1,
    kept open) or drop_after_reply (an HTTP/1.1 reply that does not say
    the connection closes, then a silent close). Requests and connections
    are counted; the last request's method, target, headers and body are
    kept on the server, every request's body in order in its `bodies`, and
    a CONNECT is answered 405.
    """

    timeout = 5  # a client that never closes cannot hold the teardown

    @property
    def protocol_version(self):
        return "HTTP/1.0" if self.server.connection_mode == "close" else "HTTP/1.1"

    def setup(self):
        super().setup()
        self.server.connection_count += 1

    def do_CONNECT(self):
        self.server.last_command, self.server.last_path = self.command, self.path
        self.server.last_headers = self.headers
        self.send_error(405)

    def do_POST(self):
        server = self.server
        server.request_count += 1
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        server.last_command, server.last_path = self.command, self.path
        server.last_headers, server.last_body = self.headers, body
        server.bodies.append(body)
        if urlsplit(self.path).path != "/score":
            self.send_error(404)
            return
        if server.connection_mode == "drop_after_reply":
            self.close_connection = True
        mode = server.mode if server.request_count >= server.mode_from_request else "ok"
        fail_from = server.fail_from_request
        if mode == "http_error" or (
            fail_from is not None and server.request_count >= fail_from
        ):
            self.send_error(500)
            return
        if mode == "hangup":
            self.close_connection = True
            return
        if mode == "redirect":
            self.send_response(302)
            self.send_header("Location", "/elsewhere")
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        if mode == "slow":
            time.sleep(1.0)
        inputs = json.loads(body)["inputs"]
        if mode == "bad_length":
            payload = {"scores": [0.5] * (len(inputs) + 1)}
        elif mode == "out_of_range":
            payload = {"scores": [1.5] * len(inputs)}
        else:
            payload = {"scores": [server.score_fn(s) for s in inputs]}
        if mode == "junk":
            data = b"this is not json"
        elif mode == "deep":
            data = b"[" * 100_000
        else:
            data = json.dumps(payload).encode()
        self.send_response(201 if mode == "created" else 200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class _ScorerServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        # A client that timed out has closed its end before the reply.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


@pytest.fixture
def scorer_server():
    server = _ScorerServer(("127.0.0.1", 0), _ScorerHandler)
    server.mode = "ok"
    server.connection_mode = "close"
    server.request_count = server.connection_count = 0
    server.mode_from_request = 1
    server.fail_from_request = None
    server.last_command = server.last_path = server.last_headers = server.last_body = None
    server.bodies = []
    # deterministic default: score by sequence length, bounded to [0, 1]
    server.score_fn = lambda s: (len(s) % 97) / 96
    server.address = f"http://127.0.0.1:{server.server_address[1]}"
    # a short poll interval keeps shutdown() from waiting out the default 0.5 s
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
