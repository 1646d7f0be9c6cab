import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable


class _ScorerHandler(BaseHTTPRequestHandler):
    """Minimal /score endpoint implementing the remote scorer protocol.

    The owning server's `mode` attribute switches misbehavior on:
    ok | http_error | created | hangup | bad_length | out_of_range | junk | slow.
    The last request's headers and body are kept on the server.
    """

    def do_POST(self):
        server = self.server
        server.request_count += 1
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        server.last_headers, server.last_body = self.headers, body
        if self.path != "/score":
            self.send_error(404)
            return
        fail_from = server.fail_from_request
        if server.mode == "http_error" or (
            fail_from is not None and server.request_count >= fail_from
        ):
            self.send_error(500)
            return
        if server.mode == "hangup":
            self.close_connection = True
            return
        if server.mode == "slow":
            time.sleep(1.0)
        inputs = json.loads(body)["inputs"]
        if server.mode == "bad_length":
            payload = {"scores": [0.5] * (len(inputs) + 1)}
        elif server.mode == "out_of_range":
            payload = {"scores": [1.5] * len(inputs)}
        else:
            payload = {"scores": [server.score_fn(s) for s in inputs]}
        if server.mode == "junk":
            data = b"this is not json"
        else:
            data = json.dumps(payload).encode()
        self.send_response(201 if server.mode == "created" else 200)
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
    server.request_count = 0
    server.fail_from_request = None
    server.last_headers = server.last_body = None
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
