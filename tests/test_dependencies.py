"""The package runs on the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_LIST_NEW_MODULES = """
import sys
before = set(sys.modules)
import augrank.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""

# Only the remote scorer needs HTTP; it imports these at its first batch.
# Matched as name prefixes, so submodules count too.
_HTTP_MODULES = ("http.client", "urllib.request", "ssl", "email", "socket")


def _modules_new_after_cli_import(*flags: str) -> list[str]:
    # Compare sys.modules before and after the import in a fresh interpreter:
    # `site` may already have loaded third-party packages, which do not count.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *flags, "-c", _LIST_NEW_MODULES],
        env=env, capture_output=True, text=True, check=True,
    )
    return result.stdout.split()


def test_cli_imports_only_the_standard_library():
    imported = sorted({name.partition(".")[0] for name in _modules_new_after_cli_import()})
    assert "augrank" in imported
    third_party = [m for m in imported if m != "augrank" and m not in sys.stdlib_module_names]
    assert third_party == []


def test_cli_import_loads_no_http_stack():
    # -S: without `site`, nothing is loaded before the import that could
    # hide one of these modules.
    imported = _modules_new_after_cli_import("-S")
    assert "augrank.cli" in imported
    assert [m for m in imported if m.startswith(_HTTP_MODULES)] == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # `dataclasses` imports `inspect` (and with it `ast`, `dis` and
    # `tokenize`), and each `@dataclass` compiles generated code at import:
    # together about 30 ms of every command's start-up. Records are plain
    # `__slots__` classes instead.
    imported = _modules_new_after_cli_import("-S")
    assert "augrank.cli" in imported
    assert [m for m in imported if m in ("dataclasses", "inspect")] == []


def test_cli_import_loads_no_typing():
    # The package names `TextIO` and `TypeVar` in annotations only, which
    # are never evaluated; importing `typing` for them cost about 7 ms of
    # every command's start-up.
    imported = _modules_new_after_cli_import("-S")
    assert "augrank.cli" in imported
    assert "typing" not in imported


def test_cli_import_loads_no_url_parser():
    # Only a remote scorer's address is parsed, and urllib.parse loads
    # ipaddress with it; every other command needs neither.
    imported = _modules_new_after_cli_import("-S")
    assert "augrank.cli" in imported
    assert [m for m in imported if m in ("urllib.parse", "ipaddress")] == []


# A plain-http score_batch against a raw-socket scorer inside the same
# interpreter (http.server would import http.client itself), then the
# modules loaded by then.
_SCORE_OVER_PLAIN_HTTP = """
import socket, sys, threading
listener = socket.create_server(("127.0.0.1", 0))

def serve():
    conn, _ = listener.accept()
    with conn, conn.makefile("rb") as reader:
        head = [reader.readline()]
        while head[-1] != b"\\r\\n":
            head.append(reader.readline())
        length = next(int(line[15:]) for line in head if line.startswith(b"Content-Length:"))
        reader.read(length)
        conn.sendall(b'HTTP/1.1 200 OK\\r\\nContent-Length: 17\\r\\n\\r\\n{"scores": [0.5]}')

thread = threading.Thread(target=serve)
thread.start()
from augrank.corpus_io import Passage, Query
from augrank.rerank import ScorerEndpoint, build_input, score_batch
endpoint = ScorerEndpoint("remote", "http://127.0.0.1:%d" % listener.getsockname()[1])
print(score_batch([build_input(Query("q", "a"), Passage("d", None, "b"))], endpoint))
thread.join()
listener.close()
print("\\n".join(sorted(sys.modules)))
"""


def _without_proxy_variables() -> dict[str, str]:
    return {
        name: value for name, value in os.environ.items()
        if not name.lower().endswith("_proxy") and name != "REQUEST_METHOD"
    }


def test_plain_http_scoring_loads_neither_http_client_nor_ssl():
    # The remote scorer's client is a socket: a plain-http call with no
    # proxy configured loads no HTTP stack, TLS or urllib.request.
    env = _without_proxy_variables()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-S", "-c", _SCORE_OVER_PLAIN_HTTP],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    scores, *loaded = result.stdout.split()
    assert scores == "[0.5]"
    assert "augrank._http" in loaded
    heavy = ("http.client", "email", "ssl", "urllib.request")
    assert [m for m in loaded if m.startswith(heavy)] == []


# Each environment, for an http request: whether the shortcut may answer
# "no proxy" without asking urllib.request. Where it answers, the answer
# must be urllib's; where it does not, urllib decides.
@pytest.mark.parametrize(
    "environment, shortcut",
    [({}, True),
     ({"http_proxy": "http://proxy.invalid:1"}, False),
     ({"HTTP_PROXY": "http://proxy.invalid:1"}, False),
     ({"Http_Proxy": "http://proxy.invalid:1"}, False),
     ({"http_proxy": ""}, True),
     ({"HTTP_PROXY": ""}, True),
     ({"HTTP_PROXY": "http://proxy.invalid:1", "http_proxy": ""}, False),
     ({"HTTP_PROXY": "http://proxy.invalid:1", "REQUEST_METHOD": "GET"}, False),
     ({"http_proxy": "http://proxy.invalid:1", "REQUEST_METHOD": "GET"}, False),
     ({"REQUEST_METHOD": "GET"}, True),
     ({"https_proxy": "http://proxy.invalid:1", "HTTPS_PROXY": "x"}, True),
     ({"all_proxy": "http://proxy.invalid:1", "no_proxy": "*"}, True)],
)
@pytest.mark.skipif(
    sys.platform == "darwin" or os.name == "nt",
    reason="urllib reads system proxy settings here, so no shortcut is taken",
)
def test_no_proxy_shortcut_agrees_with_urllib(monkeypatch, environment, shortcut):
    import urllib.request

    from augrank._http import _proxy

    for name in os.environ:
        if name.lower().endswith("_proxy") or name == "REQUEST_METHOD":
            monkeypatch.delenv(name)
    for name, value in environment.items():
        monkeypatch.setenv(name, value)
    expected = urllib.request.getproxies().get("http")
    # With urllib.request unimportable, only the shortcut can answer.
    monkeypatch.setitem(sys.modules, "urllib.request", None)
    try:
        got = _proxy("http", "scorer.invalid")
    except ImportError:
        assert not shortcut
        monkeypatch.setitem(sys.modules, "urllib.request", urllib.request)
        got = _proxy("http", "scorer.invalid")
    else:
        assert shortcut
    assert got == expected
