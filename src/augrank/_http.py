"""The remote scorer's HTTP/1.1 client, on a plain socket (RFC 9112).

`rerank._remote_scores` imports this module at its first batch, so no
other command loads it, `socket` or `ssl`. A `Connection` POSTs JSON to
one URL. It sends each request with one `sendall`, in the bytes
http.client sends for it: the request line, then Host, Accept-Encoding:
identity, Content-Length, Content-Type and, through a proxy with
credentials, Proxy-Authorization. It reads each reply as http.client
reads one:

- The status line is "HTTP/1.x" or "HTTP/0.9" and a code in 100..999. A
  100 is an interim reply and is skipped; every other code is final.
- A head holds at most 100 lines, its closing blank line counted, and
  each line at most 65,536 bytes with its line break.
- The body is chunked, or as long as its Content-Length (a shorter one is
  a fault), or everything up to the close.
- The connection stays open after an HTTP/1.1 reply unless its Connection
  header says close, and after an HTTP/1.0 one only if it asks for
  keep-alive. The next request after any other reply opens a new one.

A request that fails on a reused connection before any byte of its reply
arrives (the server closed the connection between requests) is sent once
more on a new connection; a timeout is not retried. Every other fault is
an OSError or an `HTTPFault`.

The proxy is the one urllib.request would use: taken from the
environment, skipped for a host in no_proxy. An http URL goes to it in
absolute form (over TLS when the proxy URL is https://), an https URL
through a CONNECT tunnel; user:password in its URL becomes a Basic
Proxy-Authorization header. The CONNECT request is the one http.client
sends (HTTP/1.0, the credentials its only header), with an IPv6 host in
brackets. Off macOS and Windows urllib reads proxies
from the environment alone, so with no non-empty `<scheme>_proxy`
variable, in any case, urllib.request is not imported. TLS checks the
certificate against the default trust store, with http.client's context:
`ssl.create_default_context()`, ALPN "http/1.1" and post-handshake auth.
"""

from __future__ import annotations

import os
import socket
import sys
from urllib.parse import unquote, urlsplit

_MAX_LINE = 65536  # bytes of a status, header or chunk-size line, its line break counted
_MAX_HEAD = 100  # lines of a head, its closing blank line counted


class HTTPFault(Exception):
    """A reply that HTTP/1.1 cannot frame, or a proxy address it cannot use."""


class _Unanswered(ConnectionError):
    """The connection ended before any byte of the reply arrived."""


class Connection:
    """A keep-alive connection that POSTs JSON to `url`; nothing is opened
    until the first request. `address` is where the socket connects,
    `tunnel` the CONNECT request sent on it first (or None), and
    `server_hostname` the name TLS checks (None: no TLS)."""

    def __init__(self, url: str, timeout: float):
        parts = urlsplit(url)
        tls = parts.scheme == "https"
        default_port = 443 if tls else 80
        port = parts.port or default_port
        host = parts.hostname.encode("idna").decode("ascii")
        bracketed = f"[{host}]" if ":" in host else host  # an IPv6 address
        self.timeout = timeout
        self.sock = self.reader = None
        self.tunnel = None
        self.server_hostname = host if tls else None
        target = parts.path
        host_header = bracketed if port == default_port else f"{bracketed}:{port}"
        auth = b""
        proxy = _proxy(parts.scheme, parts.netloc.rpartition("@")[2])
        if proxy is None:
            self.address = (host, port)
        else:
            proxy_parts = urlsplit(proxy if "://" in proxy else "//" + proxy)
            if proxy_parts.username and proxy_parts.password:
                from base64 import b64encode

                credentials = f"{unquote(proxy_parts.username)}:{unquote(proxy_parts.password)}"
                auth = b"Proxy-Authorization: Basic %s\r\n" % b64encode(credentials.encode())
            try:
                proxy_port = proxy_parts.port
            except ValueError as exc:  # not a number, or outside 0..65535
                raise HTTPFault(f"bad proxy port: {exc}") from None
            # As in http.client, a proxy without a port is on 443 when the
            # connection to it would be TLS by its class, else on 80.
            proxy_tls = tls or proxy_parts.scheme == "https"
            self.address = (
                unquote(proxy_parts.hostname or ""), proxy_port or (443 if proxy_tls else 80)
            )
            if tls:
                self.tunnel = b"CONNECT %s:%d HTTP/1.0\r\n%s\r\n" % (
                    bracketed.encode(), port, auth
                )
                auth = b""
            else:
                if proxy_tls:  # an http request to an https:// proxy, as urllib sends it
                    self.server_hostname = self.address[0]
                # The proxy is sent the host as IDNA, without user info.
                host_header = bracketed if parts.port is None else f"{bracketed}:{parts.port}"
                target = f"http://{host_header}{target}"
        self.context = None
        if self.server_hostname is not None:
            import ssl

            self.context = ssl.create_default_context()
            self.context.set_alpn_protocols(["http/1.1"])
            if self.context.post_handshake_auth is not None:
                self.context.post_handshake_auth = True
        self._head = (
            f"POST {target} HTTP/1.1\r\nHost: {host_header}\r\n"
            f"Accept-Encoding: identity\r\nContent-Length: "
        ).encode("ascii")
        self._tail = b"\r\nContent-Type: application/json\r\n%s\r\n" % auth

    def post(self, body: bytes) -> tuple[int, bytes]:
        """The status and body of the reply to one POST of `body`."""
        request = b"%s%d%s%s" % (self._head, len(body), self._tail, body)
        reused = self.sock is not None
        try:
            return self._exchange(request)
        except _Unanswered:
            if not reused:
                raise
            self.close()
            return self._exchange(request)

    def close(self) -> None:
        """Close the socket, if one is open; the next request opens another."""
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
            self.sock = self.reader = None

    def _open(self) -> None:
        sock = socket.create_connection(self.address, self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self.tunnel is not None:
                sock.sendall(self.tunnel)
                with sock.makefile("rb") as reader:
                    line = reader.readline(_MAX_LINE + 1)
                    if _status(line)[1] != 200:
                        status = line.decode("latin-1").strip()
                        raise OSError(f"tunnel connection failed: {status}")
                    _fields(reader)
            if self.context is not None:
                sock = self.context.wrap_socket(sock, server_hostname=self.server_hostname)
        except BaseException:
            sock.close()
            raise
        self.sock, self.reader = sock, sock.makefile("rb")

    def _exchange(self, request: bytes) -> tuple[int, bytes]:
        if self.sock is None:
            self._open()
        reader = self.reader
        try:
            self.sock.sendall(request)
            line = reader.readline(_MAX_LINE + 1)
        except (ConnectionResetError, BrokenPipeError) as exc:
            raise _Unanswered(*exc.args) from exc
        if not line:
            raise _Unanswered("the scorer closed the connection without a reply")
        while True:
            http11, status = _status(line)
            fields = _fields(reader)
            if status != 100:
                break
            line = reader.readline(_MAX_LINE + 1)
        connection = fields.get(b"connection", b"").lower()
        if http11:
            keep = b"close" not in connection
        else:
            keep = b"keep-alive" in connection or bool(fields.get(b"keep-alive")) or (
                b"keep-alive" in fields.get(b"proxy-connection", b"").lower()
            )
        try:
            length = int(fields.get(b"content-length", b""))
        except ValueError:
            length = -1
        if fields.get(b"transfer-encoding", b"").lower() == b"chunked":
            body = _chunked(reader)
        elif status in (204, 304) or status < 200:
            body = b""
        elif length >= 0:
            body = _exactly(reader, length)
        else:  # no length, or not a number: the body ends at the close
            body, keep = reader.read(), False
        if not keep:
            self.close()
        return status, body


def _status(line: bytes) -> tuple[bool, int]:
    """Whether the reply of status line `line` is HTTP/1.1 (or a later
    HTTP/1.x), and its code."""
    if len(line) > _MAX_LINE:
        raise HTTPFault("status line longer than 65536 bytes")
    words = line.split(None, 2)
    version = words[0] if words else b""
    if not version.startswith(b"HTTP/1.") and version != b"HTTP/0.9":
        raise HTTPFault(f"bad status line {line!r}")
    try:
        status = int(words[1])
    except (IndexError, ValueError):
        status = 0
    if not 100 <= status <= 999:
        raise HTTPFault(f"bad status line {line!r}")
    return version.startswith(b"HTTP/1.") and version != b"HTTP/1.0", status


def _fields(reader) -> dict[bytes, bytes]:
    """A head's fields up to its blank line, by lowercased name. A repeated
    name keeps its first value; a value loses its leading blanks and its
    line break, as http.client reads it."""
    fields: dict[bytes, bytes] = {}
    for _ in range(_MAX_HEAD):
        line = reader.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise HTTPFault("header line longer than 65536 bytes")
        if line in (b"\r\n", b"\n", b""):
            return fields
        name, colon, value = line.partition(b":")
        if colon:
            fields.setdefault(name.lower(), value.lstrip(b" \t").rstrip(b"\r\n"))
    raise HTTPFault(f"got more than {_MAX_HEAD} headers")


def _exactly(reader, size: int) -> bytes:
    data = reader.read(size)
    if len(data) < size:
        raise HTTPFault(f"incomplete read: {len(data)} of {size} bytes")
    return data


def _chunked(reader) -> bytes:
    """A chunked body, its chunk extensions and trailer dropped."""
    chunks = []
    while True:
        line = reader.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise HTTPFault("chunk size line longer than 65536 bytes")
        try:
            size = int(line.partition(b";")[0], 16)
        except ValueError:
            size = -1
        if size < 0:
            raise HTTPFault(f"bad chunk size line {line!r}")
        if size == 0:
            break
        chunks.append(_exactly(reader, size))
        _exactly(reader, 2)  # the line break after the chunk
    while (line := reader.readline(_MAX_LINE + 1)) not in (b"\r\n", b"\n", b""):
        if len(line) > _MAX_LINE:
            raise HTTPFault("trailer line longer than 65536 bytes")
    return b"".join(chunks)


def _proxy(scheme: str, host: str) -> str | None:
    """The proxy URL urllib.request would send a `scheme` request to `host`
    through, or None."""
    name = f"{scheme}_proxy"
    if sys.platform != "darwin" and os.name != "nt" and not any(
        value and key.lower() == name for key, value in os.environ.items()
    ):
        return None
    from urllib.request import getproxies, proxy_bypass

    proxy = getproxies().get(scheme)
    return None if not proxy or proxy_bypass(host) else proxy
