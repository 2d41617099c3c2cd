"""One HTTP/1.0 GET over a plain socket: the live geocoder's transport.

Under HTTP/1.0 the server neither chunks the answer nor keeps the
connection open, so the answer is all that arrives before it closes.
Proxies and redirects are not followed. Only a live geocoder imports this
module, so replay runs neither compile nor hold it.
"""

from __future__ import annotations

import os
from urllib.parse import urlsplit


def proxy_variable(url: str) -> str | None:
    """The environment variable that would send ``url`` through a proxy
    under urllib's rules, or None: ``<scheme>_proxy`` (the lower-case name
    wins), unless ``no_proxy`` is ``*`` or names the host, its domain or
    ``host:port``."""
    parts = urlsplit(url)
    for var in (f"{parts.scheme}_proxy", f"{parts.scheme}_proxy".upper()):
        if var in os.environ:
            break
    else:
        return None
    if not os.environ[var]:
        return None
    host = parts.hostname or ""
    no_proxy = os.environ.get("no_proxy", os.environ.get("NO_PROXY", ""))
    for name in no_proxy.split(","):
        name = name.strip().lstrip(".").lower()
        if name == "*" or name and (host.endswith("." + name) or name in (
                host, f"{host}:{parts.port}")):
            return None
    return var


def get(url: str, user_agent: str, timeout: float, tls=None) -> bytes:
    """The body of a 2xx answer to ``GET url``; an ``https`` URL needs
    ``tls``, the ``ssl.SSLContext`` that verifies the server. A status
    outside 200-299 raises ``urllib.error.HTTPError``; an answer cut short,
    a failed certificate check or a network failure raises ``OSError``; a
    URL that is not http(s) raises ``ValueError``."""
    import socket

    parts = urlsplit(url)
    if parts.scheme not in ("http", "https"):
        raise ValueError(f"not an http or https URL: {url!r}")
    host = parts.hostname
    port = parts.port or (443 if parts.scheme == "https" else 80)
    request = (f"GET {parts.path or '/'}?{parts.query} HTTP/1.0\r\n"
               f"Host: {parts.netloc}\r\n"
               f"User-Agent: {user_agent}\r\n\r\n").encode("ascii")
    chunks = []
    sock = socket.create_connection((host, port), timeout=timeout)
    try:
        if parts.scheme == "https":
            sock = tls.wrap_socket(sock, server_hostname=host)
        sock.sendall(request)
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    finally:
        sock.close()
    return _body(b"".join(chunks), url)


def _body(answer: bytes, url: str) -> bytes:
    """The body of a whole HTTP answer whose status is 2xx."""
    head, blank, body = answer.partition(b"\r\n\r\n")
    status_line, *fields = head.split(b"\r\n")
    version, _, rest = status_line.partition(b" ")
    code, _, reason = rest.partition(b" ")
    if not (blank and version.startswith(b"HTTP/") and len(code) == 3
            and code.isdigit()):
        raise ConnectionError(f"{url}: closed before a status line and headers")
    if code[:1] != b"2":
        from urllib.error import HTTPError
        raise HTTPError(url, int(code), reason.strip().decode("latin-1"), None, None)
    for field in fields:
        name, _, value = field.partition(b":")
        if name.strip().lower() == b"content-length" and len(body) < int(value):
            raise ConnectionError(f"{url}: closed after {len(body)} of "
                                  f"{int(value)} body bytes")
    return body
