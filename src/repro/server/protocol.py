"""Minimal HTTP/1.1 + RFC 6455 WebSocket framing over asyncio streams.

The service deliberately depends on nothing outside the standard
library, so this module implements the thin slice of both protocols the
server actually needs:

* **HTTP/1.1** -- request-line + header parsing, ``Content-Length``
  bodies, keep-alive connections, JSON responses.  No chunked transfer,
  no pipelining subtleties (requests on one connection are handled
  strictly in order), no TLS -- the service fronts a trusted dev/CI
  network, not the open internet.
* **WebSocket** -- the server side of the RFC 6455 opening handshake
  plus text/close/ping frame encoding and decoding.  Server-to-client
  frames are unmasked (per the RFC); client frames are unmasked on
  read.  Fragmented messages are not produced and not accepted (every
  trace delta fits comfortably in one frame).

Anything malformed raises :class:`ProtocolError`; the connection
handler answers 400 where it still can and closes the stream.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

#: the RFC 6455 handshake GUID, concatenated to the client key before
#: SHA-1 to prove the server speaks WebSocket
WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

#: request bodies beyond this are refused (the largest legitimate body
#: is a job submission -- a few hundred bytes of config JSON)
MAX_BODY = 1 << 20

REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    101: "Switching Protocols",
}

# WebSocket opcodes (the subset handled here)
OP_TEXT = 0x1
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA


class ProtocolError(ValueError):
    """The peer sent something this minimal layer cannot parse.

    ``close_code`` is the RFC 6455 status a WebSocket peer is closed
    with, when the error has one (1009: frame too big)."""

    def __init__(self, message: str, close_code: Optional[int] = None):
        super().__init__(message)
        self.close_code = close_code


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]          # keys lower-cased
    body: bytes = b""
    parts: Tuple[str, ...] = field(default=())

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"

    @property
    def wants_websocket(self) -> bool:
        return (
            "websocket" in self.headers.get("upgrade", "").lower()
            and "upgrade" in self.headers.get("connection", "").lower()
        )

    def json(self):
        """The request body decoded as JSON (``{}`` when empty)."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}")


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request off the stream.

    Returns ``None`` on a clean EOF before any bytes arrive (the peer
    closed an idle keep-alive connection); raises :class:`ProtocolError`
    on anything malformed or truncated mid-request.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-request")
    except asyncio.LimitOverrunError:
        raise ProtocolError("request head too large")
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, version = lines[0].split(" ", 2)
    except ValueError:
        raise ProtocolError(f"malformed request line {lines[0]!r}")
    if not version.startswith("HTTP/1."):
        raise ProtocolError(f"unsupported protocol version {version!r}")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    split = urlsplit(target)
    path = unquote(split.path) or "/"
    query = dict(parse_qsl(split.query))
    length = headers.get("content-length", "0")
    try:
        length = int(length)
    except ValueError:
        raise ProtocolError(f"bad Content-Length {length!r}")
    if length < 0 or length > MAX_BODY:
        raise ProtocolError(f"refusing {length}-byte body (cap {MAX_BODY})")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise ProtocolError("connection closed mid-body")
    parts = tuple(p for p in path.split("/") if p)
    return Request(method=method.upper(), path=path, query=query,
                   headers=headers, body=body, parts=parts)


def response(status: int, body: bytes = b"",
             content_type: str = "application/json",
             extra_headers: Sequence[Tuple[str, str]] = ()) -> bytes:
    """Serialize one HTTP/1.1 response (always with Content-Length, so
    keep-alive framing stays unambiguous)."""
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
    ]
    for name, value in extra_headers:
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def json_response(status: int, payload,
                  extra_headers: Sequence[Tuple[str, str]] = ()) -> bytes:
    body = (json.dumps(payload, sort_keys=True, default=str) + "\n")
    return response(status, body.encode("utf-8"),
                    extra_headers=extra_headers)


# ---------------------------------------------------------------------------
# WebSocket
# ---------------------------------------------------------------------------
def websocket_accept(key: str) -> str:
    """The Sec-WebSocket-Accept value for a client key (RFC 6455 4.2.2)."""
    digest = hashlib.sha1((key + WS_GUID).encode("latin-1")).digest()
    return base64.b64encode(digest).decode("latin-1")


def ws_handshake_response(request: Request) -> bytes:
    """The 101 Switching Protocols response completing the handshake."""
    key = request.headers.get("sec-websocket-key")
    if not key:
        raise ProtocolError("websocket upgrade without Sec-WebSocket-Key")
    headers = "\r\n".join((
        "HTTP/1.1 101 Switching Protocols",
        "Upgrade: websocket",
        "Connection: Upgrade",
        f"Sec-WebSocket-Accept: {websocket_accept(key)}",
    ))
    return (headers + "\r\n\r\n").encode("latin-1")


def ws_frame(opcode: int, payload: bytes = b"", mask: bool = False) -> bytes:
    """Encode one unfragmented frame.  Servers send unmasked frames;
    clients (see :mod:`repro.server.client`) must mask."""
    head = bytearray([0x80 | (opcode & 0x0F)])
    mask_bit = 0x80 if mask else 0
    n = len(payload)
    if n < 126:
        head.append(mask_bit | n)
    elif n < (1 << 16):
        head.append(mask_bit | 126)
        head += struct.pack(">H", n)
    else:
        head.append(mask_bit | 127)
        head += struct.pack(">Q", n)
    if mask:
        key = struct.pack(">I", hash(payload) & 0xFFFFFFFF)
        head += key
        payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return bytes(head) + payload


def ws_text(payload: str) -> bytes:
    return ws_frame(OP_TEXT, payload.encode("utf-8"))


def ws_close(code: int = 1000) -> bytes:
    return ws_frame(OP_CLOSE, struct.pack(">H", code))


async def ws_read_frame(reader: asyncio.StreamReader
                        ) -> Tuple[int, bytes]:
    """Read one frame; returns ``(opcode, payload)`` with masking
    removed.  Raises :class:`ProtocolError` on EOF, a fragmented
    message (not produced by either side of this service) or a frame
    longer than :data:`MAX_BODY` -- refused from its header alone, with
    close code 1009, before any of its payload is read."""
    try:
        b0, b1 = await reader.readexactly(2)
    except asyncio.IncompleteReadError:
        raise ProtocolError("websocket connection closed mid-frame")
    if not b0 & 0x80:
        raise ProtocolError("fragmented websocket frames are unsupported")
    opcode = b0 & 0x0F
    masked = bool(b1 & 0x80)
    length = b1 & 0x7F
    if length == 126:
        (length,) = struct.unpack(">H", await reader.readexactly(2))
    elif length == 127:
        (length,) = struct.unpack(">Q", await reader.readexactly(8))
    if length > MAX_BODY:
        raise ProtocolError(
            f"refusing {length}-byte websocket frame (cap {MAX_BODY})",
            close_code=1009)
    key = await reader.readexactly(4) if masked else None
    payload = await reader.readexactly(length) if length else b""
    if key:
        payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return opcode, payload
