"""The JSON-lines wire core shared by the daemon and the cache server.

Both :class:`~repro.service.daemon.MatchingDaemon` (``repro-daemon/v1``,
``docs/protocol.md``) and :class:`~repro.cachenet.server.CacheServer`
(``repro-cache/v1``, ``docs/remote-cache.md``) speak one transport: a
JSON object per line over a Unix or TCP socket, every response stamped
with ``ok`` and the server's ``protocol``, errors never closing the
connection.  :class:`WireServer` is the one server core — a concrete
server is its protocol string, error-message noun and ``OPS`` table —
and :class:`WireClient` the one line client.
"""

from __future__ import annotations

import hmac
import ipaddress
import json
import os
import socket
import threading
import time
from collections.abc import Callable
from pathlib import Path

from repro.exceptions import (
    DaemonConnectionError,
    DaemonError,
    DaemonTimeoutError,
)

__all__ = ["WireServer", "WireClient"]

#: Ops served before the ``auth`` handshake: health probes and the
#: version handshake must work before the token exchange.
_OPEN_OPS = ("ping", "auth")


def _is_loopback(host: str) -> bool:
    """Whether a bind/connect host is loopback-only.

    Hostnames other than ``localhost`` are treated as non-loopback: a
    server asked to bind a *name* may end up on a routable interface, so
    the auth requirement errs on the side of demanding a token.
    """
    if host == "localhost":
        return True
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False


class _Connection:
    """One accepted socket, owned by the thread that serves it.

    ``authenticated`` starts true only when the server has no token; the
    ``auth`` op upgrades it for this connection alone.  ``open`` drops to
    false when a handler wants the connection closed after its reply.
    """

    def __init__(self, sock: socket.socket, authenticated: bool) -> None:
        self.socket = sock
        self.reader = sock.makefile("r", encoding="utf-8")
        self.writer = sock.makefile("w", encoding="utf-8")
        self.authenticated = authenticated
        self.open = True

    def send(self, frame: dict) -> None:
        """Write one frame and flush it."""
        self.writer.write(json.dumps(frame) + "\n")
        self.writer.flush()

    def close(self) -> None:
        for handle in (self.reader, self.writer, self.socket):
            try:
                handle.close()
            except OSError:
                pass


class WireServer:
    """A thread-per-connection JSON-lines server over Unix or TCP.

    Subclasses set :attr:`PROTOCOL`, :attr:`NOUN`, :attr:`COMMAND` and
    :attr:`OPS`, and may hook :meth:`_on_start`/:meth:`_on_stop`.  An op
    handler takes ``(server, frame, connection)`` and returns the
    response frame, or ``None`` once it has written its own frames.

    Args:
        socket_path: serve on a Unix socket at this path...
        host, port: ...or on TCP (``port=0`` picks a free port; the bound
            address is :attr:`address`).  Exactly one transport.
        auth_token: shared secret clients must present via the ``auth``
            op before any op outside ``ping``/``auth``.  Required for a
            non-loopback TCP bind unless ``insecure`` is set.
        insecure: allow a non-loopback TCP bind with no auth token — an
            explicit opt-out for trusted networks, never the default.
    """

    #: Protocol string stamped on every response frame.
    PROTOCOL: str
    #: What the server calls itself in error messages.
    NOUN: str
    #: The CLI command that starts it (named in the loopback refusal).
    COMMAND: str
    #: Authenticated ops: ``{op: handler}``.
    OPS: dict[str, Callable]

    def __init__(
        self,
        *,
        socket_path: str | Path | None = None,
        host: str | None = None,
        port: int | None = None,
        auth_token: str | None = None,
        insecure: bool = False,
    ) -> None:
        if (socket_path is None) == (host is None):
            raise DaemonError(
                "choose exactly one transport: socket_path=... or host=/port="
            )
        if host is not None and port is None:
            raise DaemonError(f"a TCP {self.NOUN} needs a port (0 picks one)")
        self._socket_path = Path(socket_path) if socket_path is not None else None
        self._host = host
        self._port = port
        self._auth_token = auth_token
        self._insecure = insecure
        self._thread_prefix = self.PROTOCOL.partition("/")[0]
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        self._started_at: float | None = None

    # -- lifecycle -------------------------------------------------------------
    @property
    def address(self) -> str:
        """The bound address: ``unix:<path>`` or ``tcp:<host>:<port>``."""
        if self._socket_path is not None:
            return f"unix:{self._socket_path}"
        return f"tcp:{self._host}:{self._port}"

    def start(self) -> None:
        """Bind the socket and start the accept thread."""
        if self._listener is not None:
            raise DaemonError(f"{self.NOUN} already started")
        if (
            self._host is not None
            and not _is_loopback(self._host)
            and self._auth_token is None
            and not self._insecure
        ):
            raise DaemonError(
                f"refusing to serve on non-loopback address {self._host!r} "
                "without an auth token; pass auth_token=... "
                f"({self.COMMAND} --auth-token-file) or insecure=True "
                "(--insecure) to opt out explicitly"
            )
        if self._socket_path is not None:
            if self._socket_path.exists():
                # A stale socket file (previous server died) is safe to
                # unlink and bind over; a live one is not — hijacking a
                # serving address would strand that server and split its
                # clients between two processes.
                probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    probe.settimeout(1.0)
                    probe.connect(str(self._socket_path))
                except OSError:
                    self._socket_path.unlink()
                else:
                    raise DaemonError(
                        f"a {self.NOUN} is already serving on {self._socket_path}"
                    )
                finally:
                    probe.close()
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(str(self._socket_path))
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self._host, self._port))
            self._port = listener.getsockname()[1]
        listener.listen()
        listener.settimeout(0.2)
        self._listener = listener
        self._started_at = time.monotonic()
        self._on_start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"{self._thread_prefix}-accept",
            daemon=True,
        )
        self._accept_thread.start()

    def serve_forever(self) -> None:
        """Start (if needed) and block until the server is stopped."""
        if self._listener is None:
            self.start()
        try:
            self._stopped.wait()
        except KeyboardInterrupt:
            self.stop()

    def stop(self) -> None:
        """Shut down: run the stop hook, close the listener and every socket.

        Safe to call from a client-handler thread (the ``shutdown`` op
        does) and idempotent.
        """
        if self._stopping.is_set():
            self._stopped.wait()
            return
        self._stopping.set()
        self._on_stop()
        if self._accept_thread is not None:
            self._accept_thread.join()
        if self._listener is not None:
            self._listener.close()
        if self._socket_path is not None and self._socket_path.exists():
            self._socket_path.unlink()
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            connection.close()
        self._stopped.set()

    def _on_start(self) -> None:
        """Hook: runs once the socket is bound, before the first accept."""

    def _on_stop(self) -> None:
        """Hook: runs first thing in :meth:`stop`, while sockets are open."""

    # -- socket plumbing -------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                connection, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with self._connections_lock:
                self._connections.add(connection)
            threading.Thread(
                target=self._serve_connection,
                args=(connection,),
                name=f"{self._thread_prefix}-client",
                daemon=True,
            ).start()

    def _serve_connection(self, sock: socket.socket) -> None:
        connection = _Connection(sock, authenticated=self._auth_token is None)
        try:
            while connection.open and not self._stopping.is_set():
                line = connection.reader.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    frame = json.loads(line)
                    if not isinstance(frame, dict):
                        raise ValueError("frame must be a JSON object")
                except ValueError as error:
                    connection.send(self._error(f"malformed frame: {error}"))
                    continue
                response = self._dispatch(frame, connection)
                if response is not None:
                    connection.send(response)
        except OSError:
            # Client went away mid-write (or the server is closing the
            # socket under us); nothing to clean up beyond the handles.
            pass
        finally:
            with self._connections_lock:
                self._connections.discard(sock)
            connection.close()

    def _dispatch(self, frame: dict, connection: _Connection) -> dict | None:
        """Route one request frame through the core and server op tables."""
        op = frame.get("op")
        if op not in _OPEN_OPS and not connection.authenticated:
            return self._error(
                'authentication required: send {"op": "auth", "token": ...} first'
            )
        handler = None
        if isinstance(op, str):
            handler = self.CORE_OPS.get(op) or self.OPS.get(op)
        if handler is None:
            return self._error(f"unknown op {op!r}")
        return handler(self, frame, connection)

    # -- response frames -------------------------------------------------------
    def _ok(self, **fields) -> dict:
        frame = {"ok": True, "protocol": self.PROTOCOL}
        frame.update(fields)
        return frame

    def _error(self, message: str) -> dict:
        return {"ok": False, "protocol": self.PROTOCOL, "error": message}

    # -- built-in ops ----------------------------------------------------------
    def _ping(self, frame: dict, connection: _Connection) -> dict:
        return self._ok(op="ping", pid=os.getpid())

    def _auth(self, frame: dict, connection: _Connection) -> dict:
        """The shared-secret handshake; constant-time token comparison."""
        if self._auth_token is not None:
            token = frame.get("token")
            if not isinstance(token, str):
                return self._error("auth needs a string 'token'")
            if not hmac.compare_digest(
                token.encode("utf-8"), self._auth_token.encode("utf-8")
            ):
                # An error frame, not a hang-up: the protocol promise that
                # errors never close the connection holds for auth too.
                return self._error("auth failed: bad token")
        connection.authenticated = True
        return self._ok(op="auth", authenticated=True)

    def _shutdown(self, frame: dict, connection: _Connection) -> None:
        connection.send(self._ok(op="shutdown", shutting_down=True))
        connection.open = False
        # Stop from a fresh thread: stop() joins the accept thread and
        # closes handler sockets, and this handler must first return so
        # its own connection can be torn down.
        threading.Thread(
            target=self.stop, name=f"{self._thread_prefix}-shutdown", daemon=True
        ).start()

    #: Ops every server answers; ``ping`` and ``auth`` need no token.
    CORE_OPS: dict[str, Callable] = {
        "ping": _ping,
        "auth": _auth,
        "shutdown": _shutdown,
    }


class WireClient:
    """A blocking client for a JSON-lines server (daemon or cache server).

    One client wraps one connection; requests and responses are
    line-delimited JSON frames.  Response frames with ``"ok": false``
    raise :class:`~repro.exceptions.DaemonError` carrying the server's
    message.  Usable as a context manager.

    Args:
        socket_path: connect to a Unix-socket server...
        host, port: ...or a TCP one.
        timeout: socket timeout in seconds (``None`` blocks forever).
        auth_token: shared secret for a token-protected server; sent as
            an ``auth`` handshake on every (re)connect.
    """

    def __init__(
        self,
        socket_path: str | Path | None = None,
        host: str | None = None,
        port: int | None = None,
        timeout: float | None = None,
        auth_token: str | None = None,
    ) -> None:
        if (socket_path is None) == (host is None):
            raise DaemonError(
                "choose exactly one transport: socket_path=... or host=/port="
            )
        self._socket_path = socket_path
        self._host = host
        self._port = port
        self._timeout = timeout
        self._auth_token = auth_token
        self._connection: socket.socket | None = None
        self._reader = None
        self._writer = None

    @classmethod
    def from_address(
        cls,
        address: str,
        timeout: float | None = None,
        auth_token: str | None = None,
    ):
        """Build a client from an ``unix:<path>`` / ``tcp:<host>:<port>`` string."""
        kind, _, rest = address.partition(":")
        if kind == "unix" and rest:
            return cls(socket_path=rest, timeout=timeout, auth_token=auth_token)
        if kind == "tcp" and rest:
            host, _, port = rest.rpartition(":")
            if host and port.isdigit():
                return cls(
                    host=host,
                    port=int(port),
                    timeout=timeout,
                    auth_token=auth_token,
                )
        raise DaemonError(
            f"not a daemon address: {address!r} "
            "(expected unix:<path> or tcp:<host>:<port>)"
        )

    @property
    def address(self) -> str:
        """The target address: ``unix:<path>`` or ``tcp:<host>:<port>``."""
        if self._socket_path is not None:
            return f"unix:{self._socket_path}"
        return f"tcp:{self._host}:{self._port}"

    # -- connection ------------------------------------------------------------
    def connect(self):
        """Open the connection (idempotent); returns self for chaining."""
        if self._connection is not None:
            return self
        try:
            if self._socket_path is not None:
                connection = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                connection.settimeout(self._timeout)
                connection.connect(str(self._socket_path))
            else:
                connection = socket.create_connection(
                    (self._host, self._port), timeout=self._timeout
                )
        except OSError as error:
            raise DaemonConnectionError(
                f"cannot reach daemon: {error}"
            ) from None
        self._connection = connection
        self._reader = connection.makefile("r", encoding="utf-8")
        self._writer = connection.makefile("w", encoding="utf-8")
        if self._auth_token is not None:
            self._handshake()
        return self

    def _handshake(self) -> None:
        """Present the shared secret; raises (and closes) on refusal."""
        try:
            self._write({"op": "auth", "token": self._auth_token})
        except DaemonError:
            self.close()
            raise
        try:
            response = self._read_frame()
        except DaemonError:
            self.close()
            raise
        if response.get("ok") is not True:
            self.close()
            raise DaemonError(
                response.get("error", "daemon refused the auth handshake")
            )

    def close(self) -> None:
        """Close the connection (idempotent)."""
        for handle in (self._reader, self._writer, self._connection):
            if handle is not None:
                try:
                    handle.close()
                except OSError:
                    pass
        self._reader = self._writer = self._connection = None

    def __enter__(self):
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- framing ---------------------------------------------------------------
    def _write(self, frame: dict) -> None:
        try:
            self._writer.write(json.dumps(frame) + "\n")
            self._writer.flush()
        except OSError as error:
            raise DaemonConnectionError(
                f"daemon connection lost: {error}"
            ) from None

    def _read_frame(self) -> dict:
        try:
            line = self._reader.readline()
        except TimeoutError:
            # The connection is up but quiet — distinct from a loss, so
            # heartbeat-style callers (the fleet coordinator) can probe
            # instead of reconnecting.
            raise DaemonTimeoutError(
                f"no frame within {self._timeout}s"
            ) from None
        except OSError as error:
            raise DaemonConnectionError(
                f"daemon connection lost: {error}"
            ) from None
        if not line:
            raise DaemonConnectionError("daemon closed the connection")
        try:
            frame = json.loads(line)
        except json.JSONDecodeError as error:
            raise DaemonError(f"daemon sent a malformed frame: {error}") from None
        if not isinstance(frame, dict):
            raise DaemonError("daemon sent a non-object frame")
        return frame

    def request(self, frame: dict) -> dict:
        """Send one request frame, return the (checked) response frame."""
        self.connect()
        self._write(frame)
        response = self._read_frame()
        if response.get("ok") is not True:
            raise DaemonError(response.get("error", "daemon refused the request"))
        return response

    # -- built-in ops ----------------------------------------------------------
    def ping(self) -> dict:
        """Round-trip a ``ping``; returns the response frame."""
        return self.request({"op": "ping"})

    def shutdown(self) -> dict:
        """Ask the server to stop, then close this connection."""
        response = self.request({"op": "shutdown"})
        self.close()
        return response
