"""The cache server: one :class:`ResultCache` shared over a socket.

:class:`CacheServer` speaks ``repro-cache/v1`` (specified in
``docs/remote-cache.md``): newline-delimited JSON request/response frames
over a Unix or TCP socket, served by the same :mod:`repro.wire` core as
the matching daemon — one JSON object per line, every response carrying
``ok`` and ``protocol``, errors never closing the connection.  The
server is a thin shell around any existing
:class:`~repro.service.cache.ResultCache` (LRU, disk, tiered):
``get``/``put``/``get_many`` go straight through
the cache's public surface, so the backing tier's
:class:`~repro.service.cache.CacheStats` counts every remote lookup and
the ``stats`` op reconciles with it exactly.

Security is the core's, so it is the daemon's: the shared-secret
``auth`` handshake (constant-time comparison, per-connection flag), with
``ping`` and ``auth`` the only unauthenticated ops, and a refusal to
bind a non-loopback TCP address without a token unless ``insecure`` opts
out explicitly.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.exceptions import DaemonError
from repro.service.cache import ResultCache
from repro.wire import WireServer

__all__ = ["CACHE_PROTOCOL_VERSION", "CacheServer"]

#: Wire-protocol version stamped on every response frame.
CACHE_PROTOCOL_VERSION = "repro-cache/v1"

#: Upper bound on one ``get_many`` batch; a larger request is an error
#: frame, bounding the response a single frame must carry.
GET_MANY_LIMIT = 4096


class CacheServer(WireServer):
    """A socket server exposing one result cache to many clients.

    Args:
        cache: the backing :class:`~repro.service.cache.ResultCache`;
            every remote ``get``/``put`` lands on its public surface, so
            its stats and metrics count network traffic like local
            traffic.
        socket_path, host, port, auth_token, insecure: the transport
            and its shared secret, exactly as for
            :class:`~repro.wire.WireServer`.

    Stopping leaves the backing cache untouched — a disk tier keeps
    every entry for the next server.
    """

    PROTOCOL = CACHE_PROTOCOL_VERSION
    NOUN = "cache server"
    COMMAND = "repro cache-server"

    def __init__(
        self,
        cache: ResultCache,
        *,
        socket_path: str | Path | None = None,
        host: str | None = None,
        port: int | None = None,
        auth_token: str | None = None,
        insecure: bool = False,
    ) -> None:
        if cache is None:
            raise DaemonError("a cache server needs a backing cache")
        super().__init__(
            socket_path=socket_path,
            host=host,
            port=port,
            auth_token=auth_token,
            insecure=insecure,
        )
        self._cache = cache

    @property
    def cache(self) -> ResultCache:
        """The backing cache the server fronts."""
        return self._cache

    # -- ops -------------------------------------------------------------------
    def _handle_get(self, frame: dict, connection) -> dict:
        key = frame.get("key")
        if not isinstance(key, str):
            return self._error("get needs a string 'key'")
        record = self._cache.get(key)
        return self._ok(op="get", key=key, record=record)

    def _handle_put(self, frame: dict, connection) -> dict:
        key = frame.get("key")
        if not isinstance(key, str):
            return self._error("put needs a string 'key'")
        record = frame.get("record")
        if not isinstance(record, dict):
            return self._error("put needs an object 'record'")
        self._cache.put(key, record)
        return self._ok(op="put", key=key, stored=True)

    def _handle_get_many(self, frame: dict, connection) -> dict:
        keys = frame.get("keys")
        if not isinstance(keys, list) or not all(
            isinstance(key, str) for key in keys
        ):
            return self._error("get_many needs a list of string 'keys'")
        if len(keys) > GET_MANY_LIMIT:
            return self._error(
                f"get_many is capped at {GET_MANY_LIMIT} keys per request; "
                f"got {len(keys)}"
            )
        # One cache.get per key, so the backing CacheStats counts every
        # batched probe exactly like a single-key lookup would — the
        # `stats` op reconciles with hits+misses no matter the batching.
        records = {}
        for key in keys:
            record = self._cache.get(key)
            if record is not None:
                records[key] = record
        return self._ok(op="get_many", records=records, misses=len(keys) - len(records))

    def _handle_stats(self, frame: dict, connection) -> dict:
        # The exact CacheStats.as_dict shape the daemon's own stats op
        # reports for its cache, plus the entry count — the remote and
        # local views of one pool reconcile field by field.
        return self._ok(
            op="stats",
            uptime=time.monotonic() - self._started_at,
            cache={**self._cache.stats.as_dict(), "size": len(self._cache)},
        )

    #: Authenticated ops; ``ping``, ``auth`` and ``shutdown`` are the core's.
    OPS = {
        "get": _handle_get,
        "put": _handle_put,
        "get_many": _handle_get_many,
        "stats": _handle_stats,
    }
