"""The shared remote cache tier: ``repro-cache/v1`` server and client.

One fleet, one warm-hit pool: :class:`~repro.cachenet.server.CacheServer`
exposes any :class:`~repro.service.cache.ResultCache` over the newline-
delimited JSON protocol ``repro-cache/v1`` (``docs/remote-cache.md``),
and :class:`~repro.cachenet.remote.RemoteCache` slots that server into
the client-side tier stack — the first worker to match a pair pays the
oracle queries; every other worker (and every later run) hits cache.

The package depends on :mod:`repro.service` for the cache contract and
on :mod:`repro.wire` for the transport (the server core and the line
client); the service layer only ever imports it lazily, so the
dependency stays one-directional.
"""

from repro.cachenet.remote import RemoteCache
from repro.cachenet.server import CACHE_PROTOCOL_VERSION, CacheServer

__all__ = ["CACHE_PROTOCOL_VERSION", "CacheServer", "RemoteCache"]
