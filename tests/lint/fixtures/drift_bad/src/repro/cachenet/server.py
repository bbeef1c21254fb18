"""Fixture cache server: dispatches `evict`, which the doc omits."""

from repro.wire import WireServer


class CacheServer(WireServer):
    def _handle_get(self, frame, connection):
        return {"ok": True, "record": None}

    def _handle_evict(self, frame, connection):
        return {"ok": True, "evicted": 1}

    OPS = {"get": _handle_get, "evict": _handle_evict}
