"""Fixture cache server in agreement with its protocol doc."""

from repro.wire import WireServer


class CacheServer(WireServer):
    def _handle_get(self, frame, connection):
        return {"ok": True, "record": None}

    OPS = {"get": _handle_get}
