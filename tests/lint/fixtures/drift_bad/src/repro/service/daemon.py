"""Fixture daemon: dispatches `flush`, which the protocol doc omits."""

from repro.wire import WireServer


class MatchingDaemon(WireServer):
    def _handle_flush(self, frame, connection):
        return {"ok": True, "flushed": True}

    OPS = {"flush": _handle_flush}
