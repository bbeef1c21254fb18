"""Fixture wire core: the built-in op every server answers."""


class WireServer:
    def _ping(self, frame, connection):
        return {"ok": True}

    CORE_OPS = {"ping": _ping}
