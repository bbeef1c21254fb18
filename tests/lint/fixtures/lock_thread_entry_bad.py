"""Bad: thread-entry code mutating shared state without the lock."""

import threading


class Worker:
    def __init__(self):
        self._lock = threading.Lock()
        self._results = []
        self._thread = threading.Thread(target=self._loop)

    def _loop(self):
        self._drain()

    def _drain(self):
        self._results.append(1)  # expect[lock-thread-entry]


class Relay:
    def __init__(self):
        self._lock = threading.Lock()
        self._thread = threading.Thread(target=self._pump)

    def _pump(self, job=None):
        job.state = "done"  # expect[lock-thread-entry]


class Server:
    def __init__(self):
        self._lock = threading.Lock()
        self._jobs = {}

    def _handle_submit(self, frame, connection):
        self._jobs.update(frame)  # expect[lock-thread-entry]

    OPS = {"submit": _handle_submit}
