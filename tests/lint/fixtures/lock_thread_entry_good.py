"""Good: thread-entry mutations hold the lock (or go through queues)."""

import queue
import threading


class Worker:
    def __init__(self):
        self._lock = threading.Lock()
        self._results = []
        self._pending = queue.Queue()
        self._thread = threading.Thread(target=self._loop)

    def _loop(self):
        self._drain()

    def _drain(self):
        with self._lock:
            self._results.append(1)
        self._pending.put(len(self._results))


class Relay:
    def __init__(self):
        self._lock = threading.Lock()
        self._thread = threading.Thread(target=self._pump)

    def _pump(self, job=None):
        with job._lock:
            job.state = "done"


class Server:
    def __init__(self):
        self._lock = threading.Lock()
        self._jobs = {}

    def _handle_submit(self, frame, connection):
        with self._lock:
            self._jobs.update(frame)

    OPS = {"submit": _handle_submit}
