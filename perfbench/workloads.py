"""The benchmark's workloads and the passes that drive them.

Every pass goes through the public API only: ``generate_corpus`` writes the
corpus, ``build_cache`` and ``MatchingService`` are built fresh for the
pass, and ``run_manifest`` is timed as one call.  A benchmark-owned
observer timestamps each settled pair.  Runs are serial and in-process.
"""

from __future__ import annotations

import bisect
import gc
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "WORKLOADS",
    "CacheServerProcess",
    "PassResult",
    "SpeedProbe",
    "Workload",
    "build_service",
    "close_service",
    "first_result",
    "generate",
    "measure_setup",
    "run_pass",
]


class SpeedProbe:
    """The machine's current speed, read from a fixed pure-Python loop.

    A shared host's speed drifts by tens of percent within minutes (other
    tenants share its cores), far more than the changes the benchmark must
    resolve.  So timed calls are sampled with this loop before, after and,
    for passes, every :attr:`EVERY_S` while they run (the samples' own time
    is left out of the timing), and each time is also reported as it would
    read where the loop takes :attr:`REFERENCE_S`: raw seconds times
    ``REFERENCE_S / mean sample``.
    """

    #: Loop iterations per sample.
    LOOPS = 100_000
    #: The loop's time at the reference speed (a typical reading on the
    #: 2-core Xeon VM the bounds were set on).
    REFERENCE_S = 0.010
    #: Samples in a bracketing probe (their median), and the pass time
    #: between samples taken while a pass runs.
    SAMPLES = 5
    EVERY_S = 0.5

    def sample(self) -> float:
        """Seconds of one run of the loop."""
        start = time.perf_counter()
        total = 0
        for value in range(self.LOOPS):
            total += value * value % 7
        return time.perf_counter() - start

    def probe(self) -> float:
        """Median of :attr:`SAMPLES` samples."""
        return sorted(self.sample() for _ in range(self.SAMPLES))[self.SAMPLES // 2]

    def scale(self, samples: list[float]) -> float:
        """The factor turning raw times into reference-speed times."""
        return self.REFERENCE_S * len(samples) / sum(samples)

    def bracket(self, call):
        """``(call(), scale)`` with the scale of probes before and after."""
        before = self.probe()
        result = call()
        return result, self.scale([before, self.probe()])


@dataclass(frozen=True)
class Workload:
    """One seeded input set and how the service is configured for it.

    Why each workload exists is recorded in ``BENCHMARK.json``.

    Attributes:
        corpus: keyword arguments of ``generate_corpus``; the corpus seed
            is supplied per run.
        verify: ``MatchingService(verify=...)`` for the timed passes.
        remote: match against a ``repro cache-server`` filled in set-up.
    """

    name: str
    corpus: dict
    verify: bool
    remote: bool


# Classes default to the 8 tractable ones.
_CORPUS_8 = {
    "num_lines": 8,
    "families": ("random", "library", "adversarial"),
    "pairs_per_class": 20,
}

WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("cold8-verified", _CORPUS_8, verify=True, remote=False),
        Workload(
            "wide-cold",
            {"families": ("wide",), "pairs_per_class": 100},
            verify=False,
            remote=False,
        ),
        # Verify is on as in cold8-verified; on cache hits it never runs.
        Workload("warm8-remote", _CORPUS_8, verify=True, remote=True),
    )
}


def generate(workload: Workload, directory: Path, seed: int) -> Path:
    """Write the workload's corpus for ``seed``; returns its manifest path."""
    from repro.service import generate_corpus

    generate_corpus(directory, seed=seed, **workload.corpus)
    return directory / "manifest.json"


def _settle_events() -> tuple[type, ...]:
    from repro.service import CacheHit, TaskCompleted, TaskFailed

    return (CacheHit, TaskCompleted, TaskFailed)


class _SettleClock:
    """Observer stamping the moment each pair settles.

    Every :attr:`SpeedProbe.EVERY_S` it also takes a speed sample, right
    after a stamp whose index it records in :attr:`marks`; stamps are on a
    clock that leaves the samples' time out (:attr:`excluded_s`).
    """

    def __init__(self, speed: SpeedProbe) -> None:
        self._settled = _settle_events()
        self._speed = speed
        self._last = time.perf_counter()
        self.times: list[float] = []
        self.samples: list[float] = []
        self.marks: list[int] = []
        self.excluded_s = 0.0

    def notify(self, event) -> None:
        if isinstance(event, self._settled):
            now = time.perf_counter()
            self.times.append(now - self.excluded_s)
            if now - self._last >= self._speed.EVERY_S:
                self.marks.append(len(self.times) - 1)
                self.samples.append(self._speed.sample())
                self._last = time.perf_counter()
                self.excluded_s += self._last - now


@dataclass
class PassResult:
    """One timed ``run_manifest`` call.

    ``wall_s`` and ``settle_s`` (each settled pair's time since the call
    started) leave out the speed samples taken during the pass.  ``scale``
    turns the pass's times into reference-speed times, and
    ``interval_scales[i]`` does so for the interval ending at settle
    ``i + 1`` from the samples taken nearest it.
    """

    start: float
    wall_s: float
    settle_s: list[float]
    report: object
    scale: float
    interval_scales: list[float]


def build_service(address: str | None, verify: bool):
    """A fresh service on a fresh cache stack (remote tier when addressed)."""
    from repro.service import MatchingService, build_cache

    cache = build_cache(remote=address) if address else build_cache()
    return MatchingService(cache=cache, verify=verify)


def close_service(service) -> None:
    """Drop the remote tier's connection, if the stack has one."""
    slow = getattr(service.cache, "slow", None)
    if hasattr(slow, "close"):
        slow.close()


def run_pass(
    service, manifest: Path, store: Path, run_seed: int, speed: SpeedProbe
) -> PassResult:
    """Time one whole ``run_manifest`` call into a fresh result store."""
    store.unlink(missing_ok=True)
    gc.collect()
    before = speed.probe()
    clock = _SettleClock(speed)
    start = time.perf_counter()
    report = service.run_manifest(
        manifest, store_path=store, seed=run_seed, observers=[clock]
    )
    wall = time.perf_counter() - start - clock.excluded_s
    samples = [before, *clock.samples, speed.probe()]
    local = []
    for end in range(1, len(clock.times)):
        # The first sample taken at or after this settle, and its neighbours.
        nearest = 1 + bisect.bisect_left(clock.marks, end)
        local.append(speed.scale(samples[nearest - 1 : nearest + 2]))
    return PassResult(
        start,
        wall,
        [t - start for t in clock.times],
        report,
        speed.scale(samples),
        local,
    )


def first_result(service, manifest: Path, store: Path, run_seed: int) -> float:
    """Seconds from a ``stream`` call to its first settled pair.

    The consumer stops there and closes the stream, as a caller that only
    wants the first answer would.
    """
    settled = _settle_events()
    store.unlink(missing_ok=True)
    gc.collect()
    start = time.perf_counter()
    events = service.stream(manifest, store_path=store, seed=run_seed)
    try:
        for event in events:
            if isinstance(event, settled):
                return time.perf_counter() - start
    finally:
        events.close()
    raise RuntimeError("stream settled no pair")


_SETUP_PROGRAM = """\
import sys
sys.path.insert(0, {src!r})
import repro.cli
from repro.service import MatchingService, build_cache
address = {address!r}
cache = build_cache(remote=address) if address else build_cache()
MatchingService(cache=cache, verify={verify!r})
"""


def measure_setup(
    root: Path, address: str | None, verify: bool, repeats: int, speed: SpeedProbe
) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing ``repro.cli`` and building
    the workload's service and cache stack: ``(raw, reference-speed)``."""
    program = _SETUP_PROGRAM.format(
        src=str(root / "src"), address=address, verify=verify
    )

    def one() -> float:
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", program],
            cwd=root,
            check=True,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        return time.perf_counter() - start

    raw, scaled = [], []
    for _ in range(repeats):
        seconds, scale = speed.bracket(one)
        raw.append(seconds)
        scaled.append(seconds * scale)
    return raw, scaled


class CacheServerProcess:
    """A ``repro cache-server`` subprocess on a Unix socket in ``workdir``.

    The socket path is relative to ``root`` (the working directory of both
    sides) when ``workdir`` lies inside it, which keeps it short.  Leaving
    the context shuts the server down and waits for the process to end.
    """

    def __init__(self, root: Path, workdir: Path) -> None:
        self._root = root
        try:
            self._socket = workdir.relative_to(root) / "cache.sock"
        except ValueError:
            self._socket = workdir / "cache.sock"
        self._address_file = workdir / "cache.address"
        self._log = workdir / "cache-server.log"
        self._process: subprocess.Popen | None = None
        self.address: str | None = None

    def __enter__(self) -> "CacheServerProcess":
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(self._root / "src"), env.get("PYTHONPATH")) if part
        )
        with open(self._log, "wb") as log:
            self._process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "cache-server",
                    "--socket", str(self._socket),
                    "--address-file", str(self._address_file),
                    "--cache-size", "8192",
                ],
                cwd=self._root,
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        try:
            deadline = time.monotonic() + 60
            while self.address is None:
                if self._process.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError(
                        "cache server did not start:\n"
                        + self._log.read_text(errors="replace")
                    )
                time.sleep(0.05)
                if self._address_file.exists():
                    self.address = self._address_file.read_text().strip() or None
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        from repro.exceptions import DaemonError
        from repro.service.daemon import DaemonClient

        process, self._process = self._process, None
        if process is None:
            return
        if process.poll() is None and self.address is None:
            process.terminate()
        elif process.poll() is None:
            client = DaemonClient.from_address(self.address, timeout=5)
            try:
                client.request({"op": "shutdown"})
            except DaemonError:
                pass
            finally:
                client.close()
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
