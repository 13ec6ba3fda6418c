"""How fast the host runs this process, to put CPU times on one scale.

On a shared host the same work takes from 1x to about 1.9x the CPU time,
and the host switches between fast and slow every few seconds as the
other tenants load the core, its caches and its sibling hyperthread.
A :class:`Sampler` thread runs a fixed probe (blake2b hashing and dict
updates, a little of what pairsim does, but no pairsim code) every
``PERIOD_S`` and keeps a running sum of its CPU times. The mean probe
time over an interval is how slow the host was then, and

    scaled(cpu_s, probe_s) = cpu_s * REFERENCE_S / probe_s

reads as the CPU seconds the work would take on a host where the probe
takes ``REFERENCE_S``. A change to pairsim moves the measured times and
never the probe. The process should be pinned to one CPU, so that the
probe and the work it scales share it.

Imports only the standard library: it starts before the set-up it times.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time

REFERENCE_S = 0.0005
"""Probe CPU seconds that scaled times refer to: a round figure within the
0.36 to 0.72 ms the probe took on a shared 2-vCPU Xeon VM."""

PERIOD_S = 0.05

_TOKENS = [f"tok{i}_{i % 7}" for i in range(360)]


def probe() -> float:
    """CPU seconds this thread takes to run the fixed probe once."""
    start = time.thread_time()
    counts: dict[int, int] = {}
    for token in _TOKENS:
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        key = int.from_bytes(digest, "little") % 4096
        counts[key] = counts.get(key, 0) + len(token)
    return time.thread_time() - start


class Sampler:
    """A daemon thread that probes every ``PERIOD_S``; one per process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        # (probes, their CPU seconds), rebound as one tuple so that a
        # reader never sees one updated without the other
        self.totals: tuple[int, float] = (1, probe())
        self._stopped = threading.Event()
        self._thread = threading.Thread(target=self._run, name="yardstick", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stopped.wait(PERIOD_S):
            n, secs = self.totals
            self.totals = (n + 1, secs + probe())

    def stop(self) -> None:
        """End the thread, as a process must before it forks."""
        self._stopped.set()
        self._thread.join()

    def mark(self) -> tuple[int, float]:
        """The running totals; ``mark()[1]`` is the probes' CPU seconds so far."""
        return self.totals

    @staticmethod
    def probe_s(since: tuple[int, float], until: tuple[int, float]) -> float:
        """Mean probe time between two marks (over all so far if none fell between)."""
        if until[0] > since[0]:
            return (until[1] - since[1]) / (until[0] - since[0])
        return until[1] / until[0]


_SAMPLER: Sampler | None = None


def sampler() -> Sampler:
    """This process's sampler, started on first use (a forked child starts its own)."""
    global _SAMPLER
    if _SAMPLER is None or _SAMPLER.pid != os.getpid():
        _SAMPLER = Sampler()
    return _SAMPLER


def sampler_pid() -> int | None:
    """The pid that started the current sampler, if any."""
    return _SAMPLER.pid if _SAMPLER is not None else None


def scaled(cpu_s: float, probe_s: float) -> float:
    """``cpu_s`` measured while the probe took ``probe_s``, at reference speed."""
    return cpu_s * REFERENCE_S / probe_s
