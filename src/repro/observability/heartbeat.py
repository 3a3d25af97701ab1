"""Live progress line for long-running interactive runs.

A :class:`Heartbeat` is a daemon thread that periodically prints a one-line
elapsed/phase/rounds summary from ``Telemetry.snapshot()`` to stderr, so a
human can tell a long run is alive.  A sweep cell's liveness is its
drain's owner lock, which the kernel holds for as long as the drain runs
(see :mod:`repro.orchestration.store`); ``drr-gossip results --queue``
lists each claim and flags the orphaned ones.
"""

from __future__ import annotations

import sys
import threading

from .telemetry import NullTelemetry

__all__ = ["Heartbeat"]


class Heartbeat:
    """Print ``telemetry.snapshot()`` every ``interval_s`` seconds.

    Usable as a context manager; ``stop()`` is idempotent and joins the
    thread.  With a disabled (Null) telemetry the line still shows elapsed
    wall time, so ``--heartbeat`` works even without ``--telemetry``.
    """

    def __init__(
        self,
        telemetry: NullTelemetry,
        interval_s: float = 10.0,
        stream=None,
        label: str = "",
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"heartbeat interval must be positive, got {interval_s}")
        self._telemetry = telemetry
        self._interval = float(interval_s)
        self._stream = stream if stream is not None else sys.stderr
        self._label = label
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._ticks = 0

    @property
    def ticks(self) -> int:
        return self._ticks

    def _format_line(self) -> str:
        import time

        if self._telemetry.enabled:
            snap = self._telemetry.snapshot()
            elapsed = snap["elapsed_s"]
            detail = f" phase={snap['phase'] or '-'} rounds={snap['rounds']}"
        else:
            elapsed = time.perf_counter() - self._started
            detail = ""
        prefix = f"{self._label}: " if self._label else ""
        return f"[heartbeat] {prefix}elapsed={elapsed:.1f}s{detail}"

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self._ticks += 1
            print(self._format_line(), file=self._stream, flush=True)

    def start(self) -> "Heartbeat":
        import time

        self._started = time.perf_counter()
        self._thread = threading.Thread(target=self._run, name="repro-heartbeat", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self._interval + 1.0)
            self._thread = None

    def __enter__(self) -> "Heartbeat":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
