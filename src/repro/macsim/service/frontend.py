"""Client-facing frontend: per-group proposal queues and slot batching.

Real replicated-log services do not run one consensus instance per
client request -- the frontend accumulates proposals while a group's
current slot is deciding and folds the backlog into the next slot
(batching is where log throughput comes from). This module is the
bookkeeping half of that story: FIFO queues per group, batch windows
bounded by ``batch_size``, and arrival timestamps kept so the service
can account end-to-end latency (commit time minus arrival) per
request.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List

__all__ = ["Request", "ServiceFrontend"]


@dataclass(frozen=True)
class Request:
    """One client proposal as the frontend sees it."""

    client: int
    #: Per-client request sequence number (0-based).
    index: int
    group: int
    #: Virtual-time instant the proposal arrived at the frontend.
    arrival: float


class ServiceFrontend:
    """Per-group FIFO proposal queues with bounded batch windows."""

    def __init__(self, *, batch_size: int = 8) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        self._queues: Dict[int, Deque[Request]] = {}
        self.submitted = 0
        self._peaks: Dict[int, int] = {}

    def submit(self, request: Request) -> None:
        """Queue one proposal for its group."""
        queue = self._queues.get(request.group)
        if queue is None:
            queue = self._queues[request.group] = deque()
        queue.append(request)
        self.submitted += 1
        depth = len(queue)
        if depth > self._peaks.get(request.group, 0):
            self._peaks[request.group] = depth

    def queue_peaks(self) -> Dict[int, int]:
        """Peak queue depth observed per group (queueing-pressure
        gauge for the metrics registry)."""
        return dict(self._peaks)

    def pending(self, group: int) -> int:
        queue = self._queues.get(group)
        return len(queue) if queue is not None else 0

    def next_batch(self, group: int) -> List[Request]:
        """Pop the oldest ``batch_size`` proposals queued for
        ``group`` (possibly fewer; empty when the queue is idle)."""
        queue = self._queues.get(group)
        if not queue:
            return []
        take = min(self.batch_size, len(queue))
        return [queue.popleft() for _ in range(take)]
