"""The flood workload's process (imports ``repro``, so it is loaded
only once the checkout's ``src`` is on the path)."""

from __future__ import annotations

from repro.macsim import Process


class FloodProcess(Process):
    """Broadcasts ``rounds`` messages back to back, then decides.

    Not a consensus protocol: every node "decides" 0 when its budget is
    spent, which gives the run a termination the consensus checker and
    the columnar decision index can verify. The handler is trivial on
    purpose -- the engine core and the sink do the work.
    """

    def __init__(self, uid, value: int, rounds: int) -> None:
        super().__init__(uid=uid, initial_value=value)
        self.rounds = rounds
        self.sent = 0

    def on_start(self) -> None:
        self._next()

    def on_ack(self) -> None:
        self._next()

    def _next(self) -> None:
        if self.sent < self.rounds:
            self.sent += 1
            self.broadcast(("m", self.uid, self.sent, self.initial_value))
        elif not self.decided:
            self.decide(0)
