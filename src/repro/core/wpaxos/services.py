"""The wPAXOS support services (Algorithms 2, 3 and 4 of the paper).

Each service owns a message queue drained by the broadcast multiplexer
(Algorithm 5, implemented in ``node.py``): one part per non-empty queue
per physical broadcast. The services communicate with the node through
narrow callbacks so each can be unit-tested in isolation.

* :class:`LeaderElectionService` -- flood the maximum id; eventually
  every node agrees on the same leader (the max id in the network).
* :class:`ChangeService` -- flood totally-ordered change stamps; each
  fresher stamp processed at the current leader triggers proposal
  generation. A *change* is an update of the pair ``(Omega_u,
  dist[Omega_u])`` -- the node's leader and its distance to it -- which
  is what makes the paper's Lemma 4.5 "final change by GST" argument
  go through (the proposer side is :mod:`repro.core.wpaxos.proposer`).
* :class:`TreeService` -- Bellman-Ford shortest-path trees for every
  root, with the crucial optimization that the current leader's search
  messages jump to the front of the queue, so the leader's tree
  completes ``O(D * F_ack)`` after the election stabilizes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .messages import ChangePart, LeaderPart, SearchPart


class LeaderElectionService:
    """Algorithm 2: maintain ``Omega_u``, the largest id seen."""

    def __init__(self, uid: int,
                 on_leader_change: Callable[[int, int], None]) -> None:
        self.uid = uid
        self.leader = uid
        self._on_leader_change = on_leader_change
        self.queue: List[LeaderPart] = []
        self._update_queue(LeaderPart(leader=uid))

    def on_receive(self, part: LeaderPart) -> None:
        if part.leader > self.leader:
            old = self.leader
            self.leader = part.leader
            self._update_queue(part)
            self._on_leader_change(old, part.leader)

    def _update_queue(self, part: LeaderPart) -> None:
        # The queue never holds more than the freshest leader message.
        self.queue.clear()
        self.queue.append(part)

    def pop(self) -> Optional[LeaderPart]:
        if self.queue:
            return self.queue.pop(0)
        return None

    def has_pending(self) -> bool:
        return bool(self.queue)


class ChangeService:
    """Algorithm 3: flood change stamps; trigger proposals at the leader.

    ``stamp`` values are ``(timestamp, origin id)`` pairs compared
    lexicographically; the id component breaks ties between changes
    occurring at the same instant at different nodes.
    """

    def __init__(self, uid: int, clock: Callable[[], float],
                 is_leader: Callable[[], bool],
                 generate_proposal: Callable[[], None]) -> None:
        self.uid = uid
        self._clock = clock
        self._is_leader = is_leader
        self._generate_proposal = generate_proposal
        self.last_change: Optional[tuple] = None
        self.queue: List[ChangePart] = []

    def on_local_change(self) -> None:
        """``ONCHANGE``: this node's ``(leader, dist-to-leader)`` moved."""
        stamp = (self._clock(), self.uid)
        if self.last_change is None or stamp > self.last_change:
            self.last_change = stamp
            self._update_queue(ChangePart(stamp=stamp))

    def on_receive(self, part: ChangePart) -> None:
        if self.last_change is None or part.stamp > self.last_change:
            self.last_change = part.stamp
            self._update_queue(part)

    def _update_queue(self, part: ChangePart) -> None:
        self.queue.clear()
        self.queue.append(part)
        if self._is_leader():
            self._generate_proposal()

    def pop(self) -> Optional[ChangePart]:
        if self.queue:
            return self.queue.pop(0)
        return None

    def has_pending(self) -> bool:
        return bool(self.queue)


class TreeService:
    """Algorithm 4: eventually-stable shortest-path trees, all roots.

    ``dist[r]`` / ``parent[r]`` converge to the true hop distance and a
    shortest-path parent toward ``r``. Queue discipline: at most one
    queued search per root (the lowest hop count wins), and -- when
    ``prioritize_leader`` is set -- the current leader's search message
    is served first.
    """

    def __init__(self, uid: int, current_leader: Callable[[], int],
                 on_tree_change: Callable[[int], None],
                 prioritize_leader: bool = True) -> None:
        self.uid = uid
        self._current_leader = current_leader
        self._on_tree_change = on_tree_change
        self.prioritize_leader = prioritize_leader
        self.dist: Dict[int, int] = {uid: 0}
        self.parent: Dict[int, int] = {uid: uid}
        # Insertion-ordered, so the dict *is* the FIFO: replacing a
        # root's entry keeps its place, popping and re-enqueueing it
        # moves it to the back.
        self._queued: Dict[int, SearchPart] = {}
        self._enqueue(SearchPart(root=uid, hops=1, sender=uid))

    # ------------------------------------------------------------------
    def on_receive(self, part: SearchPart) -> None:
        current = self.dist.get(part.root)
        if current is None or part.hops < current:
            self.dist[part.root] = part.hops
            self.parent[part.root] = part.sender
            self._enqueue(SearchPart(part.root, part.hops + 1, self.uid))
            self._on_tree_change(part.root)

    def _enqueue(self, part: SearchPart) -> None:
        queued = self._queued.get(part.root)
        if queued is not None and queued.hops <= part.hops:
            return  # a fresher (lower hop) message is already queued
        self._queued[part.root] = part

    def pop(self) -> Optional[SearchPart]:
        queued = self._queued
        if not queued:
            return None
        if self.prioritize_leader:
            part = queued.pop(self._current_leader(), None)
            if part is not None:
                return part
        return queued.pop(next(iter(queued)))

    def has_pending(self) -> bool:
        return bool(self._queued)

    def pending_roots(self) -> List[int]:
        """Roots with queued search messages, in queue order."""
        return list(self._queued)

    def distance_to(self, root: int) -> Optional[int]:
        """Best-known hop distance to ``root`` (None if unheard of)."""
        return self.dist.get(root)
