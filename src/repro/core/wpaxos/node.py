"""The wPAXOS node: services + PAXOS roles + broadcast multiplexer.

:class:`WPaxosNode` assembles the pieces of Section 4.2.1:

* the three support services (leader election, change, tree building);
* the proposer and acceptor roles every node plays;
* the proposer-message flooding layer with its queue invariant (only
  the current leader's messages, only its largest proposal number);
* the acceptor response queue with tree-routed, aggregated unicast;
* the broadcast service (Algorithm 5): whenever the MAC layer is idle
  and any queue is non-empty, dequeue at most one part per queue,
  combine them into one :class:`~repro.core.wpaxos.messages.WMessage`,
  and broadcast -- keeping every physical message at O(1) ids.

A *change* notification fires whenever the node's ``(leader,
dist-to-leader)`` pair moves (see ``services.py`` for why this is the
right reading of the paper's "Omega_u or dist_u updated").

Requires unique ids and knowledge of ``n`` (for majorities), exactly
the knowledge the Section 3 lower bounds prove necessary.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..base import ConsensusProcess
from .acceptor import AcceptorState, ResponseQueue
from .config import WPaxosConfig
from .messages import (ChangePart, DecidePart, LeaderPart, PREPARE,
                       ProposerPart, ResponsePart, SearchPart, WMessage,
                       proposition_key)
from .proposer import Proposer
from .services import ChangeService, LeaderElectionService, TreeService


class WPaxosNode(ConsensusProcess):
    """One wPAXOS participant (proposer + acceptor + services).

    Parameters
    ----------
    uid:
        Unique node id (ints; leader election takes the maximum).
    initial_value:
        Binary consensus input (or any hashable value with
        ``allow_arbitrary_values=True``: the paper poses efficient
        *multivalued* consensus as an open generalization, but PAXOS
        is value-agnostic, so wPAXOS solves it directly -- values
        just ride the propose messages).
    n:
        Network size -- the knowledge Theorem 3.9 proves necessary.
        Only used to recognize majorities (footnote 1 of the paper).
    config:
        Design-choice toggles; see :class:`WPaxosConfig`.
    """

    def __init__(self, uid: int, initial_value: int, n: int,
                 config: Optional[WPaxosConfig] = None, *,
                 allow_arbitrary_values: bool = False) -> None:
        super().__init__(uid=uid, initial_value=initial_value,
                         allow_arbitrary_values=allow_arbitrary_values)
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        self.config = config or WPaxosConfig()

        self.leader_svc = LeaderElectionService(
            uid, on_leader_change=self._on_leader_change)
        self.tree_svc = TreeService(
            uid, current_leader=self._current_leader,
            on_tree_change=self._on_tree_change,
            prioritize_leader=self.config.tree_priority)
        self.change_svc = ChangeService(
            uid, clock=self.now,
            is_leader=self._is_leader,
            generate_proposal=self._generate_proposal)
        self.acceptor = AcceptorState(uid)
        self.response_queue = ResponseQueue(
            aggregation=self.config.aggregation)
        self.proposer = Proposer(
            uid, initial_value, n, self.config,
            is_leader=self._is_leader,
            flood=self._handle_proposer_part,
            on_chosen=self._on_chosen)

        self.proposer_queue: List[ProposerPart] = []
        self.decide_queue: List[DecidePart] = []
        self._seen_proposer_parts: set = set()
        self._largest_from_leader = None
        self._last_change_state = None
        self._decide_flooded = False

        # Exact-type dispatch for the receive hot path; a part of any
        # other class is ignored.
        self._part_handlers = {
            LeaderPart: self.leader_svc.on_receive,
            ChangePart: self.change_svc.on_receive,
            SearchPart: self.tree_svc.on_receive,
            ProposerPart: self._handle_proposer_part,
            ResponsePart: self._handle_response_part,
            DecidePart: self._handle_decide_part,
        }

    # ------------------------------------------------------------------
    # Process handlers
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        # Initialization counts as a change: Omega_u was just set to
        # id_u and dist[id_u] to 0. This bootstraps proposal generation
        # (and makes the degenerate n=1 network decide).
        self._note_possible_change(force=True)
        self._pump()

    def on_receive(self, message: Any) -> None:
        if (message.__class__ is not WMessage
                and not isinstance(message, WMessage)):
            return
        handlers = self._part_handlers
        for part in message.parts:
            handler = handlers.get(part.__class__)
            if handler is not None:
                handler(part)
        # Inlined body of _note_possible_change (receive hot path);
        # keep in sync with that method.
        leader = self.leader_svc.leader
        state = (leader, self.tree_svc.dist.get(leader))
        if state != self._last_change_state:
            self._last_change_state = state
            self.change_svc.on_local_change()
        if not self._mac_pending:
            self._pump()

    def on_ack(self) -> None:
        self._pump()

    # ------------------------------------------------------------------
    # Service callbacks (bound methods: a deep copy rebinds them)
    # ------------------------------------------------------------------
    def _current_leader(self) -> int:
        return self.leader_svc.leader

    def _is_leader(self) -> bool:
        return self.leader_svc.leader == self.uid

    def _on_leader_change(self, old: int, new: int) -> None:
        if old == self.uid:
            self.proposer.abdicate()
        self._largest_from_leader = None
        self.proposer_queue.clear()
        self.response_queue.enforce_invariant(new, None)
        self._note_possible_change()

    def _on_tree_change(self, root: int) -> None:
        self._note_possible_change()

    def _note_possible_change(self, force: bool = False) -> None:
        """Fire the change service when (leader, dist-to-leader) moves.

        The ``force=False`` body is duplicated inline at the end of
        :meth:`on_receive` (the hot path); keep the two in sync.
        """
        leader = self.leader_svc.leader
        state = (leader, self.tree_svc.dist.get(leader))
        if force or state != self._last_change_state:
            self._last_change_state = state
            self.change_svc.on_local_change()

    def _generate_proposal(self) -> None:
        if not self.decided:
            self.proposer.generate_new_proposal()

    def _on_chosen(self, value: int) -> None:
        """A proposal of ours was accepted by a majority: decide."""
        self.decide(value)
        self._flood_decision(value)

    # ------------------------------------------------------------------
    # Proposer message flooding (with the paper's queue invariant)
    # ------------------------------------------------------------------
    def _handle_proposer_part(self, part: ProposerPart) -> None:
        key = (part.kind, part.number)
        if key in self._seen_proposer_parts:
            return
        self._seen_proposer_parts.add(key)
        self.proposer.observe_number(part.number)

        proposer_id = part.number[1]
        # Queue invariant: rebroadcast only the current leader's
        # messages, and only those for its largest proposal number.
        if proposer_id == self.leader_svc.leader:
            if (self._largest_from_leader is None
                    or part.number > self._largest_from_leader):
                self._largest_from_leader = part.number
                self.proposer_queue = [
                    p for p in self.proposer_queue
                    if p.number >= self._largest_from_leader]
                self.response_queue.enforce_invariant(
                    proposer_id, self._largest_from_leader)
            if part.number >= self._largest_from_leader:
                self.proposer_queue.append(part)

        # Acceptor role: respond to every proposition we see.
        if part.kind == PREPARE:
            seed = self.acceptor.on_prepare(part.number, proposer_id)
        else:
            seed = self.acceptor.on_propose(part.number, part.value,
                                            proposer_id)
        monitor = self.config.monitor
        if monitor is not None and seed.affirmative:
            monitor.note_generated(
                proposition_key(proposer_id, seed.kind, seed.number))
        if proposer_id == self.uid:
            # Self-response skips the queue (Section 4.2.1).
            response = ResponsePart(dest=self.uid, proposer=self.uid,
                                    kind=seed.kind, number=seed.number,
                                    count=1, prior=seed.prior,
                                    committed=seed.committed)
            self._deliver_to_proposer(response)
        else:
            self.response_queue.add_seed(seed)
            self.response_queue.enforce_invariant(
                self.leader_svc.leader, self._largest_from_leader)

    # ------------------------------------------------------------------
    # Response routing
    # ------------------------------------------------------------------
    def _handle_response_part(self, part: ResponsePart) -> None:
        if part.dest != self.uid:
            return  # overheard unicast; not for us
        if part.proposer == self.uid:
            self._deliver_to_proposer(part)
        else:
            self.response_queue.add_part(part)
            self.response_queue.enforce_invariant(
                self.leader_svc.leader, self._largest_from_leader)

    def _deliver_to_proposer(self, part: ResponsePart) -> None:
        counted = self.proposer.on_response(part)
        monitor = self.config.monitor
        if counted and monitor is not None:
            monitor.note_counted(
                proposition_key(part.proposer, part.kind, part.number),
                counted)

    def _parent_of(self, proposer: int) -> Optional[int]:
        parent = self.tree_svc.parent.get(proposer)
        if parent == self.uid:
            return None  # would loop back to ourselves; not routable
        return parent

    # ------------------------------------------------------------------
    # Decision flooding
    # ------------------------------------------------------------------
    def _handle_decide_part(self, part: DecidePart) -> None:
        if not self.decided:
            self.decide(part.value)
        self._flood_decision(part.value)

    def _flood_decision(self, value: int) -> None:
        if not self._decide_flooded:
            self._decide_flooded = True
            self.decide_queue.append(DecidePart(value=value))

    # ------------------------------------------------------------------
    # Broadcast service (Algorithm 5)
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        # _mac_pending is the engine-maintained mirror behind the
        # ack_pending property; read it directly in this hot path.
        if self.crashed or self._mac_pending:
            return
        parts: List[object] = []
        if self.decide_queue:
            parts.append(self.decide_queue.pop(0))
        if not self.decided:
            # The leader and change queues hold at most their
            # freshest part; read them without the pop() frames.
            queue = self.leader_svc.queue
            if queue:
                parts.append(queue.pop())
            queue = self.change_svc.queue
            if queue:
                parts.append(queue.pop())
            search = self.tree_svc.pop()
            if search is not None:
                parts.append(search)
            if self.proposer_queue:
                parts.append(self.proposer_queue.pop(0))
            if self.response_queue.has_pending():
                response = self.response_queue.pop_route(self._parent_of)
                if response is not None:
                    parts.append(response)
        if parts:
            self.broadcast(WMessage(tuple(parts)))

    # ------------------------------------------------------------------
    def state_fingerprint(self) -> Any:
        return (self.leader_svc.leader, self.tree_svc.dist.get(
            self.leader_svc.leader), self.decided, self.decision)
