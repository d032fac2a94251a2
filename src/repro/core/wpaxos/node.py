"""wPAXOS replicas: services + PAXOS roles + broadcast multiplexer.

:class:`WPaxosReplica` assembles what every replica of Section 4.2.1
runs, whatever it decides:

* the three support services (leader election, change, tree
  building) and their callbacks. A *change* notification fires
  whenever the node's ``(leader, dist-to-leader)`` pair moves (see
  ``services.py`` for why this is the right reading of the paper's
  "Omega_u or dist_u updated");
* the proposer and acceptor roles of a :class:`Decree`, with the
  proposer-message flooding layer and its queue invariant (only the
  current leader's messages, only its largest proposal number);
* the broadcast service (Algorithm 5): whenever the MAC layer is idle
  and any queue is non-empty, dequeue at most one part per queue,
  combine them into one envelope, and broadcast -- keeping every
  physical message at O(1) ids.

Two tails decide with it. :class:`WPaxosNode` is the paper's single
decree: one :class:`Decree`, its acceptor responses routed up the
leader's tree and aggregated, and the decide flood.
:class:`~repro.apps.replicated_log.ReplicatedLogNode` is the
multi-decree log: one :class:`Decree` per slot, over the same
services.

Requires unique ids and knowledge of ``n`` (for majorities), exactly
the knowledge the Section 3 lower bounds prove necessary.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ...macsim.process import Process
from ..base import ConsensusProcess
from .acceptor import AcceptorState, ResponseQueue
from .config import WPaxosConfig
from .messages import (ChangePart, DecidePart, LeaderPart, PREPARE,
                       ProposerPart, ResponsePart, SearchPart, WMessage,
                       proposition_key)
from .proposer import Proposer
from .services import ChangeService, LeaderElectionService, TreeService


class Decree:
    """One decree's PAXOS state at one node: the proposer and acceptor
    roles, the aggregating response queue, and the flood queue with
    the largest proposal number seen from the leader.

    ``index`` is the log slot, or ``None`` for the single decree. The
    proposer's callbacks are the node's bound methods (or partials of
    them on the slot index): a deep copy rebinds them, and
    ``canonical_key`` keys them.
    """

    def __init__(self, node: "WPaxosReplica", index: Optional[int],
                 initial_value: Any, flood: Callable[[ProposerPart], None],
                 on_chosen: Callable[[Any], None]) -> None:
        self.index = index
        self.acceptor = AcceptorState(node.uid)
        self.response_queue = ResponseQueue(
            aggregation=node.config.aggregation)
        self.proposer = Proposer(
            node.uid, initial_value, node.n, node.config,
            is_leader=node._is_leader, flood=flood, on_chosen=on_chosen)
        self.seen_proposer_parts: set = set()
        self.flood_queue: List[ProposerPart] = []
        self.largest_from_leader = None

    def proposition(self, proposer: int, kind: str, number: Any) -> tuple:
        """The safety monitor's key of a proposition of this decree; a
        log slot's is prefixed with the slot index."""
        key = proposition_key(proposer, kind, number)
        return key if self.index is None else (self.index,) + key


class WPaxosReplica(Process):
    """What a wPAXOS single decree and a wPAXOS log replica share.

    A tail sets the class attributes ``_envelope`` (the class of its
    broadcasts; a received message of another class is ignored) and
    ``_slot_message`` (the wrapper naming a part's slot, or ``None``),
    adds its part handlers to ``_part_handlers``, points ``_decree`` at
    the decree the pump serves, and defines ``_on_leader_change(old,
    new)`` and ``_generate_proposal()``. Extra keyword arguments go to
    the next ``__init__`` in the MRO.
    """

    _envelope: type
    _slot_message: Optional[type] = None

    def __init__(self, uid: int, n: int,
                 config: Optional[WPaxosConfig] = None,
                 **process_args: Any) -> None:
        super().__init__(uid=uid, **process_args)
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

        self.decide_queue: List[Any] = []
        self._decree: Optional[Decree] = None
        self._last_change_state = None
        # Exact-type dispatch for the receive hot path; a part of any
        # other class is ignored.
        self._part_handlers = {
            LeaderPart: self.leader_svc.on_receive,
            ChangePart: self.change_svc.on_receive,
            SearchPart: self.tree_svc.on_receive,
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
        if (message.__class__ is not self._envelope
                and not isinstance(message, self._envelope)):
            return
        handlers = self._part_handlers
        for part in message.parts:
            handler = handlers.get(part.__class__)
            if handler is not None:
                handler(part)
        # _note_possible_change without force, inlined (hot path).
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

    def _on_tree_change(self, root: int) -> None:
        self._note_possible_change()

    def _note_possible_change(self, force: bool = False) -> None:
        """Fire the change service when (leader, dist-to-leader) moves."""
        leader = self.leader_svc.leader
        state = (leader, self.tree_svc.dist.get(leader))
        if force or state != self._last_change_state:
            self._last_change_state = state
            self.change_svc.on_local_change()

    def _parent_of(self, proposer: int) -> Optional[int]:
        parent = self.tree_svc.parent.get(proposer)
        if parent == self.uid:
            return None  # would loop back to ourselves; not routable
        return parent

    # ------------------------------------------------------------------
    # Proposer message flooding (with the paper's queue invariant)
    # ------------------------------------------------------------------
    def _handle_proposer(self, part: ProposerPart,
                         decree: Optional[Decree] = None) -> None:
        """Flood and answer a proposer part of ``decree`` (default: the
        single decree's own). The single decree also holds its
        response queue to the leader's largest number; the log never
        has."""
        if decree is None:
            decree = self._decree
        number = part.number
        key = (part.kind, number)
        if key in decree.seen_proposer_parts:
            return
        decree.seen_proposer_parts.add(key)
        decree.proposer.observe_number(number)

        index = decree.index
        proposer_id = number[1]
        # Queue invariant: rebroadcast only the current leader's
        # messages, and only those for its largest proposal number.
        if proposer_id == self.leader_svc.leader:
            largest = decree.largest_from_leader
            if largest is None or number > largest:
                decree.largest_from_leader = largest = number
                decree.flood_queue = [p for p in decree.flood_queue
                                      if p.number >= largest]
                if index is None:
                    decree.response_queue.enforce_invariant(
                        proposer_id, largest)
            if number >= largest:
                decree.flood_queue.append(part)

        # Acceptor role: respond to every proposition we see.
        if part.kind == PREPARE:
            seed = decree.acceptor.on_prepare(number, proposer_id)
        else:
            seed = decree.acceptor.on_propose(number, part.value,
                                              proposer_id)
        monitor = self.config.monitor
        if monitor is not None and seed.affirmative:
            monitor.note_generated(decree.proposition(
                proposer_id, seed.kind, seed.number))
        if proposer_id == self.uid:
            # Self-response skips the queue (Section 4.2.1).
            counted = decree.proposer.on_response(ResponsePart(
                dest=self.uid, proposer=self.uid, kind=seed.kind,
                number=seed.number, count=1, prior=seed.prior,
                committed=seed.committed))
            if counted and monitor is not None:
                monitor.note_counted(decree.proposition(
                    self.uid, seed.kind, seed.number), counted)
        else:
            decree.response_queue.add_seed(seed)
            if index is None:
                decree.response_queue.enforce_invariant(
                    self.leader_svc.leader, decree.largest_from_leader)

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
            decree = self._decree
            if decree is not None:
                # A log slot's parts go out wrapped with their index.
                if decree.flood_queue:
                    part = decree.flood_queue.pop(0)
                    if decree.index is not None:
                        part = self._slot_message(decree.index, part)
                    parts.append(part)
                if decree.response_queue.has_pending():
                    part = decree.response_queue.pop_route(self._parent_of)
                    if part is not None:
                        if decree.index is not None:
                            part = self._slot_message(decree.index, part)
                        parts.append(part)
        if parts:
            self.broadcast(self._envelope(tuple(parts)))


class WPaxosNode(WPaxosReplica, ConsensusProcess):
    """One wPAXOS participant of the single decree.

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

    Once decided, the node broadcasts only the decide flood.
    """

    _envelope = WMessage

    def __init__(self, uid: int, initial_value: int, n: int,
                 config: Optional[WPaxosConfig] = None, *,
                 allow_arbitrary_values: bool = False) -> None:
        super().__init__(uid, n, config, initial_value=initial_value,
                         allow_arbitrary_values=allow_arbitrary_values)
        self._decree = Decree(self, None, initial_value,
                              flood=self._handle_proposer,
                              on_chosen=self._on_chosen)
        self._decide_flooded = False
        self._part_handlers.update({
            ProposerPart: self._handle_proposer,
            ResponsePart: self._handle_response_part,
            DecidePart: self._handle_decide_part,
        })

    @property
    def proposer(self) -> Proposer:
        return self._decree.proposer

    def _on_leader_change(self, old: int, new: int) -> None:
        decree = self._decree
        if old == self.uid:
            decree.proposer.abdicate()
        decree.largest_from_leader = None
        decree.flood_queue.clear()
        decree.response_queue.enforce_invariant(new, None)
        self._note_possible_change()

    def _generate_proposal(self) -> None:
        if not self.decided:
            self._decree.proposer.generate_new_proposal()

    def _on_chosen(self, value: int) -> None:
        """A proposal of ours was accepted by a majority: decide."""
        self.decide(value)
        self._flood_decision(value)

    # ------------------------------------------------------------------
    # Response routing
    # ------------------------------------------------------------------
    def _handle_response_part(self, part: ResponsePart) -> None:
        if part.dest != self.uid:
            return  # overheard unicast; not for us
        decree = self._decree
        if part.proposer == self.uid:
            counted = decree.proposer.on_response(part)
            monitor = self.config.monitor
            if counted and monitor is not None:
                monitor.note_counted(proposition_key(
                    part.proposer, part.kind, part.number), counted)
        else:
            decree.response_queue.add_part(part)
            decree.response_queue.enforce_invariant(
                self.leader_svc.leader, decree.largest_from_leader)

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
    def state_fingerprint(self) -> Any:
        return (self.leader_svc.leader, self.tree_svc.dist.get(
            self.leader_svc.leader), self.decided, self.decision)
