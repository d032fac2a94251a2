"""A replicated command log on top of wPAXOS (multi-decree).

The paper's introduction motivates consensus as "a fundamental
building block for developing reliable distributed systems"; the
canonical such system is a replicated log / state machine. This module
builds one over the abstract MAC layer by running a *sequence* of
wPAXOS decrees -- one per log slot -- multiplexed over the same
support services:

* **Shared services.** Leader election and the routing trees are
  slot-independent: one election, one set of trees, reused by every
  decree (this is exactly why Multi-Paxos amortizes well).
* **Per-slot PAXOS.** Each slot has its own proposer/acceptor pair
  (:class:`~repro.core.wpaxos.proposer.Proposer`,
  :class:`~repro.core.wpaxos.acceptor.AcceptorState`) and aggregating
  response queue; all slot messages are wrapped in
  :class:`SlotMessage` envelopes.
* **Sequential commitment.** A node participates in slot ``k + 1``
  once slot ``k`` is committed locally. The leader starts slot
  ``k + 1``'s phase 1 the moment it commits slot ``k``, command or
  not, so one broadcast carries ``SlotDecide(k)`` and
  ``PREPARE(k + 1)``, and the followers' relays of the decide carry
  their promises; the slot's proposer then parks until the command
  arrives (:meth:`~repro.core.wpaxos.proposer.Proposer.offer`) and
  proposes it at once. Each slot still runs its own prepare and
  propose under its own ballot. Committed slots flood ``(slot,
  value)`` announcements so trailing nodes catch up.

The log is open-ended: :meth:`ReplicatedLogNode.add_command` hands a
replica its next slot's command at any time, and nothing *decides* in
the consensus sense; callers read ``log`` (slot -> value) off the
replicas. The service (:mod:`repro.macsim.service`) runs one log per
group and checks each slot on every replica.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from ..core.wpaxos.acceptor import AcceptorState, ResponseQueue
from ..core.wpaxos.config import WPaxosConfig
from ..core.wpaxos.messages import (ChangePart, LeaderPart, PREPARE,
                                    ProposerPart, ResponsePart,
                                    SearchPart, proposition_key)
from ..core.wpaxos.proposer import Proposer
from ..core.wpaxos.services import (ChangeService,
                                    LeaderElectionService, TreeService)
from ..macsim.process import Process


@dataclass(frozen=True)
class SlotMessage:
    """A per-slot PAXOS part (proposer flood or routed response)."""

    slot: int
    part: object

    def id_footprint(self) -> int:
        return self.part.id_footprint()


@dataclass(frozen=True)
class SlotDecide:
    """Flooded announcement that ``slot`` committed ``value``."""

    slot: int
    value: Any

    def id_footprint(self) -> int:
        return 0


@dataclass(frozen=True)
class LogMessage:
    """One physical broadcast of the replicated-log protocol."""

    parts: Tuple[object, ...]

    def id_footprint(self) -> int:
        total = 0
        for part in self.parts:
            total += part.id_footprint()
        return total


class _Slot:
    """Per-slot PAXOS state at one node. The proposer's callbacks are
    the node's methods (bound, or partial on the slot index): a deep
    copy rebinds them, ``canonical_key`` keys them, and a committed
    slot is freed without the cycle collector."""

    def __init__(self, node: "ReplicatedLogNode", index: int) -> None:
        self.acceptor = AcceptorState(node.uid)
        self.response_queue = ResponseQueue(
            aggregation=node.config.aggregation)
        self.proposer = Proposer(
            node.uid, None, node.n, node.config,
            is_leader=node._is_leader,
            flood=partial(node._handle_slot_proposer, index),
            on_chosen=partial(node._commit, index))
        self.seen_proposer_parts: set = set()
        self.flood_queue: List[ProposerPart] = []
        self.largest_from_leader = None


class ReplicatedLogNode(Process):
    """One replica of the wPAXOS-backed replicated log.

    Parameters
    ----------
    uid / n / config:
        As for :class:`~repro.core.wpaxos.node.WPaxosNode`.

    The ``k``-th command given to :meth:`add_command` is what this
    replica proposes for slot ``k`` while it leads; committed slots may
    therefore carry any participant's commands (validity over the
    union of what the replicas were given).
    """

    def __init__(self, uid: int, n: int,
                 config: Optional[WPaxosConfig] = None) -> None:
        super().__init__(uid=uid)
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        self.config = config or WPaxosConfig()
        self.commands: List[Any] = []

        self.leader_svc = LeaderElectionService(
            uid, on_leader_change=self._on_leader_change)
        self.tree_svc = TreeService(
            uid, current_leader=self._current_leader,
            on_tree_change=self._on_tree_change,
            prioritize_leader=self.config.tree_priority)
        self.change_svc = ChangeService(
            uid, clock=self.now,
            is_leader=self._is_leader,
            generate_proposal=self._generate_current)

        self.log: Dict[int, Any] = {}
        self.current_slot = 0
        self.decide_queue: List[SlotDecide] = []
        self._slots: Dict[int, _Slot] = {}
        self._last_change_state = None

        # Exact-type dispatch for the receive hot path; a part of any
        # other class is ignored.
        self._part_handlers = {
            LeaderPart: self.leader_svc.on_receive,
            ChangePart: self.change_svc.on_receive,
            SearchPart: self.tree_svc.on_receive,
            SlotDecide: self._handle_decide,
            SlotMessage: self._handle_slot_message,
        }

    # ------------------------------------------------------------------
    def add_command(self, command: Any) -> None:
        """Give this replica the command it proposes for its next slot.

        Callable before the run starts or at any time during it (the
        service calls it from a simulator wakeup): a replica that leads
        and waits on exactly this command offers it to the slot's
        running attempt (which proposes it at once if its promises are
        in), or starts an attempt if none is running.
        """
        self.commands.append(command)
        if (self._runtime is not None
                and self.current_slot == len(self.commands) - 1
                and self.leader_svc.leader == self.uid):
            proposer = self._slot(self.current_slot).proposer
            if proposer.stage is None:
                self._generate_current()
            else:
                proposer.offer(command)
            if not self._mac_pending:
                self._pump()

    def _slot(self, index: int) -> _Slot:
        slot = self._slots.get(index)
        if slot is None:
            slot = self._slots[index] = _Slot(self, index)
        return slot

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self._note_possible_change(force=True)
        self._pump()

    def on_receive(self, message: Any) -> None:
        if message.__class__ is not LogMessage:
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
    # Slot PAXOS plumbing
    # ------------------------------------------------------------------
    def _handle_decide(self, part: SlotDecide) -> None:
        self._commit(part.slot, part.value)

    def _handle_slot_message(self, message: SlotMessage) -> None:
        index = message.slot
        if index in self.log:
            return  # already committed; late traffic is harmless
        part = message.part
        if part.__class__ is ProposerPart:
            self._handle_slot_proposer(index, part)
            return
        if part.dest != self.uid:
            return  # overheard unicast; not for us
        slot = self._slot(index)
        if part.proposer == self.uid:
            counted = slot.proposer.on_response(part)
            monitor = self.config.monitor
            if counted and monitor is not None:
                monitor.note_counted(
                    (index,) + proposition_key(
                        part.proposer, part.kind, part.number),
                    counted)
        else:
            slot.response_queue.add_part(part)

    def _handle_slot_proposer(self, index: int,
                              part: ProposerPart) -> None:
        slot = self._slot(index)
        key = (part.kind, part.number)
        if key in slot.seen_proposer_parts:
            return
        slot.seen_proposer_parts.add(key)
        slot.proposer.observe_number(part.number)

        proposer_id = part.number[1]
        if proposer_id == self.leader_svc.leader:
            if (slot.largest_from_leader is None
                    or part.number > slot.largest_from_leader):
                slot.largest_from_leader = part.number
                slot.flood_queue = [
                    p for p in slot.flood_queue
                    if p.number >= slot.largest_from_leader]
            if part.number >= slot.largest_from_leader:
                slot.flood_queue.append(part)

        if part.kind == PREPARE:
            seed = slot.acceptor.on_prepare(part.number, proposer_id)
        else:
            seed = slot.acceptor.on_propose(part.number, part.value,
                                            proposer_id)
        monitor = self.config.monitor
        if monitor is not None and seed.affirmative:
            monitor.note_generated(
                (index,) + proposition_key(proposer_id, seed.kind,
                                           seed.number))
        if proposer_id == self.uid:
            response = ResponsePart(dest=self.uid, proposer=self.uid,
                                    kind=seed.kind, number=seed.number,
                                    count=1, prior=seed.prior,
                                    committed=seed.committed)
            counted = slot.proposer.on_response(response)
            if counted and monitor is not None:
                monitor.note_counted(
                    (index,) + proposition_key(
                        self.uid, seed.kind, seed.number), counted)
        else:
            slot.response_queue.add_seed(seed)

    # ------------------------------------------------------------------
    # Commitment
    # ------------------------------------------------------------------
    def _commit(self, index: int, value: Any) -> None:
        log = self.log
        if index in log:
            return
        log[index] = value
        self.decide_queue.append(SlotDecide(slot=index, value=value))
        self._slots.pop(index, None)
        while self.current_slot in log:
            self.current_slot += 1
        if self.leader_svc.leader == self.uid:
            self._generate_current()

    def _generate_current(self) -> None:
        """Start the current slot's phase 1 (the change service's
        ``generate_proposal``), with this replica's command for the
        slot if it has one; without one the attempt parks after its
        promises until :meth:`add_command` offers it."""
        index = self.current_slot
        proposer = self._slot(index).proposer
        if index < len(self.commands):
            proposer.initial_value = self.commands[index]
        proposer.generate_new_proposal()

    # ------------------------------------------------------------------
    # Service callbacks (bound methods: a deep copy rebinds them)
    # ------------------------------------------------------------------
    def _current_leader(self) -> int:
        return self.leader_svc.leader

    def _is_leader(self) -> bool:
        return self.leader_svc.leader == self.uid

    def _on_leader_change(self, old: int, new: int) -> None:
        if old == self.uid:
            for slot in self._slots.values():
                slot.proposer.abdicate()
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

    def _parent_of(self, proposer: int) -> Optional[int]:
        parent = self.tree_svc.parent.get(proposer)
        if parent == self.uid:
            return None
        return parent

    # ------------------------------------------------------------------
    # Broadcast multiplexer
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        # _mac_pending is the engine-maintained mirror behind the
        # ack_pending property; read it directly in this hot path.
        if self.crashed or self._mac_pending:
            return
        parts: List[object] = []
        if self.decide_queue:
            parts.append(self.decide_queue.pop(0))
        # The leader and change queues hold at most their freshest
        # part; read them without the pop() frames.
        queue = self.leader_svc.queue
        if queue:
            parts.append(queue.pop())
        queue = self.change_svc.queue
        if queue:
            parts.append(queue.pop())
        search = self.tree_svc.pop()
        if search is not None:
            parts.append(search)
        index = self.current_slot
        slot = self._slots.get(index)
        if slot is not None:
            if slot.flood_queue:
                parts.append(SlotMessage(index, slot.flood_queue.pop(0)))
            if slot.response_queue.has_pending():
                response = slot.response_queue.pop_route(self._parent_of)
                if response is not None:
                    parts.append(SlotMessage(index, response))
        if parts:
            self.broadcast(LogMessage(tuple(parts)))
