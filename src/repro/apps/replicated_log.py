"""A replicated command log on top of wPAXOS (multi-decree).

The paper's introduction motivates consensus as "a fundamental
building block for developing reliable distributed systems"; the
canonical such system is a replicated log / state machine. This module
builds one over the abstract MAC layer by running a *sequence* of
wPAXOS decrees -- one per log slot -- multiplexed over the same
support services:

* **Shared services.** :class:`ReplicatedLogNode` is a
  :class:`~repro.core.wpaxos.node.WPaxosReplica`, the base class of
  single-decree wPAXOS too: one leader election, one set of trees,
  one part dispatch and one broadcast multiplexer, reused by every
  decree (this is exactly why Multi-Paxos amortizes well).
* **Per-slot PAXOS.** Each slot is its own
  :class:`~repro.core.wpaxos.node.Decree` (proposer, acceptor and
  aggregating response queue); all slot messages are wrapped in
  :class:`SlotMessage` envelopes.
* **Pipelined commitment.** A replica commits slots in any order
  but serves two: the first it has not committed and the one after
  it. The leader proposes slot ``k`` and starts slot ``k + 1``'s
  phase 1 in the same broadcast, so the followers' answers carry
  ``accepted(k)`` and ``promise(k + 1)`` together. When its proposal
  for ``k`` wins a majority the leader commits ``k`` and *holds* the
  decide: it rides the next broadcast that carries anything else --
  in steady state ``[SlotDecide(k), PROPOSE(k + 1), PREPARE(k + 2)]``,
  sent the moment slot ``k + 1``'s command arrives, since its
  proposer parked at its promises
  (:meth:`~repro.core.wpaxos.proposer.Proposer.offer`). A held decide
  only delays learning; it also goes out when the leader steps down,
  and :meth:`ReplicatedLogNode.flush` sends it at once. Each slot
  still runs its own prepare and propose under its own ballot, with
  no state shared across slots. Committed slots flood ``(slot,
  value)`` announcements so trailing nodes catch up.

The log is open-ended: :meth:`ReplicatedLogNode.add_command` hands a
replica its next slot's command at any time, and nothing *decides* in
the consensus sense; callers read ``log`` (slot -> value) off the
replicas. The service (:mod:`repro.macsim.service`) runs one log per
group: a slot ends at its first commit (``commit_hook``), each
replica's new entries are checked then, and every log is flushed and
compared whole at the end of the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.wpaxos.config import WPaxosConfig
from ..core.wpaxos.messages import PROPOSE, ProposerPart
from ..core.wpaxos.node import Decree, WPaxosReplica


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
            if part.__class__ is SlotMessage:
                part = part.part  # the envelope adds no id
            total += part.id_footprint()
        return total


class ReplicatedLogNode(WPaxosReplica):
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

    _envelope = LogMessage
    _slot_message = SlotMessage

    def __init__(self, uid: int, n: int,
                 config: Optional[WPaxosConfig] = None) -> None:
        super().__init__(uid, n, config)
        self.commands: List[Any] = []
        self.log: Dict[int, Any] = {}
        self.current_slot = 0
        #: Called with a slot's index when this replica commits it (the
        #: service's stop check sets it); ``None`` calls nothing.
        self.commit_hook: Optional[Callable[[int], None]] = None
        # The live slots; the pump serves ``_decree`` and
        # ``_next_decree``, always ``_slots.get(current_slot)`` and
        # ``_slots.get(current_slot + 1)``.
        self._slots: Dict[int, Decree] = {}
        self._part_handlers.update({
            SlotDecide: self._handle_decide,
            SlotMessage: self._handle_slot_message,
        })

    # ------------------------------------------------------------------
    def add_command(self, command: Any) -> None:
        """Give this replica the command it proposes for its next slot.

        Callable before the run starts or at any time during it (the
        service calls it from a simulator wakeup): a replica that leads
        offers it to the slot's running attempt (which proposes it at
        once if its promises are in), or starts an attempt if none is
        running.
        """
        self.commands.append(command)
        if (self._runtime is not None
                and self.leader_svc.leader == self.uid):
            slot = self._slots.get(len(self.commands) - 1)
            if slot is not None:
                slot.proposer.offer(command)
            self._lead()
            if not self._mac_pending:
                self._pump()

    def flush(self) -> None:
        """Send a held decide now, not with the next proposal.

        The leader holds the decide of a slot its own proposal won
        until the next slot's proposal goes out; a caller that will
        hand out no further command flushes, so that every replica
        learns the last slot.
        """
        held = self._held_decide
        if held is not None:
            self._held_decide = None
            self.decide_queue.append(held)
            if not self._mac_pending:
                self._pump()

    def _slot(self, index: int) -> Decree:
        slot = self._slots.get(index)
        if slot is None:
            # Callbacks are partials on the index, not on the slot, so
            # a committed slot is freed without the cycle collector.
            slot = self._slots[index] = Decree(
                self, index, None,
                flood=partial(self._handle_slot_proposer, index),
                on_chosen=partial(self._chosen, index))
            if index == self.current_slot:
                self._decree = slot
            elif index == self.current_slot + 1:
                self._next_decree = slot
        return slot

    # ------------------------------------------------------------------
    # Slot PAXOS plumbing
    # ------------------------------------------------------------------
    def _handle_decide(self, part: SlotDecide) -> None:
        if part.slot not in self.log:
            self._commit(part.slot, part.value)
            self.decide_queue.append(part)  # relay it

    def _handle_slot_message(self, message: SlotMessage) -> None:
        index = message.slot
        if index in self.log:
            return  # already committed; late traffic is harmless
        part = message.part
        if part.__class__ is ProposerPart:
            slot = self._slots.get(index) or self._slot(index)
            # _handle_proposer's own first test, made before the call:
            # on a clique most proposer parts a replica receives are
            # echoes of a flood it already handled (a call for each
            # costs the serve shape ~3.5% more calls).
            if (part.kind, part.number) not in slot.seen_proposer_parts:
                self._handle_proposer(part, slot)
            return
        if part.dest != self.uid:
            return  # overheard unicast; not for us
        slot = self._slots.get(index) or self._slot(index)
        if part.proposer == self.uid:
            counted = slot.proposer.on_response(part)
            monitor = self.config.monitor
            if counted and monitor is not None:
                monitor.note_counted(slot.proposition(
                    part.proposer, part.kind, part.number), counted)
        else:
            slot.response_queue.add_part(part)

    def _handle_slot_proposer(self, index: int,
                              part: ProposerPart) -> None:
        """A slot proposer's own flood (its live slot exists: a
        committed slot's proposer has chosen and floods no more). The
        current slot's proposal starts the next slot's phase 1."""
        self._handle_proposer(part, self._slots[index])
        if part.kind == PROPOSE and index == self.current_slot:
            self._lead()

    # ------------------------------------------------------------------
    # Commitment
    # ------------------------------------------------------------------
    def _chosen(self, index: int, value: Any) -> None:
        """This replica's proposal for ``index`` won a majority: commit
        it, and hold the decide for the next broadcast that carries
        anything else (the next slot's proposal, in steady state)."""
        decide = SlotDecide(slot=index, value=value)
        if self.leader_svc.leader == self.uid:
            # Only a leader holds, and only its own latest decide.
            held = self._held_decide
            if held is not None:
                self.decide_queue.append(held)
            self._held_decide = decide
        else:
            self.decide_queue.append(decide)
        self._commit(index, value)

    def _commit(self, index: int, value: Any) -> None:
        log = self.log
        log[index] = value
        slots = self._slots
        slots.pop(index, None)
        current = self.current_slot
        while current in log:
            current += 1
        self.current_slot = current
        self._decree = slots.get(current)
        self._next_decree = slots.get(current + 1)
        hook = self.commit_hook
        if hook is not None:
            hook(index)
        if self.leader_svc.leader == self.uid:
            self._lead()

    # ------------------------------------------------------------------
    # The leader's slot pipeline
    # ------------------------------------------------------------------
    def _lead(self) -> None:
        """Keep the pipeline full: the current slot runs an attempt,
        and once it proposes, the slot after it runs its phase 1 (so
        its promises ride the answers to the proposal)."""
        index = self.current_slot
        stage = self._slot(index).proposer.stage
        if stage is None:
            self._start(index)
        elif stage == PROPOSE and index + 1 not in self.log:
            if self._slot(index + 1).proposer.stage is None:
                self._start(index + 1)

    def _start(self, index: int) -> None:
        """Start slot ``index``'s phase 1 under a fresh number, with
        this replica's command for the slot if it has one; without one
        the attempt parks after its promises until :meth:`add_command`
        offers it."""
        proposer = self._slot(index).proposer
        if index < len(self.commands):
            proposer.initial_value = self.commands[index]
        proposer.generate_new_proposal()

    def _generate_proposal(self) -> None:
        """The change service's ``generate_proposal``: restart the
        current slot's attempt, and the next slot's if it runs one."""
        index = self.current_slot
        nxt = self._slots.get(index + 1)
        restart_next = nxt is not None and nxt.proposer.stage is not None
        self._start(index)
        if restart_next and index + 1 not in self.log:
            self._start(index + 1)

    def _on_leader_change(self, old: int, new: int) -> None:
        if old == self.uid:
            for slot in self._slots.values():
                slot.proposer.abdicate()
            held = self._held_decide
            if held is not None:
                # No longer leading: the decide goes out now.
                self._held_decide = None
                self.decide_queue.append(held)
        self._note_possible_change()
