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

from ..core.wpaxos.config import WPaxosConfig
from ..core.wpaxos.messages import ProposerPart
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
        # The live slots; ``_decree`` (what the pump serves) is always
        # ``_slots.get(current_slot)``.
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
                self._generate_proposal()
            else:
                proposer.offer(command)
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
                on_chosen=partial(self._commit, index))
            if index == self.current_slot:
                self._decree = slot
        return slot

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
            self._handle_proposer(part, self._slot(index))
            return
        if part.dest != self.uid:
            return  # overheard unicast; not for us
        slot = self._slot(index)
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
        committed slot's proposer has chosen and floods no more)."""
        self._handle_proposer(part, self._slots[index])

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
        self._decree = self._slots.get(self.current_slot)
        if self.leader_svc.leader == self.uid:
            self._generate_proposal()

    def _generate_proposal(self) -> None:
        """Start the current slot's phase 1 (the change service's
        ``generate_proposal``), with this replica's command for the
        slot if it has one; without one the attempt parks after its
        promises until :meth:`add_command` offers it."""
        index = self.current_slot
        proposer = self._slot(index).proposer
        if index < len(self.commands):
            proposer.initial_value = self.commands[index]
        proposer.generate_new_proposal()

    def _on_leader_change(self, old: int, new: int) -> None:
        if old == self.uid:
            for slot in self._slots.values():
                slot.proposer.abdicate()
        self._note_possible_change()
