"""Two-Phase Consensus (Algorithm 1 of the paper).

Solves binary consensus in *single hop* networks in ``O(F_ack)`` time
with unique ids but **no knowledge of n or the participants** --
Theorem 4.1, and the separation from the asynchronous broadcast model
of Abboud et al. where this is impossible.

Operation (following the paper):

* **Phase 1.** Broadcast ``(phase1, id, v)``; all messages received
  until the ack are collected in ``R1``. At the ack, set
  ``status = bivalent`` if ``R1`` holds a phase-1 message for the other
  value or a bivalent phase-2 message, else ``status = decided(v)``.
* **Phase 2.** Broadcast ``(phase2, id, status)``; messages received
  until the ack are collected in ``R2``. A ``decided`` node decides its
  initial value right after the ack. A ``bivalent`` node builds the
  *witness set* ``W`` (every id heard so far), waits until it holds a
  phase-2 message from every witness, then decides 0 if any witness
  reported ``decided(0)`` and 1 otherwise.

**Pseudocode erratum (reproduction finding).** Line 23 of the paper's
Algorithm 1 checks ``(phase2, *, decided(0)) in R2`` -- but a witness's
phase-2 message that arrived *during the receiver's phase 1* lives in
``R1``, and the witness-wait loop (line 20) correctly consults
``R1 union R2``. Under a scheduler that delivers ``u``'s phase-2
``decided(0)`` to ``v`` before ``v``'s phase-1 ack, the literal
pseudocode decides 1 at ``v`` while ``u`` decides 0 -- an agreement
violation. The proof of Theorem 4.1 ("it will therefore see that u has
a status of decided(0)") makes the intent clear: the decision check
must range over ``R1 union R2``. We implement the corrected check by
default and keep the literal behaviour behind
``literal_r2_check=True`` so the regression tests can demonstrate the
erratum (``TestErratum`` in ``tests/test_twophase.py`` and E1,
:mod:`repro.experiments.e1_single_hop`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, Optional, Union

from .base import ConsensusProcess

#: Status values carried by phase-2 messages.
BIVALENT = "bivalent"


@dataclass(frozen=True)
class Phase1Message:
    """``(phase 1, id_u, v)`` -- the sender's id and initial value."""

    sender: int
    value: int

    def id_footprint(self) -> int:
        return 1


@dataclass(frozen=True)
class Phase2Message:
    """``(phase 2, id_u, status)``.

    ``status`` is either the string ``"bivalent"`` or the tuple
    ``("decided", v)``.
    """

    sender: int
    status: Union[str, tuple]

    def id_footprint(self) -> int:
        return 1

    @property
    def is_bivalent(self) -> bool:
        return self.status == BIVALENT

    def decided_value(self) -> Optional[int]:
        """The decided value this message reports, if any."""
        if isinstance(self.status, tuple) and self.status[0] == "decided":
            return self.status[1]
        return None


class TwoPhaseConsensus(ConsensusProcess):
    """Algorithm 1: two-phase consensus for single hop networks.

    Parameters
    ----------
    uid:
        Unique node id (required by the algorithm).
    initial_value:
        Binary consensus input.
    literal_r2_check:
        Reproduce the paper's literal line 23 (decision check over
        ``R2`` only). Unsafe -- exists to demonstrate the pseudocode
        erratum; see the module docstring.
    early_decide:
        Decide immediately after the phase-2 ack when status is
        ``decided`` (the prose behaviour, 2 broadcasts on the fast
        path). With ``False``, decided nodes also run the witness wait;
        both variants are correct and tested.
    """

    PHASE_ONE = "phase1"
    PHASE_TWO = "phase2"
    WITNESS_WAIT = "witness"
    DONE = "done"

    def __init__(self, uid: int, initial_value: int, *,
                 literal_r2_check: bool = False,
                 early_decide: bool = True) -> None:
        super().__init__(uid=uid, initial_value=initial_value)
        if uid is None:
            raise ValueError("TwoPhaseConsensus requires a unique id")
        self.literal_r2_check = literal_r2_check
        self.early_decide = early_decide
        self.phase = self.PHASE_ONE
        self.status: Union[str, tuple, None] = None
        self.r1: set = set()
        self.r2: set = set()
        self.witnesses: FrozenSet[int] = frozenset()

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        own = Phase1Message(sender=self.uid, value=self.initial_value)
        self.r1.add(own)
        self.broadcast(own)

    def on_receive(self, message: Any) -> None:
        if self.phase == self.PHASE_ONE:
            self.r1.add(message)
        elif self.phase == self.PHASE_TWO:
            self.r2.add(message)
        elif self.phase == self.WITNESS_WAIT:
            if isinstance(message, Phase2Message):
                self.r2.add(message)
                self._try_finish_witness_wait()
        # after DONE, messages are ignored

    def on_ack(self) -> None:
        if self.phase == self.PHASE_ONE:
            self._finish_phase_one()
        elif self.phase == self.PHASE_TWO:
            self._finish_phase_two()

    # ------------------------------------------------------------------
    # Phase transitions
    # ------------------------------------------------------------------
    def _finish_phase_one(self) -> None:
        other = 1 - self.initial_value
        saw_other = any(isinstance(m, Phase1Message) and m.value == other
                        for m in self.r1)
        saw_bivalent = any(isinstance(m, Phase2Message) and m.is_bivalent
                           for m in self.r1)
        if saw_other or saw_bivalent:
            self.status = BIVALENT
        else:
            self.status = ("decided", self.initial_value)
        self.phase = self.PHASE_TWO
        own = Phase2Message(sender=self.uid, status=self.status)
        self.r2.add(own)
        self.broadcast(own)

    def _finish_phase_two(self) -> None:
        if self.early_decide and self.status != BIVALENT:
            self.phase = self.DONE
            self.decide(self.status[1])
            return
        self.witnesses = frozenset(
            m.sender for m in self.r1 | self.r2
            if isinstance(m, (Phase1Message, Phase2Message)))
        self.phase = self.WITNESS_WAIT
        self._try_finish_witness_wait()

    def _try_finish_witness_wait(self) -> None:
        heard = self.r1 | self.r2
        phase2_senders = {m.sender for m in heard
                          if isinstance(m, Phase2Message)}
        if not self.witnesses <= phase2_senders:
            return
        pool = self.r2 if self.literal_r2_check else heard
        decided_zero = any(isinstance(m, Phase2Message)
                           and m.decided_value() == 0
                           for m in pool)
        self.phase = self.DONE
        self.decide(0 if decided_zero else 1)

    # ------------------------------------------------------------------
    def state_fingerprint(self) -> Any:
        return (self.phase, self.status, frozenset(self.r1),
                frozenset(self.r2), self.witnesses, self.decided,
                self.decision)
