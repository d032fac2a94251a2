"""Crash faults: the scheduler's one failure power in the paper.

Section 2 of the paper gives the scheduler the power to crash a node at
any point, *including in the middle of a broadcast* -- after some
neighbors have received the in-flight message but not others. A
:class:`CrashPlan` captures exactly that power: the node, the time, and
which neighbors (of the possibly in-flight broadcast) are still allowed
to receive it. The Theorem 3.2 reproduction (E7) uses mid-broadcast
crashes to build the witness-deadlock execution that stalls Two-Phase
Consensus.

:class:`CrashFaultModel` is how plans reach the engine
(``Simulator(..., fault_model=CrashFaultModel(plans))``, or
``FaultSpec("crash", ...)`` in a scenario): it contributes its plans
through :meth:`~repro.macsim.faults.base.FaultModel.crash_plans` and
intercepts nothing, so crash runs keep the inlined fast path. A crashed
node runs its program correctly until it stops, so the model names no
node *faulty*: the trace's ``crash`` records tell the consensus and
invariant checkers who stopped, and the full audit (vectorized on
columnar traces) applies.

Plans serialize losslessly (:meth:`CrashPlan.to_dict` /
:meth:`CrashPlan.from_dict`, the ``plans=`` entries of a
``FaultSpec("crash", ...)``, so an exported scenario carries them) and
have a deterministic ``repr``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, FrozenSet, Iterable, Optional, Tuple

from .base import FaultModel


@dataclass(frozen=True)
class CrashPlan:
    """Instruction to crash one node.

    Parameters
    ----------
    node:
        Graph label of the node to crash.
    time:
        Global time of the crash. Crash events sort before deliveries
        at the same timestamp, so a crash at time ``t`` suppresses
        deliveries scheduled for ``t``.
    still_delivered:
        Neighbors that receive the node's in-flight broadcast despite
        the crash. ``None`` means all pending deliveries proceed (the
        crash only stops *future* behaviour); an empty set means the
        in-flight broadcast is lost entirely for anyone who has not yet
        received it. Any iterable is accepted and frozen.
    """

    node: Any
    time: float
    still_delivered: Optional[FrozenSet[Any]] = field(default=None)

    def __post_init__(self) -> None:
        # Coerce any iterable subset to frozenset so plans are
        # hashable and ``repr`` round-trips through eval.
        if (self.still_delivered is not None
                and not isinstance(self.still_delivered, frozenset)):
            object.__setattr__(self, "still_delivered",
                               frozenset(self.still_delivered))

    def allows_delivery(self, receiver: Any) -> bool:
        """Whether a pending delivery to ``receiver`` survives the crash."""
        if self.still_delivered is None:
            return True
        return receiver in self.still_delivered

    def __repr__(self) -> str:
        """Deterministic repr: the frozen subset prints sorted.

        The dataclass default stringifies ``frozenset`` in hash order,
        which varies across runs/interpreters -- useless for diffing
        exported scenarios. This form is stable and eval-round-trips.
        """
        if self.still_delivered is None:
            subset = "None"
        else:
            subset = ("{" + ", ".join(
                repr(v) for v in sorted(self.still_delivered,
                                        key=lambda x: (str(type(x)),
                                                       str(x), repr(x))))
                + "}") if self.still_delivered else "frozenset()"
        return (f"CrashPlan(node={self.node!r}, time={self.time!r}, "
                f"still_delivered={subset})")

    def to_dict(self) -> dict:
        """JSON-serializable form; see :func:`CrashPlan.from_dict`.

        ``still_delivered`` keeps the None / empty / subset
        distinction: ``None`` (everything pending proceeds) maps to
        JSON ``null``, a subset to a sorted list. The round-trip is
        lossless for int/str/float labels and (nested) tuples of them
        -- JSON turns tuples into lists, which ``from_dict`` freezes
        back.
        """
        subset = (None if self.still_delivered is None
                  else sorted(self.still_delivered,
                              key=lambda x: (str(type(x)), str(x),
                                             repr(x))))
        return {"node": self.node, "time": self.time,
                "still_delivered": subset}

    @classmethod
    def from_dict(cls, data: dict) -> "CrashPlan":
        """Inverse of :meth:`to_dict` (see there for label caveats)."""
        subset = data.get("still_delivered")
        return cls(node=_freeze(data["node"]), time=float(data["time"]),
                   still_delivered=(None if subset is None
                                    else frozenset(_freeze(v)
                                                   for v in subset)))


def _freeze(value: Any) -> Any:
    """Re-hashable-ify a JSON-decoded label: lists become tuples."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


class CrashFaultModel(FaultModel):
    """Fail-stop faults: each plan crashes one node once.

    Parameters
    ----------
    plans:
        The :class:`CrashPlan` instances to inject. At most one per
        node; the engine rejects duplicates when it schedules them.
    """

    name = "crash"

    def __init__(self, plans: Iterable[CrashPlan] = ()) -> None:
        self._plans: Tuple[CrashPlan, ...] = tuple(plans)

    def crash_plans(self) -> Tuple[CrashPlan, ...]:
        return self._plans

    def describe(self) -> str:
        return f"crash(f={len(self._plans)})"
