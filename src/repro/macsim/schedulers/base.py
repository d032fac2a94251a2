"""Scheduler interface.

A *message scheduler* is the source of all non-determinism in the
abstract MAC layer model (Section 2 of the paper). When a node starts a
broadcast, the engine asks the scheduler for a plan: one delivery time
per neighbor plus an ack time. A plan comes in two forms with one
contract (``ack_time``, a ``deliveries`` mapping, ``validate``):

* :class:`DeliveryPlan` -- an explicit ``{neighbor: time}`` mapping,
  for schedulers that time each delivery on its own (random delays,
  jitter, staggering, scripts, partitions);
* :class:`UniformPlan` -- "every neighbor at one instant", the unit
  the paper's synchronous scheduler works in (Section 3.2: deliver
  every in-flight message to all recipients, then ack). It carries the
  receiver tuple and two floats; the engine schedules it as the single
  batch it is without rebuilding it from a mapping.

``validate`` checks a plan against the model contract:

* the plan covers exactly the sender's neighbors;
* every delivery time is >= the broadcast start time;
* the ack time is >= every delivery time (the ack signals that the
  broadcast *completed*);
* the ack arrives within ``f_ack`` of the start -- ``F_ack`` is the
  scheduler's (node-invisible) bound on broadcast completion.

The time bounds are written so that a time which is not a number fails
them: NaN compares false with everything, so a guard spelled
``t < start`` would let it through and the event heap would then be
ordered by comparisons that are all false. Both forms raise
:class:`~repro.macsim.errors.ModelViolationError` with the same
message for the same violation.

Schedulers may be adversarial; the constructions behind the paper's
lower bounds are all implemented as schedulers in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Mapping, NamedTuple, Union

from ..errors import ModelViolationError


def _check_cover(planned: set, neighbors: tuple) -> None:
    expected = set(neighbors)
    if planned != expected:
        raise ModelViolationError(
            f"plan covers {sorted(map(str, planned))} but neighbors "
            f"are {sorted(map(str, expected))}")


def _bad_delivery(receiver: Any, t: float, start_time: float,
                  ack_time: float) -> ModelViolationError:
    """The error for a delivery outside ``[start_time, ack_time]``."""
    if t < start_time:
        return ModelViolationError(
            f"delivery to {receiver!r} at {t} precedes broadcast "
            f"start {start_time}")
    if t > ack_time:
        return ModelViolationError(
            f"delivery to {receiver!r} at {t} is later than the "
            f"ack at {ack_time}")
    return ModelViolationError(
        f"delivery to {receiver!r} at {t} is not inside the broadcast "
        f"window [{start_time}, {ack_time}]")


def _check_ack(ack_time: float, start_time: float, f_ack: float) -> None:
    if not 0 <= ack_time - start_time <= f_ack + 1e-9:
        if ack_time < start_time:
            raise ModelViolationError("ack precedes broadcast start")
        raise ModelViolationError(
            f"ack delay {ack_time - start_time} exceeds F_ack={f_ack}")


@dataclass(frozen=True)
class DeliveryPlan:
    """The scheduler's decision for one broadcast, neighbor by neighbor.

    ``deliveries`` maps each receiving neighbor to its delivery time;
    ``ack_time`` is when the sender's ack fires.
    """

    deliveries: Mapping[Any, float]
    ack_time: float

    def validate(self, *, start_time: float, neighbors: tuple,
                 f_ack: float) -> None:
        """Raise :class:`ModelViolationError` if the plan breaks the model."""
        _check_cover(set(self.deliveries), neighbors)
        ack_time = self.ack_time
        for receiver, t in self.deliveries.items():
            if not start_time <= t <= ack_time:
                raise _bad_delivery(receiver, t, start_time, ack_time)
        _check_ack(ack_time, start_time, f_ack)


class UniformPlan(NamedTuple):
    """Every neighbor receives at ``when``; the ack fires at ``ack_time``.

    The compact form of a :class:`DeliveryPlan` whose delivery times are
    all equal. ``receivers`` is the sender's neighbor tuple, in the
    graph's order -- schedulers pass the ``neighbors`` argument of
    :meth:`Scheduler.plan` straight through, which is what makes
    :meth:`validate` O(1). Immutable, like the mapping form.
    """

    receivers: tuple
    when: float
    ack_time: float

    @property
    def deliveries(self) -> Mapping[Any, float]:
        """The plan as a read-only ``{receiver: when}`` mapping, built
        on request (wrapping schedulers copy it; the engine does not
        ask)."""
        return MappingProxyType(dict.fromkeys(self.receivers, self.when))

    def validate(self, *, start_time: float, neighbors: tuple,
                 f_ack: float) -> None:
        """Raise :class:`ModelViolationError` if the plan breaks the model.

        Same checks and messages as :meth:`DeliveryPlan.validate`. When
        ``receivers`` *is* the engine's neighbor tuple the cover check
        is that identity test; any other tuple is compared as a set.
        """
        receivers = self.receivers
        if receivers is not neighbors:
            planned = set(receivers)
            _check_cover(planned, neighbors)
            if len(planned) != len(receivers):
                raise ModelViolationError(
                    f"plan lists a receiver twice: "
                    f"{sorted(map(str, receivers))}")
        when, ack_time = self.when, self.ack_time
        if receivers and not start_time <= when <= ack_time:
            raise _bad_delivery(receivers[0], when, start_time, ack_time)
        _check_ack(ack_time, start_time, f_ack)


#: What :meth:`Scheduler.plan` returns.
Plan = Union[DeliveryPlan, UniformPlan]


class Scheduler:
    """Base class for message schedulers.

    Subclasses implement :meth:`plan` and expose ``f_ack``, the bound on
    broadcast completion associated with this scheduler. ``f_ack`` is a
    property of the scheduler, *not* of the algorithm: nodes never see it
    (the paper's algorithms receive no timing information).

    Schedulers may additionally control *unreliable* deliveries via
    :meth:`plan_unreliable` when the simulation runs the dual-graph
    variant of the model (some abstract MAC layer definitions include a
    second topology of links that sometimes deliver and sometimes do
    not; the paper leaves algorithms for it as an open question). The
    default drops every unreliable delivery -- the adversary's
    prerogative.
    """

    #: Maximum broadcast-to-ack delay this scheduler will produce.
    f_ack: float = 1.0

    #: Trusted schedulers produce plans that are correct by
    #: construction; the engine skips the plan's ``validate``
    #: for them (overridable via ``Simulator(validate_plans=...)``).
    #: Adversarial/scripted schedulers stay untrusted: validation is
    #: exactly the guard that keeps hand-built plans honest.
    trusted: bool = False

    def plan(self, *, sender: Any, message: Any, start_time: float,
             neighbors: tuple) -> Plan:
        """Return the delivery plan for a broadcast started now.

        Parameters
        ----------
        sender:
            Graph label of the broadcasting node.
        message:
            The payload (schedulers may not read algorithm payloads;
            it is passed only so content-oblivious policies can log it).
        start_time:
            Global time at which the broadcast was submitted.
        neighbors:
            The sender's neighbors at the moment of broadcast, in the
            graph's deterministic order.
        """
        raise NotImplementedError

    def on_topology_change(self) -> None:
        """Invalidate topology-derived caches.

        Called by the engine after every applied topology epoch of a
        dynamic-topology run (:mod:`repro.macsim.dynamics`). The
        built-in schedulers keep none and inherit this no-op;
        schedulers that memoize per-neighbor structures must drop them
        here.
        """

    def plan_unreliable(self, *, sender: Any, message: Any,
                        start_time: float, ack_time: float,
                        neighbors: tuple) -> Mapping[Any, float]:
        """Delivery times over *unreliable* links (subset of neighbors).

        Called only in dual-graph simulations, after :meth:`plan` fixed
        the ack. Returned deliveries must land in
        ``[start_time, ack_time]``; omitted neighbors simply do not
        receive this broadcast -- no retransmission, no ack dependency.
        """
        return {}

    def describe(self) -> str:
        """Human-readable one-line description for experiment reports."""
        return f"{type(self).__name__}(f_ack={self.f_ack})"
