"""The valid-step execution model of Section 3.1.

The paper's FLP generalization (Theorem 3.2) replaces the timed model
with a discrete transition system. Nodes always send: on receiving an
ack they immediately begin their next broadcast. A *step of node u* is:

* (a) some node ``v != u`` receiving ``u``'s current message -- *valid*
  iff ``v`` has not yet received it and every non-crashed node smaller
  than ``v`` (in a fixed order) already has;
* (b) ``u`` receiving an ack -- *valid* iff every non-crashed neighbor
  has received ``u``'s current message.

Restricting to valid steps fixes a canonical well-behaved scheduler
under which each node has exactly *one* valid next step -- the property
Lemma 3.1's proof relies on ("s_u is well-defined").

Crashes are modelled as adversary moves that silence a node: a crashed
node takes no further steps, so neighbors that have not yet received
its in-flight message never will (the paper's mid-broadcast crash).

The system steps the shipped :class:`~repro.macsim.process.Process`
classes, built by the same ``(label, value) -> Process`` factory that
``AlgorithmSpec(name).build(graph)`` returns. A step deep-copies the
one process it touches and runs its handler against a stub runtime
that captures the broadcast the handler makes. Four rules bridge the
timed API and the step model:

* **Idle processes send a noop.** A process with nothing in flight
  sends a noop (``None``), because nodes always send. A noop's delivery
  and its ack call no handler.
* **A broadcast made during the noop waits for its ack.** It is held,
  and becomes the current message at the noop's ack.
* **now() reads 0.0.** The step model has no clock.
* **note_decision is a no-op.** The decision is read from
  ``process.decided`` / ``process.decision``.

A configuration is keyed by :func:`canonical_key` of every process plus
its current and held message, so that equal states reached by
different schedules merge and the :mod:`repro.lowerbounds.valency`
explorer enumerates a finite space.
"""

from __future__ import annotations

import copy
import functools
import random
import types
from collections import deque
from dataclasses import dataclass, field, replace
from typing import (Any, Callable, Dict, FrozenSet, Hashable, List,
                    Optional, Tuple)

from ..macsim.process import Process

#: Engine bookkeeping the key leaves out (``_mac_pending`` follows from
#: the current and held message).
_UNKEYED = frozenset({"_runtime", "_label", "_mac_pending"})


def canonical_key(obj: Any, path: str = "process",
                  enclosing: Tuple[int, ...] = ()) -> Hashable:
    """A hashable snapshot of ``obj`` equal across deep copies.

    Sets become frozensets, dicts frozensets of items, and lists,
    tuples and deques tuples. A hashable value with its own ``__eq__``
    (and ``None`` or a class) keys as itself; a ``random.Random`` by
    its ``getstate()``; a bound method by its function's qualname plus
    its ``__self__``'s key, or a back-reference marker when
    ``__self__`` is in ``enclosing`` (the ids of the objects being
    keyed around it); a ``functools.partial`` by its function,
    arguments and keywords. Any other instance of a Python class keys
    by its class name and sorted attribute keys, with cycle detection.
    Anything else -- a function, whose closure a deep copy would share,
    or a builtin without readable state -- raises :class:`TypeError`
    naming the attribute path from ``path``.
    """
    kind = type(obj)
    if isinstance(obj, (set, frozenset)):
        return frozenset([canonical_key(x, path + "[]", enclosing)
                          for x in obj])
    if isinstance(obj, dict):
        return frozenset([(canonical_key(k, path + "[]", enclosing),
                           canonical_key(v, path + "[]", enclosing))
                          for k, v in obj.items()])
    if isinstance(obj, (list, tuple, deque)):
        return tuple([canonical_key(x, path + "[]", enclosing)
                      for x in obj])
    if isinstance(obj, random.Random):
        return ("random.Random", obj.getstate())
    if isinstance(obj, types.MethodType):
        owner = obj.__self__
        return (obj.__func__.__qualname__,
                _back_reference(owner, enclosing)
                or canonical_key(owner, path + ".__self__", enclosing))
    if isinstance(obj, functools.partial):
        return ("functools.partial",
                canonical_key(obj.func, path + ".func", enclosing),
                canonical_key(obj.args, path + ".args", enclosing),
                canonical_key(obj.keywords, path + ".keywords", enclosing))
    if obj is None or isinstance(obj, type) or (
            kind.__eq__ is not object.__eq__ and kind.__hash__ is not None):
        try:
            hash(obj)
            return obj
        except TypeError:
            pass
    if kind.__module__ == "builtins" or not hasattr(obj, "__dict__"):
        raise TypeError(f"cannot key {path}: {kind.__name__} has no "
                        f"canonical snapshot")
    marker = _back_reference(obj, enclosing)
    if marker:
        return marker
    inner = enclosing + (id(obj),)
    return (kind.__qualname__,
            tuple([(name, canonical_key(value, path + "." + name, inner))
                   for name, value in sorted(vars(obj).items())
                   if name not in _UNKEYED]))


def _back_reference(obj: Any, enclosing: Tuple[int, ...]) -> Any:
    if id(obj) in enclosing:
        return ("<back-ref>", len(enclosing) - enclosing.index(id(obj)))
    return None


@dataclass(frozen=True)
class Step:
    """One transition: a receive, an ack, or an adversary crash."""

    kind: str  # "receive" | "ack" | "crash"
    node: int  # the node whose step this is (sender for receives)
    receiver: Optional[int] = None  # for receives

    def describe(self) -> str:
        if self.kind == "receive":
            return f"{self.receiver} receives from {self.node}"
        if self.kind == "ack":
            return f"{self.node} is acked"
        return f"{self.node} crashes"


@dataclass(frozen=True)
class Configuration:
    """A global configuration of the valid-step system.

    ``processes[i]`` is node ``i``'s process (never mutated once in a
    configuration); ``messages[i]`` its current message (``None`` is
    the noop); ``held[i]`` a broadcast waiting for the noop's ack;
    ``received[i]`` the nodes that already received ``messages[i]``;
    ``crashed`` the silenced nodes. ``keys[i]`` numbers the canonical
    key of node ``i``'s process, message and held message within its
    :class:`StepSystem`; equality compares keys, not live objects.
    """

    processes: Tuple[Process, ...] = field(compare=False)
    messages: Tuple[Any, ...] = field(compare=False)
    held: Tuple[Any, ...] = field(compare=False)
    received: Tuple[FrozenSet[int], ...]
    crashed: FrozenSet[int]
    keys: Tuple[int, ...] = field(repr=False)

    def decided_values(self) -> FrozenSet[int]:
        """Values decided by non-crashed nodes in this configuration."""
        return frozenset(p.decision for i, p in enumerate(self.processes)
                         if i not in self.crashed and p.decided)

    def all_alive_decided(self) -> bool:
        return all(p.decided for i, p in enumerate(self.processes)
                   if i not in self.crashed)


class StepSystem:
    """The transition system over :class:`Configuration`.

    Parameters
    ----------
    graph:
        Communication topology; node labels must be the integers
        ``0..n-1`` (use :func:`repro.topology.standard.clique` etc.).
    make:
        ``(label, value) -> Process`` -- e.g.
        ``AlgorithmSpec("two-phase").build(graph)``. The algorithm must
        be deterministic given its state.
    crash_budget:
        Maximum number of adversary crash moves (1 for Theorem 3.2).

    The system is also the runtime its processes are bound to: it
    captures the one broadcast a handler makes, ``now`` reads 0.0 and
    ``note_decision`` does nothing.
    """

    now = 0.0

    def __init__(self, graph, make: Callable[[int, Any], Process],
                 crash_budget: int = 0) -> None:
        self.graph = graph
        self.make = make
        self.crash_budget = crash_budget
        self.n = graph.n
        if list(graph.nodes) != list(range(self.n)):
            raise ValueError(
                "StepSystem requires integer node labels 0..n-1")
        self._sent: List[Any] = []
        self._key_ids: Dict[Hashable, int] = {}

    # ------------------------------------------------------------------
    def initial_configuration(self, values: Tuple[int, ...]
                              ) -> Configuration:
        if len(values) != self.n:
            raise ValueError("one initial value per node required")
        processes, messages = [], []
        for i in range(self.n):
            process = self.make(i, values[i])
            process._bind(self, i)
            messages.append(self._call(process, process.on_start))
            processes.append(process)
        held = (None,) * self.n
        return Configuration(
            processes=tuple(processes), messages=tuple(messages),
            held=held, received=(frozenset(),) * self.n,
            crashed=frozenset(),
            keys=tuple(map(self._key_id, processes, messages, held)))

    # ------------------------------------------------------------------
    # Step enumeration
    # ------------------------------------------------------------------
    def valid_steps(self, config: Configuration,
                    include_crashes: bool = True) -> List[Step]:
        """All valid steps (and legal crash moves) from ``config``."""
        steps: List[Step] = []
        for u in range(self.n):
            if u in config.crashed:
                continue
            step = self.next_valid_step_of(config, u)
            if step is not None:
                steps.append(step)
        if include_crashes and len(config.crashed) < self.crash_budget:
            steps.extend(Step(kind="crash", node=u)
                         for u in range(self.n)
                         if u not in config.crashed)
        return steps

    def next_valid_step_of(self, config: Configuration,
                           u: int) -> Optional[Step]:
        """The unique valid step of node ``u`` (Lemma 3.1's ``s_u``).

        Returns the lowest-ordered neighbor still missing ``u``'s
        message, or the ack once every non-crashed neighbor has it, or
        ``None`` if ``u`` is crashed.
        """
        if u in config.crashed:
            return None
        pending = [v for v in self.graph.neighbors(u)
                   if v not in config.crashed
                   and v not in config.received[u]]
        if pending:
            return Step(kind="receive", node=u, receiver=min(pending))
        return Step(kind="ack", node=u)

    # ------------------------------------------------------------------
    def apply(self, config: Configuration, step: Step) -> Configuration:
        """The configuration after taking ``step``."""
        if step.kind == "crash":
            return replace(config, crashed=config.crashed | {step.node})
        u = step.node
        if step.kind == "receive":
            received = _put(config.received, u,
                            config.received[u] | {step.receiver})
            message = config.messages[u]
            if message is None:
                return replace(config, received=received)
            v = step.receiver
            process = self._copy(config.processes[v])
            sent = self._call(process, process.on_receive, message)
            return self._with(config, v, process, config.messages[v],
                              sent if sent is not None else config.held[v],
                              received)
        if step.kind != "ack":  # pragma: no cover - defensive
            raise ValueError(f"unknown step kind {step.kind!r}")
        received = _put(config.received, u, frozenset())
        if config.messages[u] is None:
            return self._with(config, u, config.processes[u],
                              config.held[u], None, received)
        process = self._copy(config.processes[u])
        process._mac_pending = False
        return self._with(config, u, process,
                          self._call(process, process.on_ack), None,
                          received)

    def mac_broadcast(self, process: Process, message: Any) -> bool:
        if process._mac_pending:
            return False
        process._mac_pending = True
        self._sent.append(message)
        return True

    def note_decision(self, process: Process, value: Any) -> None:
        pass

    def _copy(self, process: Process) -> Process:
        return copy.deepcopy(process, {id(self): self})

    def _call(self, process: Process, handler: Callable, *args: Any) -> Any:
        """Run ``handler``; the message it broadcast, or ``None``."""
        self._sent.clear()
        handler(*args)
        return self._sent[0] if self._sent else None

    def _with(self, config: Configuration, node: int, process: Process,
              message: Any, held: Any,
              received: Tuple[FrozenSet[int], ...]) -> Configuration:
        return Configuration(
            processes=_put(config.processes, node, process),
            messages=_put(config.messages, node, message),
            held=_put(config.held, node, held), received=received,
            crashed=config.crashed,
            keys=_put(config.keys, node,
                      self._key_id(process, message, held)))

    def _key_id(self, process: Process, message: Any, held: Any) -> int:
        key = (canonical_key(process), canonical_key(message, "message"),
               canonical_key(held, "held"))
        return self._key_ids.setdefault(key, len(self._key_ids))

    # ------------------------------------------------------------------
    def run_round_robin(self, config: Configuration,
                        max_steps: int = 100_000) -> Configuration:
        """Drive the system fairly (round-robin) until all alive decide.

        This is the "fair execution" used in indistinguishability
        arguments: every non-crashed node keeps taking its unique valid
        step in round-robin order.
        """
        steps_taken = 0
        while not config.all_alive_decided():
            progressed = False
            for u in range(self.n):
                step = self.next_valid_step_of(config, u)
                if step is None:
                    continue
                config = self.apply(config, step)
                progressed = True
                steps_taken += 1
                if steps_taken >= max_steps:
                    return config
            if not progressed:
                return config
        return config


def _put(items: Tuple, index: int, value: Any) -> Tuple:
    return items[:index] + (value,) + items[index + 1:]
