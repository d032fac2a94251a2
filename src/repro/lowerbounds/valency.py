"""Valency analysis: exhaustive bivalence exploration (Theorem 3.2).

Following Section 3.1's definitions: an execution prefix (here: a
reachable :class:`~repro.lowerbounds.steps.Configuration`) is

* *bivalent* if valid-step extensions can reach decisions of both 0
  and 1;
* *v-valent* if every decision-reaching extension decides ``v``.

:class:`ValencyAnalyzer` enumerates the full reachable configuration
space of a :class:`~repro.lowerbounds.steps.StepSystem` (configurations
are hashable, the space is finite for terminating algorithms) and
computes every configuration's reachable-decision set by backward
fixpoint over the transition graph -- cycles (e.g. post-decision noop
loops) are handled by iterating to fixpoint rather than recursing.

With this machinery the experiments verify, for concrete algorithms:

* a bivalent *initial* configuration exists (the FLP "Lemma 2" analog);
* from every explored bivalent configuration and every node ``u``,
  some finite valid extension keeps ``alpha . s_u`` bivalent --
  Lemma 3.1, checked exhaustively rather than assumed.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from .steps import Configuration, Step, StepSystem


@dataclass
class ExplorationResult:
    """The explored configuration space and its valency classification."""

    system: StepSystem
    initial: Configuration
    reachable: Dict[Configuration, List[Tuple[Step, Configuration]]]
    values: Dict[Configuration, FrozenSet[int]]
    truncated: bool

    # ------------------------------------------------------------------
    def valency(self, config: Configuration) -> Optional[FrozenSet[int]]:
        """Reachable decision values from ``config`` (None if unknown)."""
        return self.values.get(config)

    def is_bivalent(self, config: Configuration) -> bool:
        return self.values.get(config) == frozenset({0, 1})

    def bivalent_configurations(self) -> List[Configuration]:
        return [c for c, vals in self.values.items()
                if vals == frozenset({0, 1})]

    @property
    def config_count(self) -> int:
        return len(self.reachable)


class ValencyAnalyzer:
    """Exhaustively classify the reachable configurations of a system."""

    def __init__(self, system: StepSystem,
                 max_configs: int = 2_000_000) -> None:
        self.system = system
        self.max_configs = max_configs

    def explore(self, initial: Configuration) -> ExplorationResult:
        """BFS the reachable space, then fixpoint the decision sets."""
        system = self.system
        reachable: Dict[Configuration,
                        List[Tuple[Step, Configuration]]] = {}
        queue = deque([initial])
        truncated = False
        while queue:
            config = queue.popleft()
            if config in reachable:
                continue
            if len(reachable) >= self.max_configs:
                truncated = True
                break
            successors: List[Tuple[Step, Configuration]] = []
            for step in system.valid_steps(config):
                nxt = system.apply(config, step)
                successors.append((step, nxt))
                if nxt not in reachable:
                    queue.append(nxt)
            reachable[config] = successors

        values = self._fixpoint_values(reachable)
        return ExplorationResult(system=system, initial=initial,
                                 reachable=reachable, values=values,
                                 truncated=truncated)

    def _fixpoint_values(
            self, reachable: Dict[Configuration,
                                  List[Tuple[Step, Configuration]]]
    ) -> Dict[Configuration, FrozenSet[int]]:
        """Backward-propagate decided values until stable."""
        values: Dict[Configuration, set] = {
            c: set(c.decided_values()) for c in reachable
        }
        changed = True
        while changed:
            changed = False
            for config, successors in reachable.items():
                acc = values[config]
                before = len(acc)
                for _, nxt in successors:
                    acc |= values.get(nxt, set())
                if len(acc) != before:
                    changed = True
        return {c: frozenset(v) for c, v in values.items()}


# ---------------------------------------------------------------------------
# Lemma 3.1 verification
# ---------------------------------------------------------------------------
@dataclass
class Lemma31Witness:
    """A verified instance of Lemma 3.1.

    From ``start`` (bivalent), the valid-step extension ``extension``
    reaches a configuration whose unique next valid step of ``node``
    preserves bivalence.
    """

    node: int
    start: Configuration
    extension: List[Step] = field(default_factory=list)
    found: bool = False


def verify_lemma_31(result: ExplorationResult, start: Configuration,
                    node: int, max_depth: int = 10_000) -> Lemma31Witness:
    """Search for the extension Lemma 3.1 guarantees to exist.

    BFS from ``start`` through *non-crash* valid steps, looking for a
    configuration ``c`` such that ``c . s_node`` is bivalent, where
    ``s_node`` is ``node``'s unique valid next step.
    """
    system = result.system
    witness = Lemma31Witness(node=node, start=start)
    seen = {start}
    queue = deque([(start, [])])
    while queue:
        config, path = queue.popleft()
        if len(path) > max_depth:
            break
        step_u = system.next_valid_step_of(config, node)
        if step_u is not None:
            after = system.apply(config, step_u)
            if result.values.get(after) == frozenset({0, 1}):
                witness.extension = path
                witness.found = True
                return witness
        for step in system.valid_steps(config, include_crashes=False):
            nxt = system.apply(config, step)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, path + [step]))
    return witness


def extend_bivalent_round_robin(result: ExplorationResult,
                                rounds: int) -> List[Configuration]:
    """Build a bivalence-preserving execution (Theorem 3.2's engine).

    Starting from the initial configuration, repeatedly apply Lemma 3.1
    for each node in round-robin order, producing an execution that is
    fair (every node keeps taking steps) yet remains bivalent -- the
    execution whose existence contradicts termination. Returns the
    per-round configurations (length ``rounds * n + 1`` checkpoints at
    most); raises if bivalence could not be maintained.

    Note the dichotomy Theorem 3.2 rests on: Lemma 3.1 holds for every
    *1-crash-tolerant* algorithm, so for such algorithms this function
    would run forever -- contradicting termination. For an algorithm
    that is **not** crash-tolerant (e.g. Two-Phase Consensus), the
    lemma may fail at some node, this function raises, and the E7
    experiment instead exhibits the crash execution that breaks the
    algorithm (see :func:`find_crash_termination_violation`).
    """
    system = result.system
    config = result.initial
    if result.values.get(config) != frozenset({0, 1}):
        raise ValueError("initial configuration is not bivalent")
    checkpoints = [config]
    for _ in range(rounds):
        for node in range(system.n):
            if node in config.crashed:
                continue
            witness = verify_lemma_31(result, config, node)
            if not witness.found:
                raise AssertionError(
                    f"Lemma 3.1 failed empirically at node {node}")
            for step in witness.extension:
                config = system.apply(config, step)
            step_u = system.next_valid_step_of(config, node)
            assert step_u is not None
            config = system.apply(config, step_u)
            assert result.values.get(config) == frozenset({0, 1})
        checkpoints.append(config)
    return checkpoints


# ---------------------------------------------------------------------------
# Crash-induced non-termination (the other horn of the dichotomy)
# ---------------------------------------------------------------------------
@dataclass
class TerminationViolation:
    """A reachable configuration from which some alive node never decides.

    ``config`` has ``crashed`` non-empty; ``stuck_node`` is alive yet
    undecided in *every* configuration reachable from ``config`` --
    the concrete 1-crash termination violation Theorem 3.2 predicts
    for algorithms (like Two-Phase Consensus) that are correct without
    failures.
    """

    config: Configuration
    stuck_node: int
    reachable_size: int


def find_crash_termination_violation(
        result: ExplorationResult) -> Optional[TerminationViolation]:
    """Search the explored space for a crash-induced deadlock.

    For each reachable configuration with a crash, compute its forward
    closure inside the explored graph and report the first alive node
    that stays undecided throughout. Exhaustive over the explored
    space, so a ``None`` result means the algorithm tolerates the
    crash budget on this instance.
    """
    for config in result.reachable:
        if not config.crashed:
            continue
        alive = [i for i in range(result.system.n)
                 if i not in config.crashed]
        closure = _forward_closure(result, config)
        for node in alive:
            if not any(c.processes[node].decided for c in closure):
                return TerminationViolation(config=config,
                                            stuck_node=node,
                                            reachable_size=len(closure))
    return None


def _forward_closure(result: ExplorationResult,
                     config: Configuration) -> List[Configuration]:
    seen = {config}
    queue = deque([config])
    while queue:
        current = queue.popleft()
        for _, nxt in result.reachable.get(current, ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return list(seen)


def bivalent_initial_configurations(
        system: StepSystem,
        analyzer: Optional[ValencyAnalyzer] = None
) -> List[Tuple[Tuple[int, ...], ExplorationResult]]:
    """Classify every binary initial configuration of a system.

    Returns the (values, exploration) pairs whose initial configuration
    is bivalent -- the FLP "Lemma 2" existence argument, checked
    exhaustively over all 2^n binary input vectors.
    """
    analyzer = analyzer or ValencyAnalyzer(system)
    bivalent = []
    for values in itertools.product((0, 1), repeat=system.n):
        result = analyzer.explore(system.initial_configuration(values))
        if result.is_bivalent(result.initial):
            bivalent.append((values, result))
    return bivalent
