"""Valid-step execution model tests (Section 3.1 semantics)."""

import copy

import pytest

from repro.lowerbounds.steps import Step, StepSystem, canonical_key
from repro.macsim.process import Process
from repro.scenario import AlgorithmSpec
from repro.topology import clique, line


class CountingAlgorithm(Process):
    """Trivial algorithm: rebroadcast on every ack, decide own value at
    the first."""

    def on_start(self):
        self.broadcast(("msg", self.uid))

    def on_ack(self):
        self.decide(self.initial_value)  # a no-op after the first ack
        self.broadcast(("msg", self.uid))


class Listener(Process):
    """Idle until it hears a message, then echoes it."""

    def on_receive(self, message):
        self.heard_at = self.now()
        self.broadcast(("echo", message))


class TestNoopRules:
    def test_idle_process_sends_noops_and_holds_its_broadcast(self):
        system = StepSystem(clique(2), lambda label, value: (
            CountingAlgorithm if label == 0 else Listener)(label, value))
        config = system.initial_configuration((0, 1))
        assert config.messages == (("msg", 0), None)  # 1 sends a noop

        config = system.apply(config, Step("receive", 0, receiver=1))
        assert config.processes[1].heard_at == 0.0
        # Made during the noop, the echo waits for the noop's ack.
        assert config.messages[1] is None
        assert config.held[1] == ("echo", ("msg", 0))

        # A noop's delivery and its ack call no handler.
        before = config.processes
        config = system.apply(config, Step("receive", 1, receiver=0))
        config = system.apply(config, Step("ack", 1))
        assert config.processes == before
        assert config.messages[1] == ("echo", ("msg", 0))
        assert config.held[1] is None


class TestValidSteps:
    def setup_method(self):
        self.system = StepSystem(clique(3), CountingAlgorithm)
        self.config = self.system.initial_configuration((0, 1, 0))

    def test_initial_receives_target_smallest(self):
        steps = self.system.valid_steps(self.config)
        receives = [s for s in steps if s.kind == "receive"]
        # Each node's unique valid step targets its smallest neighbor.
        assert Step("receive", 0, receiver=1) in receives
        assert Step("receive", 1, receiver=0) in receives
        assert Step("receive", 2, receiver=0) in receives
        assert len(receives) == 3

    def test_one_valid_step_per_node(self):
        # Lemma 3.1's "s_u is well-defined".
        for u in range(3):
            step = self.system.next_valid_step_of(self.config, u)
            assert step is not None
            assert step.node == u

    def test_receive_order_enforced(self):
        # Node 2 may not receive node 0's message before node 1 does.
        config = self.config
        step = self.system.next_valid_step_of(config, 0)
        assert step.receiver == 1
        config = self.system.apply(config, step)
        step = self.system.next_valid_step_of(config, 0)
        assert step.receiver == 2

    def test_ack_only_after_all_received(self):
        config = self.config
        for receiver in (1, 2):
            assert self.system.next_valid_step_of(
                config, 0).kind == "receive"
            config = self.system.apply(
                config, Step("receive", 0, receiver=receiver))
        step = self.system.next_valid_step_of(config, 0)
        assert step.kind == "ack"

    def test_ack_resets_received_set(self):
        config = self.config
        for receiver in (1, 2):
            config = self.system.apply(
                config, Step("receive", 0, receiver=receiver))
        config = self.system.apply(config, Step("ack", 0))
        assert config.received[0] == frozenset()

    def test_crash_budget_controls_crash_steps(self):
        no_crash = StepSystem(clique(2), CountingAlgorithm,
                              crash_budget=0)
        config = no_crash.initial_configuration((0, 1))
        kinds = {s.kind for s in no_crash.valid_steps(config)}
        assert "crash" not in kinds

        with_crash = StepSystem(clique(2), CountingAlgorithm,
                                crash_budget=1)
        config = with_crash.initial_configuration((0, 1))
        crashes = [s for s in with_crash.valid_steps(config)
                   if s.kind == "crash"]
        assert len(crashes) == 2
        after = with_crash.apply(config, crashes[0])
        assert not any(s.kind == "crash"
                       for s in with_crash.valid_steps(after))

    def test_crashed_node_excluded_from_validity(self):
        system = StepSystem(clique(3), CountingAlgorithm,
                            crash_budget=1)
        config = system.initial_configuration((0, 1, 0))
        config = system.apply(config, Step("crash", 1))
        # Node 0's next receiver skips crashed node 1.
        step = system.next_valid_step_of(config, 0)
        assert step.receiver == 2
        # And its ack becomes valid after node 2 alone receives.
        config = system.apply(config, step)
        assert system.next_valid_step_of(config, 0).kind == "ack"

    def test_non_integer_labels_rejected(self):
        from repro.topology import Graph
        graph = Graph([("a", "b")])
        with pytest.raises(ValueError):
            StepSystem(graph, CountingAlgorithm)

    def test_wrong_value_count_rejected(self):
        with pytest.raises(ValueError):
            self.system.initial_configuration((0, 1))


class TestRoundRobinExecution:
    def test_all_decide(self):
        system = StepSystem(clique(3), CountingAlgorithm)
        config = system.initial_configuration((0, 1, 0))
        final = system.run_round_robin(config)
        assert final.all_alive_decided()
        assert final.decided_values() <= {0, 1}

    def test_two_phase_round_robin_terminates(self):
        graph = clique(3)
        system = StepSystem(graph, AlgorithmSpec("two-phase").build(graph))
        config = system.initial_configuration((0, 1, 1))
        final = system.run_round_robin(config)
        assert final.all_alive_decided()
        decided = final.decided_values()
        assert len(decided) == 1  # agreement

    def test_max_steps_caps_every_step(self):
        system = StepSystem(clique(3), CountingAlgorithm)
        config = system.initial_configuration((0, 1, 0))
        final = system.run_round_robin(config, max_steps=1)
        assert final.received == (frozenset({1}), frozenset(), frozenset())

    def test_line_topology(self):
        system = StepSystem(line(3), CountingAlgorithm)
        config = system.initial_configuration((1, 1, 1))
        final = system.run_round_robin(config)
        assert final.decided_values() == {1}


class TestStepDescriptions:
    def test_describe(self):
        assert "receives" in Step("receive", 0, receiver=1).describe()
        assert "acked" in Step("ack", 2).describe()
        assert "crashes" in Step("crash", 1).describe()


class TestCanonicalKey:
    """The configuration key must merge deep copies and nothing else."""

    def test_random_state_is_keyed(self):
        # random.Random's __dict__ holds only gauss_next: keying its
        # attributes would merge processes whose coins differ.
        make = AlgorithmSpec("byzantine").build(clique(2))
        process = make(0, 1)
        snapshot = copy.deepcopy(process)
        assert canonical_key(snapshot) == canonical_key(process)
        snapshot.rng.random()
        assert vars(snapshot.rng) == vars(process.rng)
        assert canonical_key(snapshot) != canonical_key(process)

    def test_bound_method_keys_by_function_and_owner(self):
        # wPAXOS stores the bound method self.now; bound methods
        # compare their __self__ by identity, so a deep copy's differs.
        make = AlgorithmSpec("wpaxos").build(clique(2))
        node = make(0, 1)
        twin = copy.deepcopy(node)
        assert twin.change_svc._clock != node.change_svc._clock
        assert canonical_key(twin) == canonical_key(node)

    def test_uncanonicalizable_attribute_raises(self):
        class Closure(CountingAlgorithm):
            def __init__(self, uid, value):
                super().__init__(uid, value)
                # A deep copy shares a function's closure, so the copy
                # would read the original's state.
                self.hook = lambda: self.decided

        with pytest.raises(TypeError, match=r"process\.hook"):
            canonical_key(Closure(0, 1))
        with pytest.raises(TypeError, match=r"process\.hook"):
            StepSystem(clique(2), Closure).initial_configuration((0, 1))
