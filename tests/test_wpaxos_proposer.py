"""Unit tests for the wPAXOS proposer state machine."""

from repro.core.wpaxos.config import (RETRY_LEARNED, RETRY_PAPER,
                                      WPaxosConfig)
from repro.core.wpaxos.messages import (ACCEPTED, PREPARE, PROMISE,
                                        PROPOSE, REJECT_PREPARE,
                                        ResponsePart)
from repro.core.wpaxos.proposer import Proposer


class Harness:
    """Test double wiring a Proposer to recordable callbacks."""

    def __init__(self, uid=9, value=1, n=5, policy=RETRY_PAPER):
        self.is_leader = True
        self.flooded = []
        self.chosen = []
        self.proposer = Proposer(
            uid, value, n, WPaxosConfig(retry_policy=policy),
            is_leader=lambda: self.is_leader,
            flood=self.flooded.append,
            on_chosen=self.chosen.append)

    def respond(self, kind, count, number=None, prior=None,
                committed=None):
        number = number or self.proposer.active_number
        return self.proposer.on_response(ResponsePart(
            dest=9, proposer=9, kind=kind, number=number, count=count,
            prior=prior, committed=committed))


class TestProposalGeneration:
    def test_fresh_tag_exceeds_seen(self):
        h = Harness()
        h.proposer.observe_number((7, 3))
        h.proposer.generate_new_proposal()
        assert h.proposer.active_number == (8, 9)
        assert h.flooded[-1].kind == PREPARE

    def test_non_leader_does_not_propose(self):
        h = Harness()
        h.is_leader = False
        h.proposer.generate_new_proposal()
        assert h.proposer.active_number is None
        assert h.flooded == []

    def test_abdicate_stops_stage(self):
        h = Harness()
        h.proposer.generate_new_proposal()
        h.proposer.abdicate()
        assert h.proposer.stage is None


class TestPrepareStage:
    def test_majority_promises_trigger_propose(self):
        h = Harness(n=5)  # majority = 3
        h.proposer.generate_new_proposal()
        assert h.respond(PROMISE, 2) == 2
        assert h.proposer.stage == PREPARE
        assert h.respond(PROMISE, 1) == 1
        assert h.proposer.stage == PROPOSE
        assert h.flooded[-1].kind == PROPOSE
        assert h.flooded[-1].value == 1  # own initial value

    def test_prior_value_adopted(self):
        h = Harness(value=1, n=3)
        h.proposer.generate_new_proposal()
        h.respond(PROMISE, 1, prior=((1, 2), 0))
        h.respond(PROMISE, 1, prior=None)
        assert h.proposer.stage == PROPOSE
        assert h.flooded[-1].value == 0  # highest prior wins

    def test_highest_prior_among_promises_wins(self):
        h = Harness(value=1, n=5)
        h.proposer.generate_new_proposal()
        h.respond(PROMISE, 1, prior=((2, 1), 0))
        h.respond(PROMISE, 1, prior=((3, 4), 1))
        h.respond(PROMISE, 1, prior=((1, 2), 0))
        assert h.flooded[-1].value == 1

    def test_stale_responses_ignored(self):
        h = Harness(n=3)
        h.proposer.generate_new_proposal()
        counted = h.respond(PROMISE, 5, number=(0, 1))
        assert counted == 0
        assert h.proposer.stage == PREPARE


class TestParkedAttempt:
    """A proposer started without a value (a log slot prepared before
    its command) parks at its promise majority until offered one."""

    def test_parks_after_promise_majority_without_value(self):
        h = Harness(value=None, n=5)
        h.proposer.generate_new_proposal()
        assert h.respond(PROMISE, 3) == 3
        assert h.proposer.stage == PREPARE
        assert [part.kind for part in h.flooded] == [PREPARE]

    def test_later_value_proposes_at_once(self):
        h = Harness(value=None, n=5)
        h.proposer.generate_new_proposal()
        h.respond(PROMISE, 3)
        h.proposer.offer(7)
        assert h.proposer.stage == PROPOSE
        assert h.flooded[-1].kind == PROPOSE
        assert h.flooded[-1].number == h.proposer.active_number
        assert h.flooded[-1].value == 7
        h.respond(ACCEPTED, 3)
        assert h.chosen == [7]

    def test_value_offered_while_preparing_waits_for_majority(self):
        h = Harness(value=None, n=5)
        h.proposer.generate_new_proposal()
        h.respond(PROMISE, 2)
        h.proposer.offer(7)
        assert [part.kind for part in h.flooded] == [PREPARE]
        h.respond(PROMISE, 1)
        assert h.flooded[-1].kind == PROPOSE
        assert h.flooded[-1].value == 7

    def test_prior_proposes_without_a_value(self):
        h = Harness(value=None, n=3)
        h.proposer.generate_new_proposal()
        h.respond(PROMISE, 1, prior=((1, 2), 4))
        h.respond(PROMISE, 1)
        assert h.proposer.stage == PROPOSE
        assert h.flooded[-1].value == 4

    def test_late_prior_ends_the_park(self):
        h = Harness(value=None, n=5)
        h.proposer.generate_new_proposal()
        h.respond(PROMISE, 3)
        h.respond(PROMISE, 1, prior=((1, 2), 4))
        assert h.flooded[-1].kind == PROPOSE
        assert h.flooded[-1].value == 4

    def test_abdicate_while_parked_stops_the_attempt(self):
        h = Harness(value=None, n=5)
        h.proposer.generate_new_proposal()
        h.respond(PROMISE, 3)
        h.proposer.abdicate()
        h.proposer.offer(7)
        assert h.proposer.stage is None
        assert [part.kind for part in h.flooded] == [PREPARE]

    def test_value_offered_during_propose_keeps_the_proposal(self):
        h = Harness(value=1, n=5)
        h.proposer.generate_new_proposal()
        h.respond(PROMISE, 3)
        flooded = len(h.flooded)
        h.proposer.offer(2)
        assert len(h.flooded) == flooded
        assert h.proposer.proposal_value == 1
        h.respond(ACCEPTED, 3)
        assert h.chosen == [1]


class TestRejectionHandling:
    def test_paper_policy_retries_once_on_learned_higher(self):
        h = Harness(n=3, policy=RETRY_PAPER)
        h.proposer.generate_new_proposal()
        first = h.proposer.active_number
        h.respond(REJECT_PREPARE, 2, committed=(10, 2))
        assert h.proposer.active_number == (11, 9)
        assert h.proposer.active_number > first
        # Second rejection with a larger committed: paper policy has
        # exhausted its 2 attempts; it waits for the change service.
        h.respond(REJECT_PREPARE, 2, committed=(20, 2))
        assert h.proposer.stage is None

    def test_learned_policy_keeps_retrying(self):
        h = Harness(n=3, policy=RETRY_LEARNED)
        h.proposer.generate_new_proposal()
        for committed_tag in (10, 20, 30):
            h.respond(REJECT_PREPARE, 2,
                      committed=(committed_tag, 2))
            assert h.proposer.stage == PREPARE
            assert h.proposer.active_number[0] == committed_tag + 1

    def test_no_retry_without_learning_higher(self):
        h = Harness(n=3, policy=RETRY_LEARNED)
        h.proposer.generate_new_proposal()
        number = h.proposer.active_number
        # Rejections committed to our own number teach nothing.
        h.respond(REJECT_PREPARE, 2, committed=number)
        assert h.proposer.stage is None

    def test_no_retry_after_losing_leadership(self):
        h = Harness(n=3)
        h.proposer.generate_new_proposal()
        h.is_leader = False
        h.respond(REJECT_PREPARE, 2, committed=(10, 2))
        assert h.proposer.stage is None


class TestProposeStage:
    def test_majority_accepts_choose_value(self):
        h = Harness(n=5, value=0)
        h.proposer.generate_new_proposal()
        h.respond(PROMISE, 3)
        h.respond(ACCEPTED, 3)
        assert h.chosen == [0]
        assert h.proposer.chosen

    def test_no_double_choice(self):
        h = Harness(n=3, value=0)
        h.proposer.generate_new_proposal()
        h.respond(PROMISE, 2)
        h.respond(ACCEPTED, 2)
        h.respond(ACCEPTED, 1)
        assert h.chosen == [0]

    def test_chosen_proposer_ignores_everything(self):
        h = Harness(n=3, value=0)
        h.proposer.generate_new_proposal()
        h.respond(PROMISE, 2)
        h.respond(ACCEPTED, 2)
        h.proposer.generate_new_proposal()
        assert h.proposer.stage is None


class TestBookkeeping:
    def test_observe_number_tracks_max_tag(self):
        h = Harness()
        h.proposer.observe_number((5, 1))
        h.proposer.observe_number((3, 2))
        h.proposer.observe_number(None)
        assert h.proposer.max_tag_seen == 5

    def test_proposals_generated_counter(self):
        h = Harness(n=1)
        h.proposer.generate_new_proposal()
        h.proposer.generate_new_proposal()
        assert h.proposer.proposals_generated >= 2

    def test_active_proposition_key(self):
        h = Harness(n=3)
        assert h.proposer.active_proposition() is None
        h.proposer.generate_new_proposal()
        key = h.proposer.active_proposition()
        assert key == (9, PREPARE, h.proposer.active_number)
