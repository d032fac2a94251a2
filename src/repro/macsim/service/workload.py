"""Closed-loop client workload with heavy-tailed structure.

Models a large population of clients (the generator keeps one integer
per client, its memoized group, so millions of clients are cheap):
each client repeatedly submits a proposal to one consensus group, waits
for the commit, thinks for a while, and submits again. Two heavy tails
shape the load, matching what replicated-log deployments see:

* **Zipf group popularity** -- a client picks its group once, for its
  whole session, from a Zipf(s) distribution over group ranks, so a
  few hot groups absorb most of the traffic.
* **Lognormal think time** -- the pause between a commit and the
  client's next request is lognormal, so a minority of slow clients
  stretches the arrival tail.

Determinism and shard independence
----------------------------------

Every draw is produced by a dedicated ``random.Random`` seeded from
``(seed, client, draw-index)`` -- no shared RNG stream exists. A
client's behaviour is therefore a pure function of the workload seed
and its id, which is what makes sharding exact: a shard serving a
subset of groups replays precisely the clients whose (deterministic)
group choice lands in that subset, and the union over shards is
byte-identical to an unsharded run.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence

__all__ = ["WorkloadGenerator"]

_GROUP_SALT = 0x9E3779B97F4A7C15
_CLIENT_SALT = 0xC2B2AE3D27D4EB4F
_DRAW_SALT = 0x165667B19E3779F9
_MASK = (1 << 63) - 1


def _draw_seed(seed: int, client: int, draw: int) -> int:
    return ((seed + 1) * _GROUP_SALT
            ^ (client + 1) * _CLIENT_SALT
            ^ (draw + 1) * _DRAW_SALT) & _MASK


class WorkloadGenerator:
    """Deterministic closed-loop arrival process.

    Parameters
    ----------
    groups:
        Number of consensus groups (Zipf ranks ``1..groups``).
    clients:
        Client population size.
    seed:
        Workload seed; every client stream derives from it.
    zipf_s:
        Zipf skew exponent for group popularity (1.0 = classic Zipf;
        higher = hotter head).
    think_mu, think_sigma:
        Parameters of the lognormal think-time distribution, in
        virtual time units (the same units as the engine's ``F_ack``).
        The median think time is ``exp(think_mu)``.
    requests_per_client:
        Session length: each client submits exactly this many
        proposals, then leaves. Keeping the budget *per client* (not
        global) is what keeps sharded runs exactly equal to unsharded
        runs -- admission never depends on other groups' timing.
    """

    def __init__(self, *, groups: int, clients: int, seed: int = 0,
                 zipf_s: float = 1.1, think_mu: float = 3.0,
                 think_sigma: float = 1.0,
                 requests_per_client: int = 2) -> None:
        if groups < 1:
            raise ValueError("groups must be >= 1")
        if clients < 0:
            raise ValueError("clients must be >= 0")
        if requests_per_client < 1:
            raise ValueError("requests_per_client must be >= 1")
        self.groups = groups
        self.clients = clients
        self.seed = seed
        self.zipf_s = zipf_s
        self.think_mu = think_mu
        self.think_sigma = think_sigma
        self.requests_per_client = requests_per_client
        # Zipf CDF over ranks 1..groups, normalized.
        weights = [1.0 / (rank ** zipf_s) for rank in range(1, groups + 1)]
        total = sum(weights)
        cdf: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w
            cdf.append(acc / total)
        cdf[-1] = 1.0
        self._cdf = cdf
        #: client -> pinned group, filled on first ask.
        self._group_of: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Per-client streams
    # ------------------------------------------------------------------
    def client_group(self, client: int) -> int:
        """The group this client is pinned to for its whole session
        (drawn once, then memoized: the serve loop asks per arrival)."""
        group = self._group_of.get(client)
        if group is None:
            u = random.Random(_draw_seed(self.seed, client, 0)).random()
            group = self._group_of[client] = bisect_left(self._cdf, u)
        return group

    def think_time(self, client: int, request: int) -> float:
        """Think time preceding the client's ``request``-th proposal
        (``request`` counts from 0; draw 0 is the session's initial
        stagger, so arrivals don't all land at time zero)."""
        rng = random.Random(_draw_seed(self.seed, client, request + 1))
        return rng.lognormvariate(self.think_mu, self.think_sigma)

    def clients_for_groups(
            self, groups: Sequence[int]) -> List[int]:
        """Client ids whose pinned group is in ``groups`` -- the exact
        client subset a shard serving those groups must replay."""
        wanted = set(groups)
        return [c for c in range(self.clients)
                if self.client_group(c) in wanted]

    def total_requests(self,
                       groups: Optional[Sequence[int]] = None) -> int:
        """Requests the workload will submit (optionally restricted to
        clients pinned to ``groups``)."""
        if groups is None:
            return self.clients * self.requests_per_client
        return len(self.clients_for_groups(groups)) \
            * self.requests_per_client

    def describe(self) -> str:
        return (f"clients={self.clients} groups={self.groups} "
                f"zipf_s={self.zipf_s} "
                f"think~lognormal(mu={self.think_mu}, "
                f"sigma={self.think_sigma}) "
                f"requests/client={self.requests_per_client}")
