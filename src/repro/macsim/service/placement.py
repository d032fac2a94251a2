"""Group placement by rendezvous hashing.

Groups are pinned to hosts (engine shards, in this repo's deployment)
with **rendezvous hashing** (highest random weight): each
``(group, host)`` pair gets a deterministic sha256 score and the group
lives on its highest-scoring host. The assignment is a pure function
of the group and host ids, identical on every machine and every run;
:meth:`~repro.macsim.service.sharded.ShardedService.placement` pins
groups to shards with it.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterable, Sequence

__all__ = ["rendezvous_host", "rendezvous_place"]


def _score(group: Any, host: Any) -> int:
    digest = hashlib.sha256(
        f"{group!r}|{host!r}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def rendezvous_host(group: Any, hosts: Sequence[Any]) -> Any:
    """The group's highest-random-weight host among ``hosts``."""
    if not hosts:
        raise ValueError("no hosts to place on")
    return max(hosts, key=lambda host: (_score(group, host), repr(host)))


def rendezvous_place(groups: Iterable[Any],
                     hosts: Sequence[Any]) -> Dict[Any, Any]:
    """Deterministic group -> host assignment over the host set."""
    hosts = list(hosts)
    return {group: rendezvous_host(group, hosts) for group in groups}
