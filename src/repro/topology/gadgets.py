"""The paper's lower-bound network constructions (Figures 1 and 2).

Three constructions are implemented:

* :func:`gadget` -- the building block ``H(d, k)`` of Figure 1.
* :func:`network_a` / :func:`network_b` -- the Figure 1 pair used by the
  anonymity lower bound (Theorem 3.3). ``A`` contains two copies of the
  gadget joined through a bridge node ``q`` (plus a size-padding clique
  ``C``); ``B`` is a *3-fold covering graph* of the gadget, so that a
  node cannot tell whether it lives in one copy of the gadget or in
  three interleaved ones -- the paper's property (*) is exactly the
  covering-map condition, and :func:`check_covering` verifies it
  mechanically.
* :func:`kd_network` -- the Figure 2 network ``K_D`` for the
  knowledge-of-``n`` lower bound (Theorem 3.9), implemented verbatim
  from the paper's description.

**Documented substitution.** The arXiv source of Figure 1 is
ASCII-mangled, so the exact gadget wiring is not recoverable; this
docstring records the substitution. Our gadget puts three triangles
``c - a+j - a1`` at the top (a covering of a tree is a forest, so the
cycles are *necessary* for ``B`` to be connected), a chain
``a1 - a2 - ... - ad`` below, and ``k`` leaves on ``a(d-1)``. ``B`` is
the Z3 voltage lift with voltages 0/1/2 on the three ``a+j - a1`` edges
plus one pendant ``w`` that stretches its diameter to exactly match
``A``'s. Every property the proof of Theorem 3.3 consumes is verified
by :func:`verify_figure1` (and exercised in the test-suite):
equal sizes, equal diameters, the covering property, and silenceable
attachment points (``q`` in ``A``, ``w`` in ``B``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .graphs import Graph

#: Voltage (in Z3) of each top-triangle edge ``a+j -- a1`` in the lift.
_LIFT_VOLTAGES = {"ap2": 0, "ap3": 1, "ap4": 2}


# ---------------------------------------------------------------------------
# The gadget H(d, k)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class GadgetSpec:
    """The gadget ``H(d, k)`` and its node inventory."""

    d: int
    k: int
    graph: Graph
    names: Tuple[str, ...]
    deep_node: str  # the chain endpoint "a{d}", farthest from c


def gadget_names(d: int, k: int) -> List[str]:
    """Node names of ``H(d, k)`` (size ``d + k + 4``)."""
    names = ["c", "a1", "ap2", "ap3", "ap4"]
    names += [f"a{i}" for i in range(2, d + 1)]
    names += [f"s{j}" for j in range(1, k + 1)]
    return names


def gadget_edges(d: int, k: int) -> List[Tuple[str, str]]:
    """Edge list of ``H(d, k)`` over the names of :func:`gadget_names`."""
    if d < 2:
        raise ValueError("gadget needs d >= 2 (i.e. diameter D >= 6)")
    if k < 0:
        raise ValueError("gadget needs k >= 0")
    edges: List[Tuple[str, str]] = [("c", "a1")]
    for j in ("ap2", "ap3", "ap4"):
        edges.append(("c", j))
        edges.append((j, "a1"))
    chain = ["a1"] + [f"a{i}" for i in range(2, d + 1)]
    edges.extend((chain[i], chain[i + 1]) for i in range(len(chain) - 1))
    anchor = chain[-2]  # a(d-1); "a1" when d == 2
    edges.extend((anchor, f"s{j}") for j in range(1, k + 1))
    return edges


def gadget(d: int, k: int) -> GadgetSpec:
    """Build ``H(d, k)``: size ``d + k + 4``, eccentricity of ``c`` = d."""
    names = gadget_names(d, k)
    graph = Graph(gadget_edges(d, k), nodes=names)
    return GadgetSpec(d=d, k=k, graph=graph, names=tuple(names),
                      deep_node=f"a{d}")


# ---------------------------------------------------------------------------
# Network A: two gadgets + bridge q + padding clique C
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class NetworkA:
    """Figure 1's network A.

    ``copies[b]`` lists the node labels of gadget copy ``b`` (``b`` is
    the initial consensus value its nodes receive in the lower-bound
    execution); ``bridge`` is the q node whose outgoing messages the
    adversary withholds; ``clique`` is the padding clique C.
    """

    d: int
    k: int
    graph: Graph
    copies: Tuple[Tuple[str, ...], Tuple[str, ...]]
    bridge: str
    clique: Tuple[str, ...]

    def copy_of(self, node: str) -> int:
        """Which gadget copy a node belongs to (-1 for bridge/clique)."""
        for b in (0, 1):
            if node in self.copies[b]:
                return b
        return -1


def network_a(d: int, k: int) -> NetworkA:
    """Two disjoint gadgets, bridge ``q`` on their ``c`` nodes, clique C.

    ``|C| = |H|`` so that ``|A| = 3 |H| + 1 = |B|``; the diameter is
    ``2 d + 2``, realized between the two chain endpoints.
    """
    spec = gadget(d, k)
    size_h = spec.graph.n
    edges: List[Tuple[str, str]] = []
    copies: List[Tuple[str, ...]] = []
    for b in (0, 1):
        prefix = f"g{b}."
        edges.extend((prefix + u, prefix + v)
                     for u, v in gadget_edges(d, k))
        copies.append(tuple(prefix + name for name in spec.names))
    edges.append(("q", "g0.c"))
    edges.append(("q", "g1.c"))
    clique = tuple(f"C{i}" for i in range(size_h))
    edges.extend(("q", c) for c in clique)
    edges.extend((clique[i], clique[j])
                 for i in range(len(clique))
                 for j in range(i + 1, len(clique)))
    graph = Graph(edges)
    return NetworkA(d=d, k=k, graph=graph,
                    copies=(copies[0], copies[1]),
                    bridge="q", clique=clique)


# ---------------------------------------------------------------------------
# Network B: Z3 voltage lift of the gadget (+ pendant)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class NetworkB:
    """Figure 1's network B: a 3-fold cover of the gadget + pendant w.

    ``covers[name]`` lists the three lift copies of gadget node
    ``name`` -- the paper's set ``S_u``. ``pendant`` is the node ``w``
    that pads the diameter; the adversary silences it exactly like
    ``q`` in network A.
    """

    d: int
    k: int
    graph: Graph
    covers: Dict[str, Tuple[str, str, str]]
    pendant: str

    def copy_index(self, node: str) -> int:
        """Lift-copy index of a node (-1 for the pendant)."""
        if node == self.pendant:
            return -1
        return int(node[1])

    def base_name(self, node: str) -> str:
        """Gadget node a lift node covers (pendant maps to nothing)."""
        if node == self.pendant:
            raise ValueError("the pendant covers no gadget node")
        return node[3:]


def network_b(d: int, k: int) -> NetworkB:
    """The Z3 voltage lift of ``H(d, k)`` plus the pendant ``w``.

    Lift rule: gadget edge ``(u, v)`` with voltage ``s`` becomes the
    three edges ``ti.u -- t((i+s) mod 3).v``. Only the three
    ``a+j -- a1`` triangle edges carry non-zero voltages, which makes
    the lift connected (the triangle cycles acquire non-trivial total
    voltage) while keeping each chain within its own copy.
    """
    spec = gadget(d, k)
    edges: List[Tuple[str, str]] = []
    for u, v in gadget_edges(d, k):
        voltage = 0
        if u in _LIFT_VOLTAGES and v == "a1":
            voltage = _LIFT_VOLTAGES[u]
        elif v in _LIFT_VOLTAGES and u == "a1":
            u, v = v, u
            voltage = _LIFT_VOLTAGES[u]
        for i in range(3):
            edges.append((f"t{i}.{u}", f"t{(i + voltage) % 3}.{v}"))
    pendant = "w"
    edges.append((pendant, f"t0.a{d}"))
    graph = Graph(edges)
    covers = {
        name: (f"t0.{name}", f"t1.{name}", f"t2.{name}")
        for name in spec.names
    }
    return NetworkB(d=d, k=k, graph=graph, covers=covers, pendant=pendant)


# ---------------------------------------------------------------------------
# Verification of the Figure 1 properties
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Figure1Report:
    """Machine-checked properties of a Figure 1 instantiation."""

    d: int
    k: int
    size_a: int
    size_b: int
    diameter_a: int
    diameter_b: int
    covering_ok: bool
    expected_diameter: int

    @property
    def ok(self) -> bool:
        return (self.size_a == self.size_b
                and self.diameter_a == self.diameter_b
                == self.expected_diameter
                and self.covering_ok)


def check_covering(net_b: NetworkB, spec: GadgetSpec) -> bool:
    """Verify the paper's property (*) -- the covering-map condition.

    For every gadget node ``u``, every cover ``u' in S_u`` and every
    gadget neighbor ``v`` of ``u``: ``u'`` is adjacent to *exactly one*
    member of ``S_v``, and ``u'`` has no other edges in ``B`` (modulo
    the silenced pendant ``w``).
    """
    for name in spec.names:
        base_neighbors = spec.graph.neighbors(name)
        for cover in net_b.covers[name]:
            lift_neighbors = [v for v in net_b.graph.neighbors(cover)
                              if v != net_b.pendant]
            if len(lift_neighbors) != len(base_neighbors):
                return False
            seen_bases = []
            for v in lift_neighbors:
                seen_bases.append(net_b.base_name(v))
            if sorted(seen_bases) != sorted(base_neighbors):
                return False
    return True


def verify_figure1(d: int, k: int) -> Figure1Report:
    """Build and check a Figure 1 pair for the given parameters."""
    spec = gadget(d, k)
    net_a = network_a(d, k)
    net_b = network_b(d, k)
    return Figure1Report(
        d=d, k=k,
        size_a=net_a.graph.n,
        size_b=net_b.graph.n,
        diameter_a=net_a.graph.diameter(),
        diameter_b=net_b.graph.diameter(),
        covering_ok=check_covering(net_b, spec),
        expected_diameter=2 * d + 2,
    )


def figure1_parameters(diameter: int, min_size: int) -> Tuple[int, int]:
    """The paper's parameter accounting (Theorem 3.3).

    Given an even target ``diameter >= 6`` and a minimum size, return
    ``(d, k)`` such that the Figure 1 pair has diameter ``diameter``
    and size ``n' >= min_size`` with ``n' = Theta(min_size)``.
    """
    if diameter < 6 or diameter % 2 != 0:
        raise ValueError("need an even diameter >= 6")
    d = (diameter - 2) // 2
    k = 0
    while 3 * (d + k + 4) + 1 < min_size:
        k += 1
    return d, k


# ---------------------------------------------------------------------------
# Network K_D (Figure 2)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class KDNetwork:
    """Figure 2's ``K_D``: two lines ``L_D`` glued to a spine endpoint.

    ``line1`` and ``line2`` each have ``D + 1`` nodes; ``spine`` is the
    ``L_(D-1)`` line of ``D`` nodes whose endpoint ``contact`` is
    adjacent to *every* node of both lines. Silencing ``contact`` for a
    prefix of the execution makes each line's view identical to running
    alone in an isolated ``L_D`` -- which has a different ``n`` but the
    same diameter ``D``.
    """

    diameter_target: int
    graph: Graph
    line1: Tuple[str, ...]
    line2: Tuple[str, ...]
    spine: Tuple[str, ...]
    contact: str


def kd_network(diameter: int) -> KDNetwork:
    """Build ``K_D`` exactly as described in Section 3.3."""
    if diameter < 2:
        raise ValueError("K_D needs D >= 2")
    line1 = tuple(f"x{i}" for i in range(diameter + 1))
    line2 = tuple(f"y{i}" for i in range(diameter + 1))
    spine = tuple(f"z{i}" for i in range(diameter))
    edges: List[Tuple[str, str]] = []
    for nodes in (line1, line2, spine):
        edges.extend((nodes[i], nodes[i + 1])
                     for i in range(len(nodes) - 1))
    contact = spine[0]
    edges.extend((contact, v) for v in line1)
    edges.extend((contact, v) for v in line2)
    graph = Graph(edges)
    return KDNetwork(diameter_target=diameter, graph=graph,
                     line1=line1, line2=line2, spine=spine,
                     contact=contact)
