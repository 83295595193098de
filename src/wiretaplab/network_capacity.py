"""Wiretap network cuts, capacity formulas, and the wiretap-II code.

Two min-cut notions drive the r-wiretap capacities: mincut2 is the plain
source-to-terminal edge cut, while mincut1 also credits the out-edges of
pseudo source nodes (intermediate nodes with no incoming edges and no
message), since those nodes may inject fresh randomness.  mincut1 is
computed as a max-flow from a virtual super source feeding the source
and every pseudo source; deleting the pseudo sources' out-edges then
yields mincut2.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Optional, Sequence

from .algebra import Matrix, build_mds_generator, is_prime
from .errors import BudgetError

ROLES = ("source", "terminal", "intermediate")


@dataclass(frozen=True)
class NodeInfo:
    role: str
    has_message: bool = False
    has_random: bool = False

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")


@dataclass(frozen=True)
class WiretapNetwork:
    """Acyclic directed network, unit edge capacities, multi-edges allowed."""

    nodes: tuple[tuple[str, NodeInfo], ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        ids = [n for n, _ in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids")
        roles = [info.role for _, info in self.nodes]
        if roles.count("source") != 1 or roles.count("terminal") != 1:
            raise ValueError("need exactly one source and one terminal")
        known = set(ids)
        for u, v in self.edges:
            if u not in known or v not in known:
                raise ValueError(f"edge ({u}, {v}) references unknown node")
            if u == v:
                raise ValueError("self-loops not allowed")
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        out: dict[str, list[str]] = {n: [] for n, _ in self.nodes}
        indeg = {n: 0 for n, _ in self.nodes}
        for u, v in self.edges:
            out[u].append(v)
            indeg[v] += 1
        queue = deque(n for n, c in indeg.items() if c == 0)
        seen = 0
        while queue:
            u = queue.popleft()
            seen += 1
            for v in out[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
        if seen != len(self.nodes):
            raise ValueError("network has a directed cycle")

    @property
    def source(self) -> str:
        return next(n for n, i in self.nodes if i.role == "source")

    @property
    def terminal(self) -> str:
        return next(n for n, i in self.nodes if i.role == "terminal")

    def in_degree(self, node: str) -> int:
        return sum(1 for _, v in self.edges if v == node)

    def pseudo_sources(self) -> tuple[str, ...]:
        """Intermediate nodes with only outgoing edges and no message."""
        return tuple(
            n for n, i in self.nodes
            if i.role == "intermediate" and not i.has_message
            and self.in_degree(n) == 0)

    def to_text(self) -> str:
        lines = []
        for n, i in self.nodes:
            parts = ["node", n, i.role]
            if i.has_message:
                parts.append("message")
            if i.has_random:
                parts.append("random")
            lines.append(" ".join(parts))
        lines += [f"edge {u} {v}" for u, v in self.edges]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "WiretapNetwork":
        nodes: list[tuple[str, NodeInfo]] = []
        edges: list[tuple[str, str]] = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "node":
                if len(parts) < 3:
                    raise ValueError(f"bad node line: {raw!r}")
                flags = set(parts[3:])
                unknown = flags - {"message", "random"}
                if unknown:
                    raise ValueError(f"unknown node flags {sorted(unknown)}")
                nodes.append((parts[1], NodeInfo(
                    parts[2], "message" in flags, "random" in flags)))
            elif parts[0] == "edge":
                if len(parts) != 3:
                    raise ValueError(f"bad edge line: {raw!r}")
                edges.append((parts[1], parts[2]))
            else:
                raise ValueError(f"unrecognized line: {raw!r}")
        return cls(tuple(nodes), tuple(edges))


def _max_flow(n_nodes: int, edge_list: Sequence[tuple[int, int, int]],
              source: int, sink: int) -> int:
    """Edmonds-Karp on an edge list (u, v, capacity); parallel edges fine."""
    caps = []
    adj: list[list[int]] = [[] for _ in range(n_nodes)]
    for u, v, c in edge_list:
        adj[u].append(len(caps))
        caps.append([u, v, c])
        adj[v].append(len(caps))
        caps.append([v, u, 0])
    flow = 0
    while True:
        parent_edge = [-1] * n_nodes
        parent_edge[source] = -2
        queue = deque([source])
        while queue and parent_edge[sink] == -1:
            u = queue.popleft()
            for ei in adj[u]:
                _, v, c = caps[ei]
                if c > 0 and parent_edge[v] == -1:
                    parent_edge[v] = ei
                    queue.append(v)
        if parent_edge[sink] == -1:
            return flow
        bottleneck = None
        v = sink
        while v != source:
            ei = parent_edge[v]
            c = caps[ei][2]
            bottleneck = c if bottleneck is None else min(bottleneck, c)
            v = caps[ei][0]
        v = sink
        while v != source:
            ei = parent_edge[v]
            caps[ei][2] -= bottleneck
            caps[ei ^ 1][2] += bottleneck
            v = caps[ei][0]
        flow += bottleneck


def _flow_value(net: WiretapNetwork, from_pseudo: bool) -> int:
    ids = [n for n, _ in net.nodes]
    index = {n: i for i, n in enumerate(ids)}
    pseudo = set(net.pseudo_sources())
    edges = []
    for u, v in net.edges:
        if not from_pseudo and u in pseudo:
            continue
        edges.append((index[u], index[v], 1))
    super_source = len(ids)
    big = len(net.edges) + 1
    edges.append((super_source, index[net.source], big))
    if from_pseudo:
        for p in pseudo:
            edges.append((super_source, index[p], big))
    return _max_flow(len(ids) + 1, edges, super_source, index[net.terminal])


def mincut1(net: WiretapNetwork) -> int:
    """Edge cut separating terminal from the source plus pseudo sources."""
    return _flow_value(net, from_pseudo=True)


def mincut2(net: WiretapNetwork) -> int:
    """Edge cut with every pseudo-source out-edge removed."""
    return _flow_value(net, from_pseudo=False)


@dataclass(frozen=True)
class RWiretapCapacities:
    """Capacities (in symbols per use) of an r-wiretap network.

    c2 is exact; c1 is bracketed between the two cut differences and
    collapses when the network has no pseudo source.  Negative values
    are clamped to zero and flagged.
    """

    r: int
    mincut1: int
    mincut2: int
    c2: int
    c1_lower: int
    c1_upper: int
    collapsed: bool
    clamped: bool

    def to_json_dict(self) -> dict:
        return {"r": self.r, "mincut1": self.mincut1, "mincut2": self.mincut2,
                "C2": self.c2, "C1_bounds": [self.c1_lower, self.c1_upper],
                "collapsed": self.collapsed, "clamped": self.clamped}


def rwiretap_capacities(net: WiretapNetwork, r: int) -> RWiretapCapacities:
    if r < 0:
        raise ValueError("r must be nonnegative")
    m1, m2 = mincut1(net), mincut2(net)
    clamped = r > m2 or r > m1
    c2 = max(m2 - r, 0)
    upper = max(m1 - r, 0)
    collapsed = not net.pseudo_sources()
    lower = upper if collapsed else c2
    return RWiretapCapacities(r, m1, m2, c2, lower, upper, collapsed, clamped)


# ---------------------------------------------------------------------------
# layered unicast networks

@dataclass(frozen=True)
class LayeredUnicastNetwork:
    """c layers with k_i parallel edges each; Eve taps r_i edges per layer."""

    k: tuple[int, ...]
    r: tuple[int, ...]
    q: int

    def __post_init__(self) -> None:
        if not self.k:
            raise ValueError("need at least one layer")
        if len(self.k) != len(self.r):
            raise ValueError("k and r must have one entry per layer")
        if any(ki < 1 for ki in self.k):
            raise ValueError("layer widths must be >= 1")
        for ki, ri in zip(self.k, self.r):
            if not 0 <= ri <= ki - 1:
                raise ValueError(
                    f"need 0 <= r_i <= k_i - 1, got r={ri} for k={ki}")
        if self.q < 2:
            raise ValueError("alphabet size q must be >= 2")

    @property
    def layers(self) -> int:
        return len(self.k)

    @classmethod
    def from_json_dict(cls, data: dict) -> "LayeredUnicastNetwork":
        k = tuple(int(v) for v in data["k"])
        r = tuple(int(v) for v in data["r"])
        if "c" in data and int(data["c"]) != len(k):
            raise ValueError("layer count c disagrees with len(k)")
        return cls(k, r, int(data["q"]))


@dataclass(frozen=True)
class UnicastCapacities:
    """Both capacities in bits per channel use with exact rational factors."""

    c1_bits: float
    c2_bits: float
    c1_factor: int
    c2_factor: Fraction

    def to_json_dict(self) -> dict:
        return {"C1": self.c1_bits, "C2": self.c2_bits,
                "C1_factor": self.c1_factor,
                "C2_factor": [self.c2_factor.numerator, self.c2_factor.denominator]}


def unicast_capacities(net: LayeredUnicastNetwork) -> UnicastCapacities:
    """Rate limits with and without randomness at intermediate nodes.

    C1 = log2(q) * min_j (k_j - r_j).  C2 scales each layer's margin by
    the downstream survival ratio prod_{i>j} (k_i - r_i) / k_i, minimized
    over j with exact rationals before the single log2(q) scaling.
    """
    c = net.layers
    c1_factor = min(net.k[j] - net.r[j] for j in range(c))
    c2_factor = None
    for j in range(c):
        term = Fraction(net.k[j] - net.r[j])
        for i in range(j + 1, c):
            term *= Fraction(net.k[i] - net.r[i], net.k[i])
        if c2_factor is None or term < c2_factor:
            c2_factor = term
    log_q = math.log2(net.q)
    return UnicastCapacities(log_q * c1_factor, log_q * float(c2_factor),
                             c1_factor, c2_factor)


# ---------------------------------------------------------------------------
# wiretap channel II

@dataclass(frozen=True)
class WiretapIICode:
    """k parallel channels, any r of them tappable, zero leakage via MDS.

    The codeword is scrambles . G plus the message padded into the last
    k - r positions, where G is the systematic MDS generator; any r
    tapped symbols are an invertible image of the r uniform scrambles
    and therefore independent of the message.
    """

    k: int
    r: int
    q: int
    generator: Optional[Matrix]

    @classmethod
    def build(cls, k: int, r: int, q: int) -> "WiretapIICode":
        if not 0 <= r < k:
            raise ValueError(f"need 0 <= r < k, got k={k}, r={r}")
        if not is_prime(q):
            raise ValueError(f"q={q} is not prime")
        if q < k:
            raise ValueError(f"need q >= k for the MDS construction, got q={q}")
        generator = build_mds_generator(k, r, q) if r > 0 else None
        return cls(k, r, q, generator)

    @property
    def message_length(self) -> int:
        return self.k - self.r


def wiretap2_encode(code: WiretapIICode, message: Sequence[int],
                    scrambles: Sequence[int]) -> tuple[int, ...]:
    if len(message) != code.message_length:
        raise ValueError(f"message must have {code.message_length} symbols")
    if len(scrambles) != code.r:
        raise ValueError(f"need {code.r} scramble symbols")
    q = code.q
    padded = [0] * code.r + [m % q for m in message]
    if code.generator is None:
        return tuple(padded)
    mixed = code.generator.mat_vec(tuple(s % q for s in scrambles))
    return tuple((p + x) % q for p, x in zip(padded, mixed))


def wiretap2_decode(code: WiretapIICode, word: Sequence[int]) -> tuple[int, ...]:
    if len(word) != code.k:
        raise ValueError(f"codeword must have {code.k} symbols")
    q = code.q
    if code.generator is None:
        return tuple(w % q for w in word[code.r:])
    scrambles = tuple(w % q for w in word[:code.r])
    mixed = code.generator.mat_vec(scrambles)
    return tuple((w - x) % q for w, x in zip(word[code.r:], mixed[code.r:]))


@dataclass(frozen=True)
class Wiretap2Report:
    k: int
    r: int
    q: int
    decode_ok: bool
    subsets_checked: int
    max_leakage_bits: float
    all_taps_zero: bool

    def to_json_dict(self) -> dict:
        return {"k": self.k, "r": self.r, "q": self.q,
                "decode_ok": self.decode_ok,
                "subsets_checked": self.subsets_checked,
                "max_leakage_bits": self.max_leakage_bits,
                "all_taps_zero": self.all_taps_zero}


# One visit is one codeword seen through one tap subset: about 4 us
# (2-vCPU VM, Python 3.11), so the cap is about half a minute of work.
_WIRETAP2_VISIT_CAP = 1 << 23


def wiretap2_verify(code: WiretapIICode) -> Wiretap2Report:
    """Exhaustive check: exact zero leakage on every r-subset, full decode.

    Builds the exact joint law over uniform messages and scrambles; each
    tap subset must show message-independent view counts (an integer
    test), and the full codeword must decode every input.  Raises
    BudgetError, before any work, when the q^k codewords times the
    C(k, r) tap subsets exceed _WIRETAP2_VISIT_CAP.
    """
    q, k, r = code.q, code.k, code.r
    visits = q ** k * math.comb(k, r)
    if visits > _WIRETAP2_VISIT_CAP:
        raise BudgetError(f"{q}^{k} codewords x C({k}, {r}) tap subsets = {visits} "
                          f"visits exceed the cap of {_WIRETAP2_VISIT_CAP}")
    decode_ok = True
    # joint counts per subset: (message tuple, view tuple) -> count
    subsets = list(combinations(range(k), r)) if r > 0 else [()]
    counts: dict[tuple, dict] = {s: {} for s in subsets}
    msg_count = 0
    for message in product(range(q), repeat=code.message_length):
        msg_count += 1
        for scrambles in product(range(q), repeat=r):
            word = wiretap2_encode(code, message, scrambles)
            if wiretap2_decode(code, word) != message:
                decode_ok = False
            for s in subsets:
                view = tuple(word[i] for i in s)
                slot = counts[s].setdefault(view, {})
                slot[message] = slot.get(message, 0) + 1
    max_leak = 0.0
    all_zero = True
    for s in subsets:
        for view, per_message in counts[s].items():
            values = set(per_message.values())
            if len(per_message) != msg_count or len(values) != 1:
                all_zero = False
    if not all_zero:
        # quantify the worst leakage for the report
        from .info_theory import JointDistribution, mutual_information
        for s in subsets:
            weights = {}
            for view, per_message in counts[s].items():
                for message, w in per_message.items():
                    weights[message + view] = w
            mvars = [(f"M{i}", q) for i in range(code.message_length)]
            vvars = [(f"X{i}", q) for i in range(len(s))]
            dist = JointDistribution.from_weights(mvars + vvars, weights)
            leak = mutual_information(
                dist, [n for n, _ in mvars], [n for n, _ in vvars]) if s else 0.0
            max_leak = max(max_leak, leak)
    return Wiretap2Report(k, r, q, decode_ok, len(subsets), max_leak, all_zero)


# ---------------------------------------------------------------------------
# fixture networks

FIG1_NETWORK_TEXT = """\
node 1 source message random
node 2 intermediate
node 3 intermediate
node 4 intermediate
node 5 intermediate random
node 6 terminal
edge 1 2
edge 1 3
edge 5 4
edge 2 6
edge 3 6
edge 4 6
"""


def fig1_network() -> WiretapNetwork:
    """Six-node fixture with one pseudo source: mincut1 = 3, mincut2 = 2.

    The source holds the message and two scrambles; node 5 injects a
    third scramble while receiving nothing, making it a pseudo source.
    """
    return WiretapNetwork.from_text(FIG1_NETWORK_TEXT)


ONE_HOP_NETWORK_TEXT = """\
node S source message random
node R intermediate
node T terminal
edge S R
edge S R
edge R T
edge R T
"""


def one_hop_network() -> WiretapNetwork:
    """The four-edge relay network: two parallel edges per layer."""
    return WiretapNetwork.from_text(ONE_HOP_NETWORK_TEXT)


BUILTIN_NETWORKS = {
    "fig1": FIG1_NETWORK_TEXT,
    "fig1.net": FIG1_NETWORK_TEXT,
    "one-hop": ONE_HOP_NETWORK_TEXT,
    "one-hop.net": ONE_HOP_NETWORK_TEXT,
}
