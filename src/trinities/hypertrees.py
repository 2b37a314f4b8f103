"""Hypergraphs of a trinity and their hypertrees.

A trinity carries six hypergraphs: for each unordered pair of colour
classes, either class may serve as the hyperedge set, with the matching
colour graph as incidence structure. A hypertree is a non-negative vector
indexed by hyperedges that occurs as (degree - 1) of some spanning tree at
the hyperedge nodes. Hypertree sets are found by exchange moves from the
hypertree of one spanning tree, each candidate decided by one
matroid-intersection augmentation that also yields its witness tree; the
sets are neither read off every spanning tree nor cut out by polytope
inequalities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .limits import DEFAULT_CAP
from .trees import SpanningTree, components, enumerate_spanning_trees


class WrongClass(ValueError):
    """The tree does not span a graph with the requested hyperedge class."""


class IndexMismatch(ValueError):
    """The two hypertree sets are not indexed by the same hyperedges."""


class BadWitness(RuntimeError):
    """An augmentation's witness is not a spanning tree realizing its vector (model bug)."""


HYPERGRAPH_LABELS = ("VE", "EV", "ER", "RE", "VR", "RV")

_COLOUR_OF_LETTER = {"V": "violet", "E": "emerald", "R": "red"}


@dataclass(frozen=True)
class Hypergraph:
    label: str
    vertex_colour: str
    hyperedge_colour: str
    bip: object = field(compare=False)
    hyperedges: tuple = ()

    def hyperedge_ids(self):
        return tuple(h for h, _ in self.hyperedges)


def trinity_hypergraph(trinity, vertex_colour, hyperedge_colour):
    """One of the six hypergraphs of a trinity, hosted by the third colour's graph."""
    rest = set(_COLOUR_OF_LETTER.values()) - {vertex_colour, hyperedge_colour}
    if len(rest) != 1:
        raise ValueError(f"bad colour pair {vertex_colour!r}/{hyperedge_colour!r}")
    (third,) = rest
    bip = getattr(trinity, f"{third}_graph")
    hyperedges = []
    for h in bip.colour_classes[hyperedge_colour]:
        members = frozenset(
            bip.target(d) for d in bip.vertices[h].rotation
        )
        hyperedges.append((h, members))
    label = (vertex_colour[0] + hyperedge_colour[0]).upper()
    return Hypergraph(label, vertex_colour, hyperedge_colour, bip, tuple(hyperedges))


def trinity_hypergraph_by_label(trinity, label):
    v, h = label
    return trinity_hypergraph(trinity, _COLOUR_OF_LETTER[v], _COLOUR_OF_LETTER[h])


@dataclass(frozen=True)
class Hypertree:
    """Degree record of a realizing spanning tree, minus one per hyperedge."""

    vector: tuple
    witness: object = field(compare=False, default=None)

    def as_dict(self):
        return dict(self.vector)


def hypertree_of(tree, hyperedge_colour):
    """Hypertree realized by a spanning tree: f(e) = deg(e) - 1 at hyperedge nodes."""
    if hyperedge_colour not in tree.graph.colour_classes:
        raise WrongClass(f"host graph has no {hyperedge_colour!r} class")
    degrees = tree.degrees(hyperedge_colour)
    vector = tuple(sorted((v, d - 1) for v, d in degrees.items()))
    return Hypertree(vector, tree)


def enumerate_hypertrees(hypergraph, cap=DEFAULT_CAP):
    """Hypertree set, sorted by vector, with one witness spanning tree each.

    Hypertrees are the lattice points of the base polytope of the
    polymatroid mu(S) = |union of S| - c(S) (Kalman 2013), so they form an
    M-convex set: all of them are reached from any one by the moves
    f -> f - 1_i + 1_j. The search starts from the record of the first
    spanning tree in canonical enumeration order and runs breadth-first
    over these moves, trying every move (i, j) with f(i) >= 1 in index
    order. Each candidate is searched at most once, and its outcome kept.

    A candidate f' = f - 1_i + 1_j is decided by one augmentation. With T
    the witness of f and a the first edge of T at hyperedge i, I = T - a
    is a common independent set of size r - 1 of the host's graphic
    matroid and the partition matroid capping each hyperedge e at
    f'(e) + 1; a spanning tree with record f' is exactly a common
    independent set of size r. So f' is a hypertree iff the exchange graph
    of I has an augmenting path P (Edmonds), and then the symmetric
    difference of I and P is its witness. A move into j is refused
    without a search when every host edge at j is already in T, since
    then there is no edge to end a path. Every witness is checked to span
    the host and realize its vector, or ``BadWitness`` is raised.

    The cap bounds the host's Kirchhoff count, checked before the first
    tree is drawn; with ``cap=None`` it is not taken.
    """
    bip, colour = hypergraph.bip, hypergraph.hyperedge_colour
    classes = bip.colour_classes
    if colour not in classes:
        raise WrongClass(f"host graph has no {colour!r} class")
    ids = classes[colour]  # sorted, as in every vector
    seed = next(enumerate_spanning_trees(bip, record_colour=colour, cap=cap))
    host = _Host(bip, ids)
    tree = sorted(host.edge_index[eid] for eid in seed.edges)
    # decided[vector] is the witness of a hypertree, or None for a vector
    # that is not one
    decided = {host.record(tree): tree}
    queue = list(decided)
    k = len(ids)
    for vector in queue:
        # moves into j with a host edge at j outside T; the others have no sink
        targets = [j for j in range(k) if vector[j] + 1 < host.degree[j]]
        rooted = None
        for i in range(k):
            if vector[i] == 0:
                continue
            move = list(vector)
            move[i] -= 1
            exchange = None
            for j in targets:
                if j == i:
                    continue
                move[j] += 1
                candidate = tuple(move)
                move[j] -= 1
                if candidate in decided:
                    continue
                if exchange is None:
                    if rooted is None:
                        rooted = _RootedTree(host, decided[vector])
                    exchange = _ExchangeGraph(host, rooted, i)
                witness = decided[candidate] = exchange.augment(j)
                if witness is not None:
                    host.certify(witness, candidate, hypergraph.label)
                    queue.append(candidate)
    return tuple(
        Hypertree(
            tuple(zip(ids, vector)),
            SpanningTree(bip, frozenset(host.edge_ids[e] for e in decided[vector]), colour),
        )
        for vector in sorted(v for v, w in decided.items() if w is not None)
    )


class _Host:
    """The host graph by index: endpoints and hyperedge slot of every edge."""

    def __init__(self, bip, ids):
        slot_of = {h: s for s, h in enumerate(ids)}
        index = {v: x for x, v in enumerate(sorted(bip.vertices))}
        self.bip = bip
        self.edge_ids = sorted(bip.edges)
        self.edge_index = {eid: e for e, eid in enumerate(self.edge_ids)}
        self.tail, self.head, self.slot = [], [], []
        for eid in self.edge_ids:
            u, v = bip.endpoints(eid)
            self.tail.append(index[u])
            self.head.append(index[v])
            # bipartite: exactly one endpoint lies in the hyperedge class
            self.slot.append(slot_of[u] if u in slot_of else slot_of[v])
        self.n = len(index)
        self.k = len(ids)
        self.degree = [0] * self.k
        for s in self.slot:
            self.degree[s] += 1

    def record(self, edges):
        counts = [-1] * self.k
        for e in edges:
            counts[self.slot[e]] += 1
        return tuple(counts)

    def certify(self, edges, vector, label):
        """Raise ``BadWitness`` unless the edges form a spanning tree with this record."""
        parts = len(set(components(self.bip, [self.edge_ids[e] for e in edges]).values()))
        if len(edges) != self.n - 1 or parts != 1:
            raise BadWitness(
                f"{label}: witness for {vector} has {len(edges)} edges and "
                f"{parts} components on {self.n} vertices"
            )
        record = self.record(edges)
        if record != vector:
            raise BadWitness(f"{label}: witness for {vector} realizes {record}")


class _RootedTree:
    """A witness tree by index, rooted at vertex 0.

    The vertices below each tree edge form one interval of the preorder,
    ``below[e]``, so whether an edge has exactly one end below e is two
    comparisons.
    """

    def __init__(self, host, edges):
        tail, head, slot = host.tail, host.head, host.slot
        n, m = host.n, len(tail)
        incident = [[] for _ in range(n)]
        for e in edges:
            incident[tail[e]].append(e)
            incident[head[e]].append(e)
        up = [-1] * n  # tree edge to the parent
        seen = [False] * n
        seen[0] = True
        order = []
        stack = [0]
        while stack:
            v = stack.pop()
            order.append(v)
            for e in incident[v]:
                w = head[e] if tail[e] == v else tail[e]
                if not seen[w]:
                    seen[w] = True
                    up[w] = e
                    stack.append(w)
        first = [0] * n
        for x, v in enumerate(order):
            first[v] = x
        size = [1] * n
        self.below = [None] * m
        for v in reversed(order):
            e = up[v]
            if e >= 0:
                size[tail[e] if head[e] == v else head[e]] += size[v]
                self.below[e] = (first[v], first[v] + size[v])
        self.first = first
        self.inside = bytearray(m)
        for e in edges:
            self.inside[e] = 1
        self.outside = [e for e in range(m) if not self.inside[e]]
        self.at_slot = [[] for _ in range(host.k)]
        for e in edges:  # sorted, so each list is in index order
            self.at_slot[slot[e]].append(e)
        self.edges = edges


class _ExchangeGraph:
    """Augmenting paths from I = T - a, for every move out of hyperedge i.

    Nodes are host edges. From z outside I an arc goes to each y in I at
    z's hyperedge (I - y + z keeps the partition caps, where only the
    target j has slack); from y in I an arc goes to each z outside I with
    I - y + z a forest. The sources are the edges joining I's two
    components, which are the edges with exactly one end below a in T
    (I + z is a forest), and the sinks for a move to j are the edges at j.
    Any other z outside I has both ends in one component of I, and there
    I - y + z is a forest iff z has exactly one end below y in T, so T's
    preorder serves every i.

    One breadth-first search, extended on demand, serves every j: the
    arcs out of j's sinks are the only arcs that depend on j, and the
    search for j stops at the first sink it finds, so the path found for
    j is its shortest augmenting path.
    """

    def __init__(self, host, rooted, i):
        self.host = host
        self.rooted = rooted
        self.a = a = rooted.at_slot[i][0]
        self.inside = bytearray(rooted.inside)
        self.inside[a] = 0
        self.outside = sorted(rooted.outside + [a])
        self.at_slot = list(rooted.at_slot)
        self.at_slot[i] = self.at_slot[i][1:]
        self.parent = [-2] * len(host.tail)  # -2 unseen, -1 source
        self.sink = [-1] * host.k  # first edge outside I seen at each hyperedge
        self.queue = []
        self.expanded = 0
        tail, head, first = host.tail, host.head, rooted.first
        lo, hi = rooted.below[a]
        for z in self.outside:
            if (lo <= first[tail[z]] < hi) != (lo <= first[head[z]] < hi):
                self._see(z, -1)

    def _see(self, e, parent):
        self.parent[e] = parent
        self.queue.append(e)
        if not self.inside[e]:
            s = self.host.slot[e]
            if self.sink[s] < 0:
                self.sink[s] = e

    def _expand(self, e):
        parent = self.parent
        if self.inside[e]:
            tail, head, first = self.host.tail, self.host.head, self.rooted.first
            lo, hi = self.rooted.below[e]
            for z in self.outside:
                if parent[z] == -2 and (lo <= first[tail[z]] < hi) != (lo <= first[head[z]] < hi):
                    self._see(z, e)
        else:
            for y in self.at_slot[self.host.slot[e]]:
                if parent[y] == -2:
                    self._see(y, e)

    def augment(self, j):
        """Witness edges of the move to hyperedge j, or None when there is none."""
        while self.sink[j] < 0 and self.expanded < len(self.queue):
            self._expand(self.queue[self.expanded])
            self.expanded += 1
        z = self.sink[j]
        if z < 0:
            return None
        witness = set(self.rooted.edges)
        witness.remove(self.a)
        while z >= 0:
            witness.add(z)
            y = self.parent[z]
            if y < 0:
                break
            witness.remove(y)
            z = self.parent[y]
        return sorted(witness)


def translate_offset(set_a, set_b):
    """Constant vector c with A = c - B, or None when no such translate exists."""
    vecs_a = [dict(h.vector) if isinstance(h, Hypertree) else dict(h) for h in set_a]
    vecs_b = [dict(h.vector) if isinstance(h, Hypertree) else dict(h) for h in set_b]
    if not vecs_a or not vecs_b:
        raise IndexMismatch("empty hypertree set")
    keys = set(vecs_a[0])
    if any(set(v) != keys for v in vecs_a + vecs_b):
        raise IndexMismatch("hypertree sets indexed by different hyperedges")
    if len(vecs_a) != len(vecs_b):
        return None
    m = len(vecs_a)
    offset = {}
    for k in keys:
        total = sum(v[k] for v in vecs_a) + sum(v[k] for v in vecs_b)
        if total % m != 0:
            return None
        offset[k] = total // m
    image = {tuple(sorted((k, offset[k] - v[k]) for k in keys)) for v in vecs_b}
    mine = {tuple(sorted(v.items())) for v in vecs_a}
    return offset if image == mine else None
