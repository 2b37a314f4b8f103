"""Hypergraphs of a trinity and their hypertrees.

A trinity carries six hypergraphs: for each unordered pair of colour
classes, either class may serve as the hyperedge set, with the matching
colour graph as incidence structure. A ``Hypergraph`` is that colour
graph's index arrays (``trees.GraphIndex``) and the hyperedge slot of each
of its edges. A hypertree is a non-negative vector indexed by hyperedges
that occurs as (degree - 1) of some spanning tree at the hyperedge nodes.
Hypertree sets are found by exchange moves from the hypertree of one
spanning tree, each candidate decided by one matroid-intersection
augmentation that also yields its witness tree; the sets are neither read
off every spanning tree nor cut out by polytope inequalities.
"""

from __future__ import annotations

from bisect import insort
from functools import cached_property
from itertools import compress
from operator import getitem, mul

from .limits import DEFAULT_CAP, InputError, ModelFailure
from .trees import SpanningTree, components, enumerate_spanning_trees


class WrongClass(InputError):
    """The tree does not span a graph with the requested hyperedge class."""


class IndexMismatch(ModelFailure):
    """The two hypertree sets are not indexed by the same hyperedges."""


class BadWitness(ModelFailure):
    """An augmentation's witness is not a spanning tree realizing its vector (model bug)."""


HYPERGRAPH_LABELS = ("VE", "EV", "ER", "RE", "VR", "RV")

_COLOUR_OF_LETTER = {"V": "violet", "E": "emerald", "R": "red"}


class Hypergraph:
    """One hypergraph, by the index arrays of its host.

    ``index`` is the host's ``trees.GraphIndex``, shared by the two
    hypergraphs it hosts, and ``colour`` the hyperedge class. ``ids`` lists
    the hyperedges in sorted order, as every vector does; ``slot[e]`` is
    the position in ``ids`` of host edge e's hyperedge end, and
    ``degree[s]`` the number of host edges at hyperedge s.
    """

    def __init__(self, label, colour, index):
        self.label = label
        self.colour = colour
        self.index = index
        self.ids = index.graph.colour_classes[colour]
        slot_of = {h: s for s, h in enumerate(self.ids)}
        # bipartite: exactly one end of each edge lies in the hyperedge class
        at = [slot_of.get(v, -1) for v in index.vertex_ids]
        self.slot = [max(at[u], at[v]) for u, v in zip(index.tail, index.head)]
        self.degree = [self.slot.count(s) for s in range(len(self.ids))]

    def record(self, edges):
        counts = [-1] * len(self.ids)
        for e in edges:
            counts[self.slot[e]] += 1
        return tuple(counts)

    def certify(self, edges, vector):
        """Raise ``BadWitness`` unless the edges form a spanning tree with this record."""
        n = len(self.index.vertex_ids)
        parts = len(set(components(self.index, edges)))
        if len(edges) != n - 1 or parts != 1:
            raise BadWitness(
                f"{self.label}: witness for {vector} has {len(edges)} edges and "
                f"{parts} components on {n} vertices"
            )
        record = self.record(edges)
        if record != vector:
            raise BadWitness(f"{self.label}: witness for {vector} realizes {record}")


def trinity_hypergraph(trinity, label):
    """Hypergraph ``label`` of a trinity (vertex class letter, then hyperedge
    class letter), hosted by the third colour's graph."""
    if label not in HYPERGRAPH_LABELS:
        raise InputError(f"bad hypergraph label {label!r}")
    (third,) = set(_COLOUR_OF_LETTER) - set(label)
    return Hypergraph(
        label, _COLOUR_OF_LETTER[label[1]], trinity.graph_index(_COLOUR_OF_LETTER[third])
    )


class Hypertree:
    """Degree record of a realizing spanning tree, minus one per hyperedge.

    The tree is ``witness``. ``source`` is either that tree or, for a
    searched hypertree, its hypergraph and the tree's edge positions in the
    host, from which the tree is built when first read.
    """

    def __init__(self, vector: tuple, source):
        self.vector = vector
        self.source = source

    @cached_property
    def witness(self):
        if not isinstance(self.source, tuple):
            return self.source
        hypergraph, edges = self.source
        index = hypergraph.index
        return SpanningTree(index.graph, frozenset(map(index.edge_ids.__getitem__, edges)))


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

    A vector is kept as its mixed-radix code over the hyperedge degrees,
    first hyperedge most significant, so code order is vector order and a
    move is two additions; tuples are built for hypertrees only.

    The cap bounds the host's Kirchhoff count, checked before the first
    tree is drawn; with ``cap=None`` it is not taken.
    """
    seed = next(enumerate_spanning_trees(hypergraph.index, cap=cap))
    tree = sorted(map(hypergraph.index.edge_index.__getitem__, seed.edges))
    k, degree = len(hypergraph.ids), hypergraph.degree
    stride = [1] * k
    for i in range(k - 1, 0, -1):
        stride[i - 1] = stride[i] * degree[i]
    vector = hypergraph.record(tree)
    code = sum(map(mul, vector, stride))
    # decided[code] is the witness of a hypertree, or None for a code that
    # is not one; found lists each hypertree's code and vector
    decided = {code: tree}
    found = [(code, vector)]
    # codes of the vectors h = f - 1_i already expanded: the first hypertree
    # f above h decides every h + 1_j, so any later one skips h
    lowered = set()
    for code, vector in found:
        # moves into j with a host edge at j outside T; the others have no
        # sink. The move from i back into i is the vector itself, decided.
        targets = [j for j in range(k) if vector[j] + 1 < degree[j]]
        rooted = None
        for i in range(k):
            if vector[i] == 0:
                continue
            base = code - stride[i]
            if base in lowered:
                continue
            lowered.add(base)
            fresh = [j for j in targets if base + stride[j] not in decided]
            if not fresh:
                continue
            if rooted is None:
                rooted = _RootedTree(hypergraph, decided[code])
            exchange = _ExchangeGraph(hypergraph, rooted, i)
            for j in fresh:
                witness = decided[base + stride[j]] = exchange.augment(j)
                if witness is not None:
                    move = list(vector)
                    move[i] -= 1
                    move[j] += 1
                    move = tuple(move)
                    hypergraph.certify(witness, move)
                    found.append((base + stride[j], move))
    # one (hyperedge, value) pair object per value, shared by every vector
    pairs = [[(h, f) for f in range(d)] for h, d in zip(hypergraph.ids, degree)]
    return tuple(
        Hypertree(tuple(map(getitem, pairs, vector)), (hypergraph, decided[code]))
        for code, vector in sorted(found)
    )


class _RootedTree:
    """A witness tree by index, rooted at vertex 0.

    The vertices below each tree edge form one interval of the preorder,
    ``below[e]``, so whether an edge has exactly one end below e is two
    comparisons. ``ends`` lists each edge outside the tree, in index
    order, with the preorder positions of its two ends.
    """

    def __init__(self, hypergraph, edges):
        index, slot = hypergraph.index, hypergraph.slot
        tail, head = index.tail, index.head
        n, m = len(index.vertex_ids), len(tail)
        incident = [[] for _ in range(n)]
        for e in edges:
            incident[tail[e]].append(e)
            incident[head[e]].append(e)
        # depth first from vertex 0; in a tree, every edge at v other
        # than the one to v's parent leads to a child
        up = [-1] * n  # tree edge to the parent
        order = []
        stack = [0]
        while stack:
            v = stack.pop()
            order.append(v)
            u = up[v]
            for e in incident[v]:
                if e != u:
                    w = tail[e] + head[e] - v
                    up[w] = e
                    stack.append(w)
        first = [0] * n
        for x, v in enumerate(order):
            first[v] = x
        size = [1] * n
        self.below = below = [None] * m
        for v in reversed(order):
            e = up[v]
            if e >= 0:
                size[tail[e] + head[e] - v] += size[v]
                below[e] = (first[v], first[v] + size[v])
        self.inside = inside = bytearray(m)
        self.at_slot = at_slot = [[] for _ in hypergraph.ids]
        for e in edges:  # sorted, so each list is in index order
            inside[e] = 1
            at_slot[slot[e]].append(e)
        self.first = first
        self.ends = [(z, first[tail[z]], first[head[z]]) for z in range(m) if not inside[z]]


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

    def __init__(self, hypergraph, rooted, i):
        self.slot = hypergraph.slot
        self.rooted = rooted
        a = rooted.at_slot[i][0]
        self.inside = bytearray(rooted.inside)
        self.inside[a] = 0
        first = rooted.first
        self.ends = rooted.ends[:]
        tail, head = hypergraph.index.tail, hypergraph.index.head
        insort(self.ends, (a, first[tail[a]], first[head[a]]))
        self.at_slot = rooted.at_slot[:]
        self.at_slot[i] = self.at_slot[i][1:]
        self.parent = [-2] * len(tail)  # -2 unseen, -1 source
        self.sink = [-1] * len(hypergraph.ids)  # first edge outside I seen at each hyperedge
        self.queue = []
        self.expanded = 0
        self._cross(a, -1)

    def _cross(self, e, mark):
        """Queue, marked ``mark``, each unseen edge outside I with exactly one end below e."""
        parent, queue, sink, slot = self.parent, self.queue, self.sink, self.slot
        lo, hi = self.rooted.below[e]
        for z, p, q in self.ends:
            if parent[z] == -2 and (lo <= p < hi) != (lo <= q < hi):
                parent[z] = mark
                queue.append(z)
                if sink[slot[z]] < 0:
                    sink[slot[z]] = z

    def augment(self, j):
        """Witness edges of the move to hyperedge j, or None when there is none."""
        sink, parent, queue = self.sink, self.parent, self.queue
        inside, at_slot, slot = self.inside, self.at_slot, self.slot
        x = self.expanded
        while sink[j] < 0 and x < len(queue):
            e = queue[x]
            x += 1
            if inside[e]:
                self._cross(e, e)
            else:
                for y in at_slot[slot[e]]:
                    if parent[y] == -2:
                        parent[y] = e
                        queue.append(y)
        self.expanded = x
        z = sink[j]
        if z < 0:
            return None
        witness = bytearray(inside)
        while z >= 0:
            witness[z] = 1
            y = parent[z]
            if y < 0:
                break
            witness[y] = 0
            z = parent[y]
        return list(compress(range(len(witness)), witness))


def translate_offset(set_a, set_b):
    """Constant vector c with A = c - B, or None when no such translate exists."""
    vecs_a = [dict(h.vector) for h in set_a]
    vecs_b = [dict(h.vector) for h in set_b]
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
