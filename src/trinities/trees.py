"""Spanning trees, arborescences and the magic number.

All counting is exact: determinants are computed by fraction-free Bareiss
elimination over Python integers, and every determinant count is
cross-checkable against brute-force enumeration. No floating point is used
anywhere in this module.
"""

from __future__ import annotations

from functools import cached_property

from .limits import DEFAULT_CAP, CapExceeded, InputError, check_cap


class UnknownRoot(InputError):
    """The requested root is not a vertex of the directed dual."""


# -- exact determinants -------------------------------------------------------


def bareiss_determinant(rows):
    """Exact integer determinant by fraction-free Bareiss elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def spanning_tree_count(graph):
    """Kirchhoff count of spanning trees (loops ignored, parallels kept)."""
    return GraphIndex(graph).tree_count


class GraphIndex:
    """A graph by position, vertices and edges in sorted id order, with its Kirchhoff count.

    ``tail[e]`` and ``head[e]`` are the positions of edge e's ends.
    """

    def __init__(self, graph):
        self.graph = graph
        self.vertex_ids = sorted(graph.vertices)
        position = {v: x for x, v in enumerate(self.vertex_ids)}
        self.edge_ids = sorted(graph.edges)
        self.edge_index = {eid: e for e, eid in enumerate(self.edge_ids)}
        ends = [graph.endpoints(eid) for eid in self.edge_ids]
        self.tail = [position[u] for u, _ in ends]
        self.head = [position[v] for _, v in ends]

    @cached_property
    def tree_count(self):
        n = len(self.vertex_ids)
        lap = [[0] * n for _ in range(n)]
        for i, j in zip(self.tail, self.head):
            if i != j:
                lap[i][j] -= 1
                lap[j][i] -= 1
                lap[i][i] += 1
                lap[j][j] += 1
        return bareiss_determinant([row[:-1] for row in lap[:-1]])


# -- spanning trees ------------------------------------------------------------


class SpanningTree:
    """Edge subset spanning the host graph."""

    __slots__ = ("graph", "edges")

    def __init__(self, graph, edges: frozenset):
        self.graph = graph
        self.edges = edges

    def degrees(self, colour):
        """Tree degree of each host vertex of this colour."""
        graph = self.graph
        degs = {v: 0 for v in graph.vertices if graph.colour_of(v) == colour}
        for eid in self.edges:
            for v in graph.endpoints(eid):
                if v in degs:
                    degs[v] += 1
        return degs


def enumerate_spanning_trees(index, cap=DEFAULT_CAP):
    """Yield every spanning tree of the graph of a ``GraphIndex`` exactly
    once, in a deterministic order.

    Contraction/deletion over edges in id order: the branch including the
    smallest live edge is explored first, and the branch excluding it only
    when the remaining edges still join the contracted classes. The
    Kirchhoff count is taken up front and checked against the cap before
    any tree is produced; with ``cap=None`` it is not taken.

    Vertices and edges are handled by index. Each search node carries one
    class label per vertex, and an explicit stack replaces recursion, so
    the interpreter's stack depth does not grow with the graph.
    """
    if cap is not None:
        check_cap(index.tree_count, cap, "spanning tree enumeration")
    edge_ids, tails, heads = index.edge_ids, index.tail, index.head
    n, m = len(index.vertex_ids), len(edge_ids)
    target = n - 1

    def joins(label, pos, classes):
        # can edges pos.. still join the contracted classes (at least two) into one?
        root = list(range(n))
        for j in range(pos, m):
            a, b = label[tails[j]], label[heads[j]]
            while root[a] != a:
                a = root[a]
            while root[b] != b:
                b = root[b]
            if a != b:
                root[a] = b
                classes -= 1
                if classes == 1:
                    return True
        return False

    # chosen[d] is the edge taken at depth d on the branch being explored;
    # a frame at depth d reads only chosen[:d], and nothing explored between
    # its push and its pop writes below index d
    chosen = [0] * target
    # frame: (class label per vertex, edges chosen, next edge, whether the
    # branch has just excluded an edge and must first pass the joins test)
    stack = [(list(range(n)), 0, 0, False)]
    while stack:
        label, depth, pos, excluded = stack.pop()
        if excluded and not joins(label, pos, n - depth):
            continue
        if depth == target:
            yield SpanningTree(index.graph, frozenset([edge_ids[i] for i in chosen]))
            continue
        while pos < m and label[tails[pos]] == label[heads[pos]]:
            pos += 1  # a loop, or contracted to one: never in a tree
        if pos == m:
            continue
        keep, merge = label[heads[pos]], label[tails[pos]]
        stack.append((label, depth, pos + 1, True))
        chosen[depth] = pos
        stack.append(
            ([keep if c == merge else c for c in label], depth + 1, pos + 1, False)
        )


# -- arborescences -------------------------------------------------------------


class Arborescence:
    """Arc ids of an arborescence of ``dual`` away from ``root``."""

    __slots__ = ("dual", "root", "arcs")

    def __init__(self, dual, root: str, arcs: frozenset):
        self.dual = dual
        self.root = root
        self.arcs = arcs


def count_arborescences(dual, root):
    """Number of spanning arborescences directed away from the root.

    Matrix-tree count: determinant of the in-degree Laplacian with the
    root's row and column removed. Exact integer arithmetic throughout.
    """
    _require_root(dual, root)
    verts = sorted(dual.vertices)
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    lap = [[0] * n for _ in range(n)]
    for arc in dual.arcs:
        lap[index[arc.head]][index[arc.head]] += 1
        lap[index[arc.tail]][index[arc.head]] -= 1
    r = index[root]
    return bareiss_determinant([row[:r] + row[r + 1:] for row in lap[:r] + lap[r + 1:]])


def _require_root(dual, root):
    if root not in dual.vertices:
        raise UnknownRoot(f"{root!r} is not a vertex of the {dual.colour} dual")


def enumerate_arborescences(dual, root):
    """All arborescences away from the root, duplicate-free, deterministic order.

    Depth-first over the non-root vertices in id order, trying each one's
    in-arcs in id order; an explicit choice array replaces recursion, so the
    interpreter's stack depth does not grow with the number of vertices.
    Takes no cap: ``magic_number`` checks the matrix-tree count first.
    """
    _require_root(dual, root)
    others = [v for v in sorted(dual.vertices) if v != root]
    in_arcs = [
        sorted((a for a in dual.arcs if a.head == v and a.tail != v), key=lambda a: a.id)
        for v in others
    ]
    result = []
    parent = {}

    def creates_cycle(v, tail):
        u = tail
        while u in parent:
            u = parent[u]
            if u == v:
                return True
        return False

    n = len(others)
    # choice[k] is the position in in_arcs[k] of the arc taken at others[k]
    # on the branch being explored, or -1 before the first try; chosen[k]
    # is that arc's id
    choice = [-1] * n
    chosen = [None] * n
    k = 0
    while k >= 0:
        if k == n:
            result.append(Arborescence(dual, root, frozenset(chosen)))
            k -= 1
            continue
        v = others[k]
        arcs = in_arcs[k]
        parent.pop(v, None)
        c = choice[k] + 1
        while c < len(arcs) and creates_cycle(v, arcs[c].tail):
            c += 1
        if c == len(arcs):
            choice[k] = -1
            k -= 1
        else:
            choice[k] = c
            chosen[k] = arcs[c].id
            parent[v] = arcs[c].tail
            k += 1
    return result


# -- the magic number -----------------------------------------------------------


class MagicReport:
    __slots__ = ("det", "enum", "hypertrees", "agree")

    def __init__(self, det: dict, enum: dict, hypertrees: dict, agree: bool):
        self.det = det
        self.enum = enum
        self.hypertrees = hypertrees
        self.agree = agree

    @property
    def value(self):
        return self.det["violet"]

    def to_json(self):
        return {
            "det": {c: str(v) for c, v in sorted(self.det.items())},
            "enum": {
                c: (str(v) if v is not None else None) for c, v in sorted(self.enum.items())
            },
            "hypertrees": {
                k: (str(v) if v is not None else None)
                for k, v in sorted(self.hypertrees.items())
            },
            "agree": self.agree,
        }


def magic_number(trinity):
    """Count arborescences of all three duals and hypertrees of all six
    hypergraphs; the verdict passes iff every populated count agrees.

    Duals and hypertree sets come from the trinity's memoised copies, and
    a count over the trinity's cap is left out (``None``). Each dual's
    determinant serves as its enumeration's cap check, so a dual costs one
    Bareiss elimination; ``Trinity.magic_report`` memoises the report.
    """
    from .hypertrees import HYPERGRAPH_LABELS

    cap = trinity.cap
    det = {}
    enum = {}
    for colour in ("violet", "emerald", "red"):
        dual = trinity.directed_dual(colour)
        root = min(dual.vertices)
        det[colour] = count_arborescences(dual, root)
        fits = cap is None or det[colour] <= cap
        enum[colour] = len(enumerate_arborescences(dual, root)) if fits else None

    hyper = {}
    for label in HYPERGRAPH_LABELS:
        try:
            hyper[label] = len(trinity.hypertree_set(label))
        except CapExceeded:
            hyper[label] = None

    populated = list(det.values())
    populated += [v for v in enum.values() if v is not None]
    populated += [v for v in hyper.values() if v is not None]
    agree = len(set(populated)) == 1
    return MagicReport(det, enum, hyper, agree)


# -- the spanning check ------------------------------------------------------------


def components(index, edges):
    """Root of every vertex, by position, in the graph on these edge positions.

    The one check that an edge set spans: with |V| - 1 edges it is a
    spanning tree exactly when every vertex gets the same root. A union
    hangs the larger root under the smaller, so one forward pass flattens.
    """
    tail, head = index.tail, index.head
    root = list(range(len(index.vertex_ids)))
    for e in edges:
        a, b = tail[e], head[e]
        while root[a] != a:
            root[a] = a = root[root[a]]
        while root[b] != b:
            root[b] = b = root[root[b]]
        if a < b:
            root[b] = a
        elif b < a:
            root[a] = b
    for v, r in enumerate(root):
        root[v] = root[r]
    return root
