"""Dividing sets on face discs as non-crossing chord diagrams.

Each face of half-length n carries 2n boundary points, one per boundary
edge incidence, numbered in face-trace order. The boundary arc between
consecutive points runs past the vertex separating the two edges; arcs at
violet vertices are positive, arcs at emerald vertices negative (the discs
are oriented by the projection plane, so flipping this convention negates
every Euler class). A configuration chooses one diagram per face; it is
tight exactly when joining the two points of every edge glues all chords
into a single closed curve.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .limits import DEFAULT_CAP, InputError, ModelFailure, check_cap
from .trees import SpanningTree, components


class SizeMismatch(InputError):
    """Diagram size does not match the face's half-length."""


class NotSpanning(ModelFailure):
    """The edge set is not a spanning tree of the violet graph."""


class NotTight(InputError):
    """Operation defined only for tight configurations."""


class MixedRegion(ModelFailure):
    """A complementary region's boundary arcs differ in sign (model bug)."""


class NoHugBack(ModelFailure):
    """A tree-hugging witness hugs another configuration (model bug)."""


class ChordDiagram:
    """Non-crossing perfect matching of 2n cyclically ordered points."""

    __slots__ = ("partner",)

    def __init__(self, partner: tuple[int, ...]):
        self.partner = p = partner
        m = len(p)
        if m % 2 or m == 0:
            raise InputError("need an even, positive number of points")
        # non-crossing iff each closing point closes the innermost open chord
        opened = []
        nested = True
        for i, j in enumerate(p):
            if not 0 <= j < m or j == i or p[j] != i:
                raise InputError("partner array is not a perfect matching")
            if j > i:
                opened.append(i)
            elif nested:
                nested = opened.pop() == j
        if not nested:
            (a, b), (c, d) = first_crossing(self.pairs())
            raise InputError(f"chords ({a},{b}) and ({c},{d}) cross")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.partner == other.partner

    def __hash__(self):
        return hash((self.partner,))

    @property
    def n(self):
        return len(self.partner) // 2

    def pairs(self):
        return tuple((i, j) for i, j in enumerate(self.partner) if i < j)

    @classmethod
    def from_pairs(cls, n, pairs):
        partner = [-1] * (2 * n)
        for a, b in pairs:
            partner[a] = b
            partner[b] = a
        return cls(tuple(partner))


def first_crossing(pairs):
    """The first two chords, in input order, whose ends interleave; None if none do."""
    for (a, b), (c, d) in itertools.combinations(pairs, 2):
        if a < c < b < d or c < a < d < b:
            return (a, b), (c, d)
    return None


def catalan(n):
    c = 1
    for i in range(n):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


def enumerate_chord_diagrams(n, cap=DEFAULT_CAP):
    """All Catalan(n) non-crossing perfect matchings of 2n points, sorted."""
    if n < 1:
        raise InputError("need n >= 1")
    check_cap(catalan(n), cap, "chord diagram enumeration")
    return tuple(map(ChordDiagram, chord_trie(n)[1]))


def chord_trie(n):
    """The chord trie and partner tuples of all matchings of 2n points.

    The first free point of the leftmost open segment takes each odd-offset
    partner in turn, splitting the segment in two, so chords come in opener
    order and matchings in partner order. The explicit stack, one frame per
    chord, is the trie's path to the current chord: each partner a frame
    tries is a new node, the next sibling of the last one it tried.

    The trie is flat int lists ``(a, b, child, sibling, leaf)``. Node x is
    the chord ``(a[x], b[x])``; the children of x run from ``child[x]``
    along ``sibling`` in matching order, and -1 ends a sibling list. Leaf x
    holds matching ``leaf[x]`` (-1 elsewhere) and has child ``len(a)``.
    The partner tuples come in matching order.
    """
    partner = [0] * (2 * n)
    a, b, child, sibling, leaf, partners = [], [], [], [], [], []
    # frame: [p, hi, q, rest, x] pairs point p with q < hi as node x; rest
    # is the linked list (segment, rest) of the other open segments,
    # leftmost first
    frames = [[0, 2 * n, -1, None, -1]]
    while frames:
        frame = frames[-1]
        p, hi, q, rest, x = frame
        q += 2
        if q >= hi:
            frames.pop()
            continue
        frame[2] = q
        frame[4] = len(a)
        if x >= 0:
            sibling[x] = len(a)
        partner[p] = q
        partner[q] = p
        a.append(p)
        b.append(q)
        # a node's first child is the node made next
        child.append(len(a))
        sibling.append(-1)
        if len(frames) == n:
            leaf.append(len(partners))
            partners.append(tuple(partner))
            continue
        leaf.append(-1)
        if q + 1 < hi:
            rest = ((q + 1, hi), rest)
        if p + 1 < q:
            rest = ((p + 1, q), rest)
        (p, hi), rest = rest
        frames.append([p, hi, p - 1, rest, -1])
    child = [len(a) if k >= 0 else x for x, k in zip(child, leaf)]
    return (a, b, child, sibling, leaf), partners


# -- per-face charts -----------------------------------------------------------


class DiscChart:
    """Boundary bookkeeping of one face disc.

    emerald_corner[i] is the violet-graph edge id of the corner under the
    arc between points i and i+1 when that arc is negative, None when it
    is positive.
    """

    def __init__(self, face: str, n: int, emerald_corner: tuple):
        self.face = face
        self.n = n
        self.emerald_corner = emerald_corner

    @property
    def points(self):
        return 2 * self.n

    @cached_property
    def sign(self):
        """Each arc's sign: +1 when positive, -1 when negative."""
        return tuple(1 if c is None else -1 for c in self.emerald_corner)


# -- configurations --------------------------------------------------------------


class Configuration:
    """One chord diagram per face disc; equal configurations have equal entries."""

    __slots__ = ("trinity", "entries")

    def __init__(self, trinity, entries: tuple):
        self.trinity = trinity
        self.entries = entries
        for fid, diagram in entries:
            if diagram.n != trinity.n_r[fid]:
                raise SizeMismatch(
                    f"face {fid}: diagram size {diagram.n} != n_r {trinity.n_r[fid]}"
                )
        if tuple(sorted(f for f, _ in entries)) != tuple(sorted(trinity.red)):
            raise InputError("configuration must cover every face exactly once")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash((self.entries,))

    @classmethod
    def from_diagrams(cls, trinity, diagrams):
        return cls(trinity, tuple(sorted(diagrams.items())))

    def diagram(self, face):
        return dict(self.entries)[face]


class TightVerdict:
    __slots__ = ("tight", "loops")

    def __init__(self, tight: bool, loops: int):
        self.tight = tight
        self.loops = loops


def loop_count(config):
    """Closed curves obtained by gluing chord endpoints across graph edges."""
    trinity = config.trinity
    chord = [0] * len(trinity.glue)
    for fid, diagram in config.entries:
        lo = trinity.offset[fid]
        chord[lo:lo + len(diagram.partner)] = [lo + j for j in diagram.partner]
    return glued_loops(chord, trinity.glue)


def glued_loops(chord, glue):
    """Closed curves of the chords ``chord`` glued across edges by ``glue``.

    Both are partner arrays over the trinity's global point numbering.
    """
    # follow the curve through point 0 without marking: when it crosses
    # every chord, it is the only curve
    crossed = 1
    p = glue[chord[0]]
    while p:
        p = glue[chord[p]]
        crossed += 1
    if 2 * crossed == len(glue):
        return 1
    # walk each curve once, marking the points it crosses; each new curve
    # starts at the first unmarked point
    seen = bytearray(len(glue))
    loops = 0
    start = seen.find(0)
    while start >= 0:
        loops += 1
        p = start
        while not seen[p]:
            q = chord[p]
            seen[p] = seen[q] = 1
            p = glue[q]
        start = seen.find(0, start)
    return loops


def is_tight(config):
    loops = loop_count(config)
    return TightVerdict(loops == 1, loops)


# -- signed regions and Euler classes ------------------------------------------------


def euler_and_hug(regions):
    """A disc's Euler contribution, positive minus negative region count,
    and the tree-hugging rule: at most one negative region of valence above one."""
    euler = spread = 0
    for sign, arcs in regions:
        euler += sign
        if sign < 0 and len(arcs) > 1:
            spread += 1
    return euler, spread <= 1


def disc_regions(trinity, face, diagram):
    """Each complementary region's sign and arcs, root region last."""
    chart = trinity.charts[face]
    if diagram.n != chart.n:
        raise SizeMismatch(f"diagram size {diagram.n} != n_r {chart.n}")
    return regions(face, diagram.partner, chart.sign)


def regions(face, partner, sign):
    """Each complementary region's sign and arcs, in closing order, root region last.

    One stack pass over the partner tuple: arc p, between points p and
    p + 1, lies in the region a chord opened at p encloses, and after a
    chord closes at p in the region around that chord. A region takes the
    sign of its first arc, the root region that of the last arc, and 0 once
    an arc of the other sign joins it; the first region of sign 0 is named.
    """
    out = []
    stack = []
    s, arcs = sign[-1], []
    for p, q in enumerate(partner):
        if q > p:
            stack.append((s, arcs))
            s, arcs = sign[p], [p]
            continue
        out.append((s, arcs))
        s, arcs = stack.pop()
        arcs.append(p)
        if sign[p] != s:
            s = 0
    out.append((s, arcs))
    for s, arcs in out:
        if not s:
            raise MixedRegion(f"face {face}: region on arcs {arcs} has mixed signs")
    return out


def euler_vector(config):
    return {
        fid: euler_and_hug(disc_regions(config.trinity, fid, diagram))[0]
        for fid, diagram in config.entries
    }


# -- tree-hugging configurations -------------------------------------------------------


def tree_hugging(trinity, tree):
    """Configuration hugging a spanning tree of the violet graph.

    On each disc, emerald corners outside the tree are cut off by minimal
    chords; one chord per gap between consecutive in-tree corners then
    bounds the central negative region.
    """
    _require_spanning(trinity.graph_index("violet"), tree)
    ch = trinity.charts
    diagrams = {}
    for fid in trinity.red:
        chart = ch[fid]
        m = chart.points
        in_tree = []
        pairs = []
        for arc in range(m):
            corner = chart.emerald_corner[arc]
            if corner is None:
                continue
            if corner in tree.edges:
                in_tree.append(arc)
            else:
                pairs.append((arc, (arc + 1) % m))
        if not in_tree:
            raise NotSpanning(f"tree misses face {fid}")
        for k, arc in enumerate(in_tree):
            nxt = in_tree[(k + 1) % len(in_tree)]
            pairs.append(((arc + 1) % m, nxt))
        diagrams[fid] = ChordDiagram.from_pairs(chart.n, pairs)
    return Configuration.from_diagrams(trinity, diagrams)


def is_tree_hugging(config):
    """Tree-hugging test with witness reconstruction.

    A tight configuration hugs a tree iff every disc has at most one
    negative region of valence above one; the witness is rebuilt from the
    maximal-valence negative region of each disc and verified by
    reconstructing the configuration it hugs.
    """
    trinity = config.trinity
    if not is_tight(config).tight:
        raise NotTight("configuration is not tight")
    ch = trinity.charts
    edges = set()
    for fid, diagram in config.entries:
        found = disc_regions(trinity, fid, diagram)
        if not euler_and_hug(found)[1]:
            return False, None
        negatives = (arcs for sign, arcs in found if sign < 0)
        central = max(negatives, key=lambda arcs: (len(arcs), -arcs[0]))
        edges.update(map(ch[fid].emerald_corner.__getitem__, central))
    tree = SpanningTree(trinity.violet_graph, frozenset(edges))
    if tree_hugging(trinity, tree) != config:
        raise NoHugBack(f"witness {sorted(tree.edges)} hugs another configuration")
    return True, tree


def _require_spanning(index, tree):
    """Raise ``NotSpanning`` unless the tree spans the graph of this ``trees.GraphIndex``."""
    if not tree.edges <= index.edge_index.keys():
        raise NotSpanning("edges outside the host graph")
    if len(tree.edges) != len(index.vertex_ids) - 1:
        raise NotSpanning("wrong edge count for a spanning tree")
    # with |V| - 1 edges, a cycle is the same as a second component
    if len(set(components(index, map(index.edge_index.__getitem__, tree.edges)))) != 1:
        raise NotSpanning("edge set contains a cycle")
