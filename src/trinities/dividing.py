"""Dividing sets on face discs as non-crossing chord diagrams.

Each face of half-length n carries 2n boundary points, one per boundary
edge incidence, numbered in face-trace order. The boundary arc between
consecutive points runs past the vertex separating the two edges; arcs at
violet vertices are positive, arcs at emerald vertices negative (the discs
are oriented by the projection plane, so flipping this convention negates
every Euler class). A diagram is its partner tuple: point p is joined to
point ``partner[p]``. A configuration chooses one diagram per face, and is
the tuple of their partner tuples in ``trinity.red`` order; it is tight
exactly when joining the two points of every edge glues all chords into a
single closed curve.
"""

from __future__ import annotations

from . import trees
from .limits import DEFAULT_CAP, InputError, ModelFailure, check_cap


class NotSpanning(ModelFailure):
    """The edge set is not a spanning tree of the violet graph."""


class NotTight(InputError):
    """Operation defined only for tight configurations."""


class MixedRegion(ModelFailure):
    """A complementary region's boundary arcs differ in sign (model bug)."""


class NoHugBack(ModelFailure):
    """A tree-hugging witness hugs another configuration (model bug)."""


def catalan(n):
    c = 1
    for i in range(n):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


def enumerate_chord_diagrams(n, cap=DEFAULT_CAP):
    """All Catalan(n) non-crossing perfect matchings of 2n points, as sorted partner tuples."""
    if n < 1:
        raise InputError("need n >= 1")
    check_cap(catalan(n), cap, "chord diagram enumeration")
    return chord_trie(n)[1]


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


# -- configurations --------------------------------------------------------------


class TightVerdict:
    __slots__ = ("tight", "loops")

    def __init__(self, tight: bool, loops: int):
        self.tight = tight
        self.loops = loops


def loop_count(trinity, partners):
    """Closed curves obtained by gluing chord endpoints across graph edges."""
    chord = [0] * len(trinity.glue)
    for fid, partner in zip(trinity.red, partners):
        lo = trinity.offset[fid]
        chord[lo:lo + len(partner)] = [lo + j for j in partner]
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


def is_tight(trinity, partners):
    loops = loop_count(trinity, partners)
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


def euler_vector(trinity, partners):
    """Each disc's Euler contribution, as a tuple in ``trinity.red`` order."""
    return tuple(
        euler_and_hug(regions(fid, partner, trinity.signs[fid]))[0]
        for fid, partner in zip(trinity.red, partners)
    )


# -- tree-hugging configurations -------------------------------------------------------


def tree_hugging(trinity, tree):
    """Configuration hugging a spanning tree of the violet graph, given by
    its edge positions.

    On each disc, emerald corners outside the tree are cut off by minimal
    chords; one chord per gap between consecutive in-tree corners then
    bounds the central negative region.
    """
    tree = set(tree)
    index = trinity.graph_index("violet")
    if not tree <= set(range(len(index.edge_ids))):
        raise NotSpanning("edges outside the host graph")
    require_spanning(index, tree)
    partners = []
    for fid in trinity.red:
        chart = trinity.charts[fid]
        m = len(chart)
        partner = [-1] * m
        in_tree = []
        for arc, corner in enumerate(chart):
            if corner < 0:
                continue
            if corner in tree:
                in_tree.append(arc)
            else:
                partner[arc], partner[(arc + 1) % m] = (arc + 1) % m, arc
        for k, arc in enumerate(in_tree):
            a, b = (arc + 1) % m, in_tree[(k + 1) % len(in_tree)]
            partner[a], partner[b] = b, a
        partners.append(tuple(partner))
    return tuple(partners)


def is_tree_hugging(trinity, partners):
    """Tree-hugging test with witness reconstruction.

    A tight configuration hugs a tree iff every disc has at most one
    negative region of valence above one; the witness, the rising tuple of
    its violet edge positions, is rebuilt from the maximal-valence negative
    region of each disc and verified by reconstructing the configuration
    it hugs.
    """
    if not is_tight(trinity, partners).tight:
        raise NotTight("configuration is not tight")
    edges = set()
    for fid, partner in zip(trinity.red, partners):
        found = regions(fid, partner, trinity.signs[fid])
        if not euler_and_hug(found)[1]:
            return False, None
        negatives = (arcs for sign, arcs in found if sign < 0)
        central = max(negatives, key=lambda arcs: (len(arcs), -arcs[0]))
        edges.update(map(trinity.charts[fid].__getitem__, central))
    tree = tuple(sorted(edges))
    if tree_hugging(trinity, tree) != tuple(partners):
        ids = trinity.graph_index("violet").edge_ids
        raise NoHugBack(f"witness {[ids[e] for e in tree]} hugs another configuration")
    return True, tree


def require_spanning(index, edges):
    """Raise ``NotSpanning`` unless this set of edge positions, all in the
    ``trees.GraphIndex``, spans it as a tree."""
    if len(edges) != len(index.vertex_ids) - 1:
        raise NotSpanning("wrong edge count for a spanning tree")
    # with |V| - 1 edges, a cycle is the same as a second component
    if len(set(trees.components(index, edges))) != 1:
        raise NotSpanning("edge set contains a cycle")
