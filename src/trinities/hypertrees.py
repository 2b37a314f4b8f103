"""Hypergraphs of a trinity and their hypertrees.

A trinity carries six hypergraphs: for each unordered pair of colour
classes, either class may serve as the hyperedge set, with the matching
colour graph as incidence structure. A hypertree is a non-negative vector
indexed by hyperedges that occurs as (degree - 1) of some spanning tree at
the hyperedge nodes. Hypertree sets are produced by exhaustive realization
over spanning trees rather than by polytope inequalities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .limits import DEFAULT_CAP
from .trees import enumerate_spanning_trees


class WrongClass(ValueError):
    """The tree does not span a graph with the requested hyperedge class."""


class IndexMismatch(ValueError):
    """The two hypertree sets are not indexed by the same hyperedges."""


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
    """Deduplicated hypertree set with one witness tree per vector.

    Witnesses keep the first realizing tree in canonical enumeration order.
    Each edge of the host graph is mapped once to the slot of its endpoint
    in the hyperedge class (the host is bipartite, so there is exactly
    one), and each tree's record is counted into those slots;
    ``hypertree_of`` is the single-tree reference.
    """
    bip, colour = hypergraph.bip, hypergraph.hyperedge_colour
    classes = bip.colour_classes
    if colour not in classes:
        raise WrongClass(f"host graph has no {colour!r} class")
    ids = classes[colour]  # sorted, as in every vector
    slot = {h: i for i, h in enumerate(ids)}
    slot_of_edge = {}
    for eid in bip.edges:
        for v in bip.endpoints(eid):
            if v in slot:
                slot_of_edge[eid] = slot[v]
    found = {}
    for tree in enumerate_spanning_trees(bip, record_colour=colour, cap=cap):
        counts = [-1] * len(ids)
        for eid in tree.edges:
            counts[slot_of_edge[eid]] += 1
        key = tuple(counts)
        if key not in found:
            found[key] = tree
    return tuple(
        Hypertree(tuple(zip(ids, key)), found[key]) for key in sorted(found)
    )


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
