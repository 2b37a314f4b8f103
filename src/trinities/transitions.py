"""Bypass moves and the configuration graph over tight configurations.

Two tight configurations are adjacent when they differ on exactly one face
disc; transitions confined to a single disc connect any two tight variants
of that disc, so this edge relation yields the same component partition as
explicit bypass surgery while avoiding attaching-arc bookkeeping. Bypass
moves themselves (re-matching three chords by rotating their six endpoints
one step around the hexagon) are generated for cross-checks only; the
valence-concentration walk scans ``dividing.enumerate_chord_diagrams``
instead.
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import getitem, itemgetter, mul, sub

from . import dividing
from .dividing import ChordDiagram, Configuration, NotTight
from .limits import check_cap


class EulerNotConstant(RuntimeError):
    """A component carries two distinct Euler vectors (model bug)."""


class NotTreeHuggingReachable(RuntimeError):
    """A component contains no tree-hugging configuration (model bug)."""


class BuiltNotTight(RuntimeError):
    """The builder produced a configuration that is not tight (model bug)."""


class NotBijective(RuntimeError):
    """Components do not biject onto the hypertrees of (E,R) (model bug)."""


class Stuck(RuntimeError):
    """No valence-increasing neighbour exists (firing falsifies the model)."""


# The three matchings of six points closed under the one-step rotation
# i -> i+1; a triple of chords admits a bypass exactly when its induced
# matching is one of these (the middle chord separates the other two).
_ROTATION_PATTERNS = (
    (5, 4, 3, 2, 1, 0),  # {05, 14, 23}
    (1, 0, 5, 4, 3, 2),  # {01, 25, 34}
    (3, 2, 1, 0, 5, 4),  # {03, 12, 45}
)


@dataclass(frozen=True)
class BypassMove:
    face: str | None
    points: tuple[int, ...]
    direction: int
    source: ChordDiagram = field(compare=False)
    target: ChordDiagram = field(compare=False)


def diagram_moves(diagram):
    """Every bypass move available on one diagram, duplicates included."""
    pairs = diagram.pairs()
    if len(pairs) < 3:
        return []
    moves = []
    for triple in itertools.combinations(pairs, 3):
        points = tuple(sorted(p for pair in triple for p in pair))
        local = {points.index(a): points.index(b) for a, b in triple}
        local.update({b: a for a, b in local.items()})
        induced = tuple(local[i] for i in range(6))
        if induced not in _ROTATION_PATTERNS:
            continue
        for step in (1, -1):
            # the induced matching turned by one step: point i goes to i + step
            turned = [(induced[(i - step) % 6] + step) % 6 for i in range(6)]
            new_pairs = [p for p in pairs if p not in triple]
            new_pairs += [(points[i], points[j]) for i, j in enumerate(turned) if i < j]
            if dividing.first_crossing(new_pairs) is None:
                target = ChordDiagram.from_pairs(diagram.n, new_pairs)
                moves.append(BypassMove(None, points, step, diagram, target))
    return moves


def bypass_moves(diagram):
    """Set of diagrams one bypass move away."""
    return {m.target for m in diagram_moves(diagram)}


def config_bypass_moves(config):
    """Bypass moves of a configuration, lifted face by face."""
    out = []
    for fid, diagram in config.entries:
        for move in diagram_moves(diagram):
            lifted = BypassMove(fid, move.points, move.direction, move.source, move.target)
            out.append((config.replace(fid, move.target), lifted))
    return out


# -- the configuration graph ----------------------------------------------------


@dataclass(frozen=True)
class Component:
    id: int
    members: tuple[int, ...]
    euler: dict
    hypertree: dict
    representative: int  # index of a tree-hugging vertex


@dataclass(frozen=True)
class ConfigurationGraph:
    """Tight configurations and the partition of their one-face graph.

    A vertex is its choice tuple: ``choices[i]`` holds, face by face in
    sorted order, the index of vertex i's diagram in that face's
    ``diagrams``, a sequence in ``enumerate_chord_diagrams`` order whose
    items are built when first read. ``vertex(i)`` builds its
    ``Configuration`` when read; building the graph makes one only for
    each component's representative, to check that it hugs a tree.
    """

    trinity: object = field(compare=False)
    diagrams: tuple = ()
    choices: tuple = ()
    component_of: tuple = ()
    components: tuple = ()
    total_configurations: int = 0

    def component_count(self):
        return len(self.components)

    def vertex(self, i):
        entries = zip(self.trinity.red, map(getitem, self.diagrams, self.choices[i]))
        return Configuration(self.trinity, tuple(entries))

    @cached_property
    def vertices(self):
        return tuple(map(self.vertex, range(len(self.choices))))

    @cached_property
    def edges(self):
        """Sorted index pairs of the vertices that differ on exactly one face.

        Built on first access: the components do not need them, and on
        large instances they far outnumber the vertices.
        """
        pairs = []
        for group in _one_face_groups(self.choices, tuple(map(len, self.diagrams))):
            pairs.extend(itertools.combinations(group, 2))
        return tuple(sorted(pairs))


def configuration_count(trinity):
    """Size of the Catalan product of the faces' chord diagrams.

    Raises ``CapExceeded`` for the first face with more chord diagrams than
    the trinity's cap, then for the product; nothing is enumerated. The cap
    bounds this product even though only its tight members are built.
    """
    total = 1
    for fid in sorted(trinity.red):
        diagrams = dividing.catalan(trinity.n_r[fid])
        check_cap(diagrams, trinity.cap, "chord diagram enumeration")
        total *= diagrams
    check_cap(total, trinity.cap, "configuration enumeration")
    return total


def build_configuration_graph(trinity):
    """All tight configurations, joined when they differ on one face.

    The tight configurations are built chord by chord, by walking the
    faces' chord tries, not filtered out of the Catalan product; faces of
    one half-length share one ``dividing.chord_trie``. Each one is checked
    with ``dividing.glued_loops`` on its chords, concatenated from per-face
    tables of offset partner tuples, made only for the diagrams some tight
    configuration uses. Vertices come in the product's order: lexicographic
    in ``choices``.
    """
    total = configuration_count(trinity)
    faces = trinity.red
    tries = {n: dividing.chord_trie(n) for n in set(trinity.n_r.values())}
    choices = tuple(_tight_choices(trinity, [tries[trinity.n_r[fid]][0] for fid in faces]))
    # past the walk only the partner tuples are read
    shared = {n: _Diagrams(partners) for n, (_trie, partners) in tries.items()}
    del tries
    diagrams = tuple(shared[trinity.n_r[fid]] for fid in faces)
    # per face, the diagram indices some tight configuration uses
    used = [set(map(itemgetter(axis), choices)) for axis in range(len(faces))]
    tables = []
    for fid, face_diagrams, keep in zip(faces, diagrams, used):
        lo = trinity.offset[fid]
        table = [None] * len(face_diagrams)
        for k in keep:
            table[k] = tuple(map(lo.__add__, face_diagrams.partners[k]))
        tables.append(table)
    glue, walk = trinity.glue, dividing.glued_loops
    for choice in choices:
        chord = []
        for table, k in zip(tables, choice):
            chord += table[k]
        loops = walk(chord, glue)
        if loops != 1:
            raise BuiltNotTight(
                f"diagrams {dict(zip(faces, choice))} close into {loops} curves"
            )

    parent = list(range(len(choices)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for group in _one_face_groups(choices, tuple(map(len, diagrams))):
        root = find(group[0])
        for i in group[1:]:
            r = find(i)
            if r != root:
                parent[r] = root

    # one pass in vertex order numbers components by their smallest member
    number = {}
    component_of = tuple(
        number.setdefault(find(i), len(number)) for i in range(len(choices))
    )
    graph = ConfigurationGraph(trinity, diagrams, choices, component_of, (), total)
    return replace(graph, components=_label_components(graph, len(number), used))


class _Diagrams(Sequence):
    """One half-length's chord diagrams in matcher order, each built when first read.

    Item k equals ``dividing.enumerate_chord_diagrams(n)[k]``, and like it
    is validated by ``ChordDiagram`` when built.
    """

    def __init__(self, partners):
        self.partners = partners
        self.built = [None] * len(partners)

    def __len__(self):
        return len(self.partners)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self.__getitem__, range(len(self))[k]))
        diagram = self.built[k]
        if diagram is None:
            diagram = self.built[k] = ChordDiagram(self.partners[k])
        return diagram

    def __eq__(self, other):
        return isinstance(other, _Diagrams) and self.partners == other.partners


def _chord_tries(trinity, tries):
    """The faces' chord tries in sorted face order, as one flat trie.

    Face f's part is ``tries[f]``, the trie of a ``dividing.chord_trie``,
    with its points offset by ``trinity.offset`` and its nodes by the sizes
    of the parts before it, so a leaf's child is the first node of the next
    face's part (past the end for the last face, whose leaves end the walk).
    """
    a, b, child, sibling, leaf = [], [], [], [], []
    for fid, (ta, tb, tchild, tsibling, tleaf) in zip(trinity.red, tries):
        lo, base = trinity.offset[fid], len(a)
        a += [lo + p for p in ta]
        b += [lo + q for q in tb]
        child += [base + x for x in tchild]
        sibling += [base + x if x >= 0 else -1 for x in tsibling]
        leaf += tleaf
    return a, b, child, sibling, leaf


def _tight_choices(trinity, tries):
    """Diagram index tuples of the tight configurations, in lexicographic order.

    Walks the faces' chord tries depth first on a copy of ``trinity.glue``,
    read as ``end``: ``end[p]`` is the far end of the open path ending at
    point p. A chord (p, q) joins the paths ending at p and q; when
    ``end[p] == q`` it would close a curve, and only the last chord may, so
    every leaf of the last face is a single curve. Per depth, ``node`` holds
    the chord applied there (else the next one to try) and ``far_p``,
    ``far_q`` the two path ends it joined.
    """
    a, b, child, sibling, leaf = _chord_tries(trinity, tries)
    end = list(trinity.glue)
    last = len(end) // 2 - 1
    face_at = [f for f, fid in enumerate(trinity.red) for _ in range(trinity.n_r[fid])]
    node = [0] * (last + 1)
    far_p = [0] * last
    far_q = [0] * last
    choice = [0] * len(trinity.red)
    depth = 0
    while depth >= 0:
        x = node[depth]
        if x < 0:
            depth -= 1
            if depth >= 0:
                x = node[depth]
                end[far_p[depth]] = a[x]
                end[far_q[depth]] = b[x]
                node[depth] = sibling[x]
            continue
        node[depth] = sibling[x]
        if depth == last:
            choice[-1] = leaf[x]
            yield tuple(choice)
            continue
        ep = end[a[x]]
        q = b[x]
        if ep == q:
            continue
        eq = end[q]
        end[ep] = eq
        end[eq] = ep
        far_p[depth] = ep
        far_q[depth] = eq
        if leaf[x] >= 0:
            choice[face_at[depth]] = leaf[x]
        node[depth] = x
        depth += 1
        node[depth] = child[x]


def _one_face_groups(choices, sizes):
    """Index groups of two or more choices equal off one axis, each in vertex order.

    A choice's key off axis a is its mixed-radix code, with radices
    ``sizes``, less its term for a: ``code - choice[a] * stride[a]``. Each
    group is listed under its first member, so a lone choice costs no list.
    """
    strides = [1] * len(sizes)
    for axis in range(len(sizes) - 1, 0, -1):
        strides[axis - 1] = strides[axis] * sizes[axis]
    # a machine word per code, not an int object: codes stay below the product
    codes = array("q", (sum(map(mul, choice, strides)) for choice in choices))
    for axis, stride in enumerate(strides):
        terms = map(mul, map(itemgetter(axis), choices), itertools.repeat(stride))
        first_of = {}
        groups = {}
        for idx, key in enumerate(map(sub, codes, terms)):
            first = first_of.setdefault(key, idx)
            if first == idx:
                continue
            if first in groups:
                groups[first].append(idx)
            else:
                groups[first] = [first, idx]
        yield from groups.values()


def _label_components(graph, count, used):
    """Each component's Euler vector, hypertree and tree-hugging representative.

    Once per (face, diagram index) that some vertex uses, listed per face
    in ``used``, ``dividing.disc_euler`` and ``dividing.disc_profile`` read
    the disc's Euler contribution and hug flag, both from one region pass.
    Every member's Euler tuple is compared. The representative is the
    first member, in vertex order, whose every disc hugs, and
    ``dividing.is_tree_hugging`` then checks it and rebuilds its witness.
    """
    trinity, diagrams, choices = graph.trinity, graph.diagrams, graph.choices
    faces = trinity.red
    members = [[] for _ in range(count)]
    for idx, c in enumerate(graph.component_of):
        members[c].append(idx)
    table = [[None] * len(d) for d in diagrams]
    hugs = [bytearray(len(d)) for d in diagrams]
    for axis, keep in enumerate(used):
        for k in keep:
            diagram = diagrams[axis][k]
            table[axis][k] = dividing.disc_euler(trinity, faces[axis], diagram)
            hugs[axis][k] = dividing.disc_profile(trinity, faces[axis], diagram)[1]

    def euler(choice):
        return tuple(map(getitem, table, choice))

    components = []
    for cid in range(count):
        first = euler(choices[members[cid][0]])
        if any(euler(choices[i]) != first for i in members[cid][1:]):
            raise EulerNotConstant(f"component {cid} mixes Euler vectors")
        hypertree = {}
        for fid, e in zip(faces, first):
            f2 = e + trinity.n_r[fid] - 1
            if f2 % 2:
                raise EulerNotConstant(f"odd Euler offset on face {fid}")
            hypertree[fid] = f2 // 2
        rep = next((i for i in members[cid] if all(map(getitem, hugs, choices[i]))), None)
        if rep is None or not dividing.is_tree_hugging(graph.vertex(rep))[0]:
            raise NotTreeHuggingReachable(f"component {cid} has no tree-hugging vertex")
        components.append(
            Component(cid, tuple(members[cid]), dict(zip(faces, first)), hypertree, rep)
        )
    return tuple(components)


# -- classification ----------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationReport:
    graph: ConfigurationGraph
    bijection_ok: bool

    def to_json(self):
        return {
            "components": [
                {
                    "id": c.id,
                    "size": len(c.members),
                    "euler": dict(sorted(c.euler.items())),
                    "hypertree": dict(sorted(c.hypertree.items())),
                    "tree_hugging_rep": self.graph.vertex(c.representative).to_json(),
                }
                for c in self.graph.components
            ],
            "bijection_ok": self.bijection_ok,
        }


def classify_components(config_graph):
    """Check that components biject onto the hypertrees of (E,R)."""
    expected = {h.vector for h in config_graph.trinity.hypertree_set("ER")}
    got = [tuple(sorted(c.hypertree.items())) for c in config_graph.components]
    ok = len(got) == len(set(got)) and set(got) == expected
    if not ok:
        raise NotBijective(
            f"components {sorted(set(got))} vs hypertrees {sorted(expected)}"
        )
    return ClassificationReport(config_graph, True)


# -- valence concentration -----------------------------------------------------------


def _max_negative_valence(trinity, face, diagram):
    sr = dividing.signed_regions(trinity, face, diagram)
    return max(r.valence for r in sr.negatives())


def valence_concentration_path(config):
    """Walk to a tree-hugging configuration through tight neighbours.

    Face by face, while a disc has two negative regions of valence above
    one, replace its diagram with a tight alternative of strictly larger
    maximum negative valence. Valence sums bound the walk, so it stops.
    """
    trinity = config.trinity
    if not dividing.is_tight(config).tight:
        raise NotTight("valence concentration starts from a tight configuration")
    path = [config]
    current = config
    for fid in sorted(trinity.red):
        while not dividing.signed_regions(trinity, fid, current.diagram(fid)).hugs():
            best = None
            top = _max_negative_valence(trinity, fid, current.diagram(fid))
            for alt in dividing.enumerate_chord_diagrams(trinity.n_r[fid], trinity.cap):
                if alt == current.diagram(fid):
                    continue
                if _max_negative_valence(trinity, fid, alt) <= top:
                    continue
                candidate = current.replace(fid, alt)
                if dividing.is_tight(candidate).tight:
                    best = candidate
                    break
            if best is None:
                raise Stuck(f"no valence-increasing tight move on face {fid}")
            current = best
            path.append(current)
    hugging, _ = dividing.is_tree_hugging(current)
    if not hugging:
        raise Stuck("concentration ended on a configuration that hugs no tree")
    return path
