"""The configuration graph over tight configurations, and its classification.

Two tight configurations are adjacent when they differ on exactly one face
disc; transitions confined to a single disc connect any two tight variants
of that disc, so this edge relation yields the same component partition as
explicit bypass surgery while avoiding attaching-arc bookkeeping.
"""

from __future__ import annotations

import itertools
from array import array
from functools import cached_property
from operator import getitem, itemgetter, mul, sub

from . import dividing, trees
from .dividing import ChordDiagram, Configuration
from .limits import check_cap


class EulerNotConstant(RuntimeError):
    """A component carries two distinct Euler vectors (model bug)."""


class NotTreeHuggingReachable(RuntimeError):
    """A component contains no tree-hugging configuration (model bug)."""


class BuiltNotTight(RuntimeError):
    """The builder produced a configuration that is not tight (model bug)."""


class NotBijective(RuntimeError):
    """Components do not biject onto the hypertrees of (E,R) (model bug)."""


# -- the configuration graph ----------------------------------------------------


class Component:
    __slots__ = ("id", "members", "euler", "hypertree", "representative")

    def __init__(
        self, id: int, members: tuple[int, ...], euler: dict, hypertree: dict, representative: int
    ):
        self.id = id
        self.members = members
        self.euler = euler
        self.hypertree = hypertree
        self.representative = representative  # index of a tree-hugging vertex

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.id, self.members, self.euler, self.hypertree, self.representative) == (
            other.id, other.members, other.euler, other.hypertree, other.representative
        )


class ConfigurationGraph:
    """Tight configurations and the partition of their one-face graph.

    A vertex is its choice tuple: ``choices[i]`` holds, face by face in
    sorted order, the index of vertex i's diagram in that face's
    ``diagrams``, the face's tuple of partner tuples in
    ``enumerate_chord_diagrams`` order. ``disc_euler`` holds, face by face,
    the Euler contribution of each diagram index some vertex uses.
    ``vertex(i)`` builds its ``Configuration`` and ``ChordDiagram``s when
    read; building the graph and ``vertex_json`` make none. Equal graphs
    agree on every field but ``trinity``.
    """

    def __init__(
        self,
        trinity,
        diagrams: tuple = (),
        choices: tuple = (),
        component_of: tuple = (),
        components: tuple = (),
        total_configurations: int = 0,
        disc_euler: tuple = (),
    ):
        self.trinity = trinity
        self.diagrams = diagrams
        self.choices = choices
        self.component_of = component_of
        self.components = components
        self.total_configurations = total_configurations
        self.disc_euler = disc_euler

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.diagrams,
            self.choices,
            self.component_of,
            self.components,
            self.total_configurations,
            self.disc_euler,
        ) == (
            other.diagrams,
            other.choices,
            other.component_of,
            other.components,
            other.total_configurations,
            other.disc_euler,
        )

    def component_count(self):
        return len(self.components)

    def vertex(self, i):
        diagrams = map(ChordDiagram, map(getitem, self.diagrams, self.choices[i]))
        return Configuration(self.trinity, tuple(zip(self.trinity.red, diagrams)))

    @cached_property
    def vertices(self):
        return tuple(map(self.vertex, range(len(self.choices))))

    @cached_property
    def corners(self):
        """Per face, the violet edge position of the emerald corner under
        each arc, -1 under a positive arc."""
        edge_index = self.trinity.graph_index("violet").edge_index
        corners = (self.trinity.charts[fid].emerald_corner for fid in self.trinity.red)
        return tuple(tuple(-1 if c is None else edge_index[c] for c in cs) for cs in corners)

    def vertex_json(self, i):
        """Vertex i's matchings and Euler vector, the latter read off ``disc_euler``."""
        faces, choice = self.trinity.red, self.choices[i]
        partners = map(getitem, self.diagrams, choice)
        return {
            "faces": {
                fid: {"matching": [[x, y] for x, y in enumerate(partner) if x < y]}
                for fid, partner in zip(faces, partners)
            },
            "euler": dict(zip(faces, map(getitem, self.disc_euler, choice))),
        }

    @cached_property
    def edges(self):
        """Sorted index pairs of the vertices that differ on exactly one face.

        Built on first access: the components do not need them, and on
        large instances they far outnumber the vertices.
        """
        pairs = []
        for keys in _one_face_keys(self.choices, tuple(map(len, self.diagrams))):
            groups = {}
            for i, key in enumerate(keys):
                groups.setdefault(key, []).append(i)
            for group in groups.values():
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
    one half-length share one ``dividing.chord_trie``. Per face, each
    diagram some tight configuration uses gets, from its partner tuple and
    with no ``ChordDiagram`` built, its partner tuple offset to the global
    point numbering and its Euler contribution and hug flag, read by
    ``dividing.euler_and_hug`` off one ``dividing.regions`` pass. Each
    tight configuration is checked with ``dividing.glued_loops`` on its
    chords, concatenated from the offset tuples. Vertices come in the
    product's order: lexicographic in ``choices``.
    """
    total = configuration_count(trinity)
    faces = trinity.red
    tries = {n: dividing.chord_trie(n) for n in set(trinity.n_r.values())}
    choices = tuple(_tight_choices(trinity, [tries[trinity.n_r[fid]][0] for fid in faces]))
    # past the walk only the partner tuples are read
    shared = {n: tuple(partners) for n, (_trie, partners) in tries.items()}
    del tries
    diagrams = tuple(shared[trinity.n_r[fid]] for fid in faces)
    tables, disc_euler, eulers, hugs = [], [], [], []
    for axis, fid in enumerate(faces):
        partners, lo, sign = diagrams[axis], trinity.offset[fid], trinity.charts[fid].sign
        table, euler_of, hug_of = {}, {}, {}
        column = list(map(itemgetter(axis), choices))
        for k in set(column):
            table[k] = tuple(map(lo.__add__, partners[k]))
            euler_of[k], hug_of[k] = dividing.euler_and_hug(dividing.regions(fid, partners[k], sign))
        tables.append(table)
        disc_euler.append(euler_of)
        eulers.append(map(euler_of.__getitem__, column))
        hugs.append(map(hug_of.__getitem__, column))
    glue, walk = trinity.glue, dividing.glued_loops
    for choice in choices:
        chord = []
        for table, k in zip(tables, choice):
            chord += table[k]
        loops = walk(chord, glue)
        if loops != 1:
            raise BuiltNotTight(f"diagrams {dict(zip(faces, choice))} close into {loops} curves")
    # union-find with path halving; the smaller root wins, so each root is
    # its component's smallest member and parents never exceed their children
    parent = list(range(len(choices)))
    for keys in _one_face_keys(choices, tuple(map(len, diagrams))):
        keys = list(keys)
        if len(set(keys)) == len(keys):
            continue  # no two vertices agree off this face: nothing to join
        first_of = {}
        for i, key in enumerate(keys):
            x, y = first_of.setdefault(key, i), i
            if x == y:
                continue
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            if x < y:
                parent[y] = x
            else:
                parent[x] = y
    # one pass in vertex order numbers components by their smallest member:
    # a parent's number is written before its children read it
    count = 0
    for i, p in enumerate(parent):
        if p == i:
            parent[i] = count
            count += 1
        else:
            parent[i] = parent[p]
    graph = ConfigurationGraph(
        trinity, diagrams, choices, tuple(parent), (), total, disc_euler=tuple(disc_euler)
    )
    # per vertex: its Euler tuple, and whether its every disc hugs
    euler, hugging = list(zip(*eulers)), list(map(all, zip(*hugs)))
    graph.components = _label_components(graph, count, euler, hugging)
    return graph


def _chord_tries(trinity, tries):
    """The faces' chord tries in sorted face order, as one flat trie.

    Face f's part is ``tries[f]``, the trie of a ``dividing.chord_trie``,
    with its points offset by ``trinity.offset`` and its nodes by the sizes
    of the parts before it, so a leaf's child is the first node of the next
    face's part (past the end for the last face, whose leaves are read off).
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
    ``end[p] == q`` it would close a curve, and only the last chord may.
    Its node is the only child of the second-to-last chord's, and it joins
    the two ends of the one path left, so the walk stops one chord short
    and reads it off. ``x`` is the next chord to try at ``depth``; per
    shallower depth, ``path`` holds the chord applied there and ``far_p``,
    ``far_q`` the two path ends it joined.
    """
    a, b, child, sibling, leaf = _chord_tries(trinity, tries)
    end = list(trinity.glue)
    last = len(end) // 2 - 2
    if last < 0:
        # a single chord, on a face of half-length one
        yield (leaf[0],)
        return
    face_at = [f for f, fid in enumerate(trinity.red) for _ in range(trinity.n_r[fid])]
    path, far_p, far_q = [0] * last, [0] * last, [0] * last
    choice = [0] * len(trinity.red)
    depth = x = 0
    while True:
        if x < 0:
            depth -= 1
            if depth < 0:
                return
            x = path[depth]
            end[far_p[depth]] = a[x]
            end[far_q[depth]] = b[x]
            x = sibling[x]
            continue
        ep = end[a[x]]
        q = b[x]
        if ep == q:
            x = sibling[x]
            continue
        if leaf[x] >= 0:
            choice[face_at[depth]] = leaf[x]
        if depth == last:
            choice[-1] = leaf[child[x]]
            yield tuple(choice)
            x = sibling[x]
            continue
        eq = end[q]
        end[ep] = eq
        end[eq] = ep
        far_p[depth] = ep
        far_q[depth] = eq
        path[depth] = x
        depth += 1
        x = child[x]


def _one_face_keys(choices, sizes):
    """Per axis, each choice's key off that axis, in vertex order.

    Two choices are equal off axis a exactly when their keys off a are: a
    choice's key off a is its mixed-radix code, with radices ``sizes``,
    less its term for a: ``code - choice[a] * stride[a]``.
    """
    strides = [1] * len(sizes)
    for axis in range(len(sizes) - 1, 0, -1):
        strides[axis - 1] = strides[axis] * sizes[axis]
    # a machine word per code, not an int object: codes stay below the product
    codes = array("q", (sum(map(mul, choice, strides)) for choice in choices))
    for axis, stride in enumerate(strides):
        yield map(sub, codes, map(mul, map(itemgetter(axis), choices), itertools.repeat(stride)))


def _label_components(graph, count, euler, hugging):
    """Each component's Euler vector, hypertree and tree-hugging representative.

    ``euler[i]`` is vertex i's Euler tuple and ``hugging[i]`` whether its
    every disc hugs. Every member's Euler tuple is compared. The
    representative, the first member in vertex order whose every disc
    hugs, is checked by ``_hugged_tree``, which rebuilds its witness.
    """
    faces, n_r = graph.trinity.red, graph.trinity.n_r
    # the region passes of the diagrams representatives use, per face; the
    # builder's table pass keeps none, since holding one per diagram used
    # (thousands of small lists on large faces) costs more in collections
    # than the few passes the representatives repeat
    regions = [{} for _ in faces]
    members = [[] for _ in range(count)]
    for idx, c in enumerate(graph.component_of):
        members[c].append(idx)
    components = []
    for cid, ids in enumerate(members):
        first = euler[ids[0]]
        if any(map(first.__ne__, map(euler.__getitem__, ids))):
            raise EulerNotConstant(f"component {cid} mixes Euler vectors")
        hypertree = {}
        for fid, e in zip(faces, first):
            f2 = e + n_r[fid] - 1
            if f2 % 2:
                raise EulerNotConstant(f"odd Euler offset on face {fid}")
            hypertree[fid] = f2 // 2
        rep = next(itertools.compress(ids, map(hugging.__getitem__, ids)), None)
        if rep is None or not _hugged_tree(graph, regions, rep)[0]:
            raise NotTreeHuggingReachable(f"component {cid} has no tree-hugging vertex")
        components.append(Component(cid, tuple(ids), dict(zip(faces, first)), hypertree, rep))
    return tuple(components)


def _hugged_tree(graph, regions, i):
    """``dividing.is_tree_hugging`` on vertex i's region passes, on integers.

    ``regions[axis]`` caches, by diagram index, the ``dividing.regions``
    passes on that face; a missing one is made and kept. The verdict is
    the disc hug rule of ``dividing.euler_and_hug``; the witness, as violet
    edge positions, is the emerald corners of each disc's central negative
    region, chosen as ``is_tree_hugging`` chooses it. Raises
    ``dividing.NotSpanning`` unless the witness spans the violet graph,
    and ``dividing.NoHugBack`` unless every disc's diagram is the one
    ``_hugging_partner`` rebuilds from the witness.
    """
    trinity, choice = graph.trinity, graph.choices[i]
    index = trinity.graph_index("violet")
    witness = set()
    rows = zip(trinity.red, graph.corners, graph.diagrams, regions, choice)
    for fid, corner, partners, cache, k in rows:
        found = cache.get(k)
        if found is None:
            found = cache[k] = dividing.regions(fid, partners[k], trinity.charts[fid].sign)
        if not dividing.euler_and_hug(found)[1]:
            return False, None
        negatives = (arcs for sign, arcs in found if sign < 0)
        central = max(negatives, key=lambda arcs: (len(arcs), -arcs[0]))
        witness.update(map(corner.__getitem__, central))
    if len(witness) != len(index.vertex_ids) - 1:
        raise dividing.NotSpanning("wrong edge count for a spanning tree")
    # with |V| - 1 edges, a cycle is the same as a second component
    if len(set(trees.components(index, witness))) != 1:
        raise dividing.NotSpanning("edge set contains a cycle")
    for corner, partners, k in zip(graph.corners, graph.diagrams, choice):
        if _hugging_partner(corner, witness) != partners[k]:
            edges = sorted(map(index.edge_ids.__getitem__, witness))
            raise dividing.NoHugBack(f"witness {edges} hugs another configuration")
    return True, witness


def _hugging_partner(corner, tree):
    """The partner tuple ``dividing.tree_hugging`` gives a disc, on integers.

    ``corner`` is the violet edge position under each arc, -1 under a
    positive arc, and ``tree`` a set of edge positions. A minimal chord cuts
    off each negative arc whose corner is outside the tree; one chord per
    gap between consecutive in-tree corners bounds the central region.
    """
    m = len(corner)
    partner = [-1] * m
    in_tree = []
    for arc, c in enumerate(corner):
        if c < 0:
            continue
        if c in tree:
            in_tree.append(arc)
        else:
            partner[arc], partner[(arc + 1) % m] = (arc + 1) % m, arc
    for arc, nxt in zip(in_tree, in_tree[1:] + in_tree[:1]):
        partner[(arc + 1) % m], partner[nxt] = nxt, (arc + 1) % m
    return tuple(partner)


# -- classification ----------------------------------------------------------------


def classify_components(config_graph):
    """Raise ``NotBijective`` unless the components biject onto the hypertrees of (E,R)."""
    expected = {h.vector for h in config_graph.trinity.hypertree_set("ER")}
    got = [tuple(sorted(c.hypertree.items())) for c in config_graph.components]
    if len(got) != len(set(got)) or set(got) != expected:
        raise NotBijective(f"components {sorted(set(got))} vs hypertrees {sorted(expected)}")


def classification_json(config_graph):
    """The ``classify`` report: each component with its tree-hugging representative."""
    return {
        "components": [
            {
                "id": c.id,
                "size": len(c.members),
                "euler": dict(sorted(c.euler.items())),
                "hypertree": dict(sorted(c.hypertree.items())),
                "tree_hugging_rep": config_graph.vertex_json(c.representative),
            }
            for c in config_graph.components
        ],
    }
