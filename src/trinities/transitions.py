"""The configuration graph over tight configurations, and its classification.

Two tight configurations are adjacent when they differ on exactly one face
disc; transitions confined to a single disc connect any two tight variants
of that disc, so this edge relation yields the same component partition as
explicit bypass surgery while avoiding attaching-arc bookkeeping.
"""

from __future__ import annotations

import collections
import itertools
from array import array
from functools import cached_property
from operator import and_, getitem, itemgetter, mul, ne, sub

from . import dividing, trees
from .dividing import ChordDiagram, Configuration
from .limits import ModelFailure, check_cap


class EulerNotConstant(ModelFailure):
    """A component carries two distinct Euler vectors (model bug)."""


class NotTreeHuggingReachable(ModelFailure):
    """A component contains no tree-hugging configuration (model bug)."""


class BuiltNotTight(ModelFailure):
    """The builder produced a configuration that is not tight (model bug)."""


class NotBijective(ModelFailure):
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


class ConfigurationGraph:
    """Tight configurations and the partition of their one-face graph.

    A vertex is its choice tuple: ``choices[i]`` holds, face by face in
    sorted order, the index of vertex i's diagram in that face's
    ``diagrams``, the face's tuple of partner tuples in
    ``enumerate_chord_diagrams`` order. ``disc_euler`` holds, face by face,
    the Euler contribution of each diagram index some vertex uses.
    ``codes`` holds each vertex's mixed-radix code, with radices the faces'
    diagram counts, as the walk gave it. ``vertex(i)`` builds its
    ``Configuration`` and ``ChordDiagram``s when read; building the graph
    and ``vertex_json`` make none.
    """

    def __init__(
        self,
        trinity,
        diagrams: tuple,
        choices: tuple,
        component_of: tuple,
        components: tuple,
        total_configurations: int,
        disc_euler: tuple,
        codes: array,
    ):
        self.trinity = trinity
        self.diagrams = diagrams
        self.choices = choices
        self.component_of = component_of
        self.components = components
        self.total_configurations = total_configurations
        self.disc_euler = disc_euler
        self.codes = codes

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
        strides = _strides(tuple(map(len, self.diagrams)))
        for axis, stride in enumerate(strides):
            groups = {}
            for i, key in enumerate(_face_keys(self.codes, self.choices, stride, axis)):
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
    one half-length share one ``dividing.chord_trie``. The walk gives each
    vertex's choice tuple and its mixed-radix code. Vertices come in the
    product's order: lexicographic in ``choices``.

    The big face is the face with the most diagrams, ties to the last.
    Vertices that agree off it form a group. Per group, ``_group_matches``
    writes the other faces' chords once and follows them from each
    big-face point back to the big face: a curve closed off it is a
    non-tight group, and each member is checked by ``dividing.glued_loops``
    on its big-face partner tuple and the matching they induce there. The
    union-find starts from each vertex's group's first member, so only
    the other faces' keys enter its loop. Per face, each diagram some
    vertex uses gets its Euler contribution and hug flag, read by
    ``dividing.euler_and_hug`` off one ``dividing.regions`` pass; Euler
    constancy on components is checked face by face.
    """
    total = configuration_count(trinity)
    faces = trinity.red
    tries = {n: dividing.chord_trie(n) for n in set(trinity.n_r.values())}
    # past the walk only the partner tuples are read
    shared = {n: tuple(partners) for n, (_trie, partners) in tries.items()}
    diagrams = tuple(shared[trinity.n_r[fid]] for fid in faces)
    strides = _strides(tuple(map(len, diagrams)))
    choices, codes = _tight_choices(trinity, [tries[trinity.n_r[fid]][0] for fid in faces], strides)
    del tries, shared
    big = max(range(len(faces)), key=lambda axis: (len(diagrams[axis]), axis))
    # a group is named by its first member, where its members' parents start
    keys = array("q", _face_keys(codes, choices, strides[big], big))
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    parent = list(map(first.__getitem__, keys))
    del keys
    # each group's first member, key and choice tuple
    firsts, group_keys = list(first.values()), list(first)
    heads = list(map(choices.__getitem__, firsts))
    match_of = dict(zip(firsts, _group_matches(trinity, diagrams, heads, big)))
    partners, walk = diagrams[big], dividing.glued_loops
    for choice, g in zip(choices, parent):
        loops = walk(partners[choice[big]], match_of[g])
        if loops != 1:
            raise BuiltNotTight(f"diagrams {dict(zip(faces, choice))} close into {loops} curves")
    # per face, the Euler contribution and hug flag of each diagram used;
    # off the big face a group's first member stands for its members
    column = list(map(itemgetter(big), choices))
    disc_euler, group_hug = [], [1] * len(heads)
    for axis, fid in enumerate(faces):
        indices = column if axis == big else list(map(itemgetter(axis), heads))
        partners, sign = diagrams[axis], trinity.charts[fid].sign
        euler_of, hug_of = {}, {}
        for k in set(indices):
            euler_of[k], hug_of[k] = dividing.euler_and_hug(dividing.regions(fid, partners[k], sign))
        disc_euler.append(euler_of)
        if axis == big:
            big_hug = hug_of
        else:
            group_hug = list(map(and_, group_hug, map(hug_of.__getitem__, indices)))
    # per vertex, 1 when its every disc hugs
    hug_of_group = dict(zip(firsts, group_hug))
    hugging = bytes(map(and_, map(hug_of_group.__getitem__, parent), map(big_hug.__getitem__, column)))
    # two vertices agree off another face when they share a big-face
    # diagram and their groups agree off that face: a face joins nothing
    # when the groups that agree off it use disjoint big-face diagrams
    big_used = {g: set() for g in firsts}
    for g, k in zip(parent, column):
        big_used[g].add(k)
    for axis, stride in enumerate(strides):
        if axis == big:
            continue
        keys = list(_face_keys(group_keys, heads, stride, axis))
        sharers = collections.Counter(keys)
        buckets = {}
        # only the groups whose key off this face another group shares
        shared_keys = map((1).__lt__, map(sharers.__getitem__, keys))
        for g, key in itertools.compress(zip(firsts, keys), shared_keys):
            buckets.setdefault(key, []).append(big_used[g])
        if any(len(set().union(*sets)) < sum(map(len, sets)) for sets in buckets.values()):
            _join(parent, list(_face_keys(codes, choices, stride, axis)))
    del big_used
    # one pass in vertex order numbers components by their smallest member:
    # a parent's number is written before its children read it
    leaders = []
    for i, p in enumerate(parent):
        if p == i:
            parent[i] = len(leaders)
            leaders.append(choices[i])
        else:
            parent[i] = parent[p]
    count = len(leaders)
    # per face, each member's Euler contribution is its component's first
    # member's; off the big face a group's members share their first's
    group_component = list(map(parent.__getitem__, firsts))
    for axis, euler_of in enumerate(disc_euler):
        lead = list(map(euler_of.__getitem__, map(itemgetter(axis), leaders)))
        if axis == big:
            members, ks = parent, column
        else:
            members, ks = group_component, map(itemgetter(axis), heads)
        differs = list(map(ne, map(lead.__getitem__, members), map(euler_of.__getitem__, ks)))
        if any(differs):
            mixed = min(itertools.compress(members, differs))
            raise EulerNotConstant(f"component {mixed} mixes Euler vectors")
    del column
    graph = ConfigurationGraph(
        trinity, diagrams, choices, tuple(parent), (), total, tuple(disc_euler), codes
    )
    graph.components = _label_components(graph, count, hugging)
    return graph


def _join(parent, keys):
    """Join each vertex to the first vertex with its key, in ``parent``.

    Union-find with path halving; the smaller root wins, so each root is
    its component's smallest member and parents never exceed their children.
    """
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


def _group_matches(trinity, diagrams, heads, big):
    """Per group, given by its first member's choice tuple in ``heads``,
    the matching its chords induce on the big face.

    Each group's chords off the big face are laid end to end once into
    one chord array, over the global point numbering, with the big face's
    points left 0. The path from each big-face point runs along glued
    pairs and those chords until it returns to the big face, and pairs
    the two big-face points it joins. When the paths cross fewer chords
    than lie off the big face, the others close a curve there and the
    group is not tight: ``BuiltNotTight`` names its first member with its
    curve count, from one ``dividing.glued_loops`` over all its chords.
    """
    faces, offset, glue = trinity.red, trinity.offset, trinity.glue
    lo, m = offset[faces[big]], 2 * trinity.n_r[faces[big]]
    # per face, each diagram's partner tuple shifted to the global numbering;
    # the big face's points stay 0
    shifted = [
        [(0,) * m] * len(partners) if axis == big else [tuple(map(at.__add__, p)) for p in partners]
        for axis, (at, partners) in enumerate(zip(map(offset.__getitem__, faces), diagrams))
    ]
    on_big = bytearray(len(glue))
    on_big[lo:lo + m] = b"\x01" * m
    matches = []
    for choice in heads:
        chord = list(itertools.chain.from_iterable(map(getitem, shifted, choice)))
        match = [-1] * m
        crossed = 0
        for i in range(m):
            if match[i] < 0:
                p = glue[lo + i]
                while not on_big[p]:
                    p = glue[chord[p]]
                    crossed += 1
                match[i], match[p - lo] = p - lo, i
        if 2 * crossed != len(glue) - m:
            chord[lo:lo + m] = map(lo.__add__, diagrams[big][choice[big]])
            loops = dividing.glued_loops(chord, glue)
            raise BuiltNotTight(f"diagrams {dict(zip(faces, choice))} close into {loops} curves")
        matches.append(match)
    return matches


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


def _tight_choices(trinity, tries, strides):
    """Diagram index tuples of the tight configurations, in lexicographic
    order, and their mixed-radix codes, with radices the faces' diagram
    counts and place values ``strides``, in an ``array('q')``.

    Walks the faces' chord tries depth first on a copy of ``trinity.glue``,
    read as ``end``: ``end[p]`` is the far end of the open path ending at
    point p. A chord (p, q) joins the paths ending at p and q; when
    ``end[p] == q`` it would close a curve, and only the last chord may.
    Its node is the only child of the second-to-last chord's, and it joins
    the two ends of the one path left, so the walk stops one chord short
    and reads it off. ``x`` is the next chord to try at ``depth``; per
    shallower depth, ``path`` holds the chord applied there and ``far_p``,
    ``far_q`` the two path ends it joined. ``prefix[f]`` is the code of
    the faces before face f, set as each face's last chord is placed.
    """
    a, b, child, sibling, leaf = _chord_tries(trinity, tries)
    end = list(trinity.glue)
    last = len(end) // 2 - 2
    if last < 0:
        # a single chord, on a face of half-length one
        return ((leaf[0],),), array("q", leaf[:1])
    # a machine word per code, not an int object: codes stay below the product
    out, codes = [], array("q")
    face_at = [f for f, fid in enumerate(trinity.red) for _ in range(trinity.n_r[fid])]
    path, far_p, far_q = [0] * last, [0] * last, [0] * last
    choice = [0] * len(trinity.red)
    prefix = [0] * len(trinity.red)
    depth = x = 0
    while True:
        if x < 0:
            depth -= 1
            if depth < 0:
                return tuple(out), codes
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
            f = face_at[depth]
            choice[f] = leaf[x]
            prefix[f + 1] = prefix[f] + leaf[x] * strides[f]
        if depth == last:
            # the last face's place value is 1
            k = choice[-1] = leaf[child[x]]
            out.append(tuple(choice))
            codes.append(prefix[-1] + k)
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


def _strides(sizes):
    """Place values of the mixed-radix codes with radices ``sizes``."""
    strides = [1] * len(sizes)
    for axis in range(len(sizes) - 1, 0, -1):
        strides[axis - 1] = strides[axis] * sizes[axis]
    return strides


def _face_keys(codes, choices, stride, axis):
    """Each choice's key off ``axis``, in vertex order.

    Two choices are equal off the axis exactly when their keys are: a
    choice's key is its mixed-radix code less its term for the axis,
    ``code - choice[axis] * stride``.
    """
    return map(sub, codes, map(mul, map(itemgetter(axis), choices), itertools.repeat(stride)))


def _label_components(graph, count, hugging):
    """Each component's Euler vector, hypertree and tree-hugging representative.

    ``hugging[i]`` is 1 when vertex i's every disc hugs. The Euler vector
    is the first member's, read off ``disc_euler``; the builder has checked
    that every member's is the same. The representative, the first member
    in vertex order whose every disc hugs, is checked by ``_hugged_tree``,
    which rebuilds its witness.
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
        first = tuple(map(getitem, graph.disc_euler, graph.choices[ids[0]]))
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
