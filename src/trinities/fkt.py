"""Universes, states and the clock graph.

A universe is a connected 4-regular plane graph with two adjacent starred
faces. Quadrant k at a vertex lies between rotation darts k and k+1
(counterclockwise) and belongs to the face on the left of dart k. A state
places one marker per vertex so that unstarred faces are covered exactly
once. A clockwise transposition retreats the markers of two vertices one
quadrant clockwise so that their faces swap; the direction convention is
pinned by a regression fixture, since only its consistency matters here.

Faces are numbered once per universe, and each vertex, in id order, keeps
the face indices of its four quadrants. A state is its code, the base-4
number of its choices with vertex 0 most significant, so code order is
lexicographic; functions here take and return codes, and ``markers`` is
the one decoder. The one move rule is the universe's swap table, giving
the code delta of each clockwise move; counterclockwise moves are clockwise
moves read backwards. One search yields the states in blocks, a prefix's
code and moves with the leaves below it, and drops a branch once it
places a face's last vertex with the face unmarked. Where it pays
(``Universe.cut``), each subtree below the middle vertex is walked once
per key of what it reads of the prefix, and every prefix with that key
shares the one list of leaves. The clock report is decided per block,
from each key's moves below the cut and the graph of blocks, without
listing the arcs. What blocks cannot decide, and a universe without a
cut, falls back to one flat out-list of arcs (per-state offsets into one
list of target indices), which ``clock_report`` checks exactly.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from functools import cached_property
from operator import add, eq, itemgetter

from . import plane_graph, transitions, trinity as trinity_mod
from .limits import DEFAULT_CAP, InputError, ModelFailure, check_cap
from .plane_graph import RotationGraph, parse_graph, planar_dual, two_colouring, with_colours


class NotFourRegular(InputError):
    """Universes must be 4-regular."""


class StarsNotAdjacent(InputError):
    """The two starred faces must share an edge."""


class CountMismatch(InputError):
    """Vertex count must equal the number of unstarred faces."""


class MappingFailure(ModelFailure):
    """The state-to-configuration correspondence failed (model bug)."""


class MoveLeavesStates(ModelFailure):
    """A clockwise move must lead to a listed state (model bug otherwise)."""


class Universe:
    """A universe graph and its two starred faces."""

    def __init__(self, graph: RotationGraph, stars: tuple[str, str]):
        self.graph = graph
        self.stars = stars

    @cached_property
    def vertex_ids(self):
        return tuple(sorted(self.graph.vertices))

    @cached_property
    def face_index(self):
        """{face id: its index}, faces sorted."""
        return {f: i for i, f in enumerate(sorted(self.graph.faces))}

    @cached_property
    def quadrants(self):
        """Per vertex in id order, the face indices of its quadrants 0..3,
        traced once per universe."""
        index = self.face_index
        return tuple(
            tuple(index[quadrant_face(self.graph, v, k)] for k in range(4))
            for v in self.vertex_ids
        )

    @cached_property
    def swaps(self):
        """Per vertex j and quadrant kj, the (i, ki, code delta) of each earlier
        vertex i whose marker in quadrant ki swaps clockwise with j's marker in
        kj: both retreat one quadrant and their faces swap."""
        quads = self.quadrants
        n = len(quads)
        pairs = defaultdict(list)  # (face of quadrant k - 1, face of quadrant k) -> [(i, k)]
        for i, q in enumerate(quads):
            for k in range(4):
                pairs[q[k - 1], q[k]].append((i, k))
        step = [[(3 if k == 0 else -1) << 2 * (n - 1 - i) for k in range(4)] for i in range(n)]
        return tuple(
            tuple(
                tuple((i, ki, step[i][ki] + dj) for i, ki in pairs[q[kj], q[kj - 1]] if i < j)
                for kj, dj in enumerate(step[j])
            )
            for j, q in enumerate(quads)
        )

    @cached_property
    def cut(self):
        """The search's memo cut ``(m, faces, reads)`` at m = n // 2, or None.

        Below vertex m the search reads only the used bits of ``faces``, the
        unstarred faces with quadrants on both sides of m, and the choices
        at ``reads``, the vertices below m that the swap table at vertices
        m and up looks at. Memoizing pays only if these keys are fewer than
        the prefixes: 2^|faces| * 4^|reads| < 4^m.
        """
        quads, n = self.quadrants, len(self.quadrants)
        m = n // 2
        starred = {self.face_index[f] for f in self.stars}
        faces = sorted(set().union(*quads[:m]) & set().union(*quads[m:]) - starred)
        partners = {i for row in self.swaps[m:] for pairs in row for i, _k, _d in pairs}
        reads = sorted(i for i in partners if i < m)
        if len(faces) + 2 * len(reads) >= 2 * m:
            return None
        return m, tuple(faces), tuple(reads)


def parse_universe(document):
    """Validate a universe document: graph schema plus a ``stars`` pair."""
    if not isinstance(document, dict) or "stars" not in document:
        raise plane_graph.SchemaError("universe document needs a 'stars' field")
    graph = parse_graph({k: v for k, v in document.items() if k != "stars"})
    stars = document["stars"]
    if not isinstance(stars, list) or not all(isinstance(s, str) for s in stars):
        raise plane_graph.SchemaError(f"stars must be a list of two face ids, not {stars!r}")
    stars = tuple(stars)
    if len(stars) != 2 or len(set(stars)) != 2:
        raise plane_graph.SchemaError("stars must name two distinct faces")
    for v in graph.vertices.values():
        if len(v.rotation) != 4:
            raise NotFourRegular(f"vertex {v.id!r} has degree {len(v.rotation)}")
    if any(s not in graph.faces for s in stars):
        raise plane_graph.SchemaError(f"stars {stars} are not faces")
    adjacent = any(
        {graph.face_of(a), graph.face_of(b)} == set(stars)
        for a, b in (graph.edges[e].darts for e in graph.edges)
    )
    if not adjacent:
        raise StarsNotAdjacent(f"faces {stars} share no edge")
    if len(graph.vertices) != len(graph.faces) - 2:
        raise CountMismatch(
            f"{len(graph.vertices)} vertices vs {len(graph.faces) - 2} unstarred faces"
        )
    return Universe(graph, stars)


# -- states ---------------------------------------------------------------------


def quadrant_face(graph, v, k):
    """Face containing quadrant k of vertex v."""
    return graph.face_of(graph.vertices[v].rotation[k])


def enumerate_states(universe, cap=DEFAULT_CAP):
    """The codes of all marker assignments covering each unstarred face
    exactly once, rising."""
    return tuple(head | low for head, _moves, leaves in _search(universe, cap) for low, _tail in leaves)


# each byte's four quadrant digits, most significant first
_BYTE_DIGITS = tuple(itertools.product(range(4), repeat=4))


def markers(universe, code):
    """``{vertex id: its marker's quadrant}`` of a state code, ids in order."""
    verts = universe.vertex_ids
    size = (len(verts) + 3) // 4
    digits = sum(map(_BYTE_DIGITS.__getitem__, code.to_bytes(size, "big")), ())
    return dict(zip(verts, digits[4 * size - len(verts):]))


_ONE_STATE = ((0, ()),)  # the leaves of each block of a search without a cut


def _search(universe, cap):
    """The states in memo blocks ``(head, moves, leaves)``, codes rising.

    A block holds the states below one prefix: their codes are ``head |
    low`` for each ``(low, tail)`` in ``leaves``, and each one's clockwise
    moves, as code deltas, are the prefix's ``moves`` and then its ``tail``.
    Depth-first over the vertices, trying quadrants 0..3 at each, with
    explicit arrays instead of recursion; a move is recorded when the later
    vertex of its pair is placed, and no state lies below a dropped branch.
    With a ``universe.cut`` at vertex m, the prefix is the choices below m
    and the subtree below m is walked once per key (the used bits of the
    cut's faces and the choices at its reads): the first walk records each
    leaf's code digits from m on with the moves found from m on, and every
    prefix with that key shares that one list. A prefix with no states
    yields no block. Without a cut each state is a block of one leaf,
    ``((0, ()),)``.
    """
    quads, swaps = universe.quadrants, universe.swaps
    n = len(quads)
    check_cap(4**n, cap, "state search space")
    used = bytearray(len(universe.face_index))
    for f in universe.stars:
        used[universe.face_index[f]] = 1
    closing = [[] for _ in range(n)]  # the unstarred faces whose last vertex is i
    for f, i in {f: i for i, q in enumerate(quads) for f in q if not used[f]}.items():
        closing[i].append(f)
    choice = [-1] * n  # -1 before vertex i's first try on this branch
    code = [0] * (n + 1)  # code[i]: the code of the choices at vertices below i
    marks = [0] * n  # len(moves) before vertex i was placed
    moves = []
    m, faces, reads = universe.cut or (n, (), ())  # no cut: split past the last vertex
    shift = 2 * (n - m)
    low = (1 << shift) - 1
    memo = {}  # key at vertex m -> [(low code digits, moves from m on)]
    leaves = None  # the memo entry of the subtree being walked; None without a cut
    i = 0
    while i >= 0:
        q = quads[i]
        k = choice[i]
        if k >= 0:
            used[q[k]] = 0
            del moves[marks[i]:]
        shut = closing[i]
        k += 1
        while k < 4:
            f = q[k]
            if not used[f]:
                # every face whose last vertex is i must be marked once i is
                for g in shut:
                    if g != f and not used[g]:
                        break
                else:
                    break
            k += 1
        if k == 4:
            choice[i] = -1
            i -= 1
            if i == m - 1 and leaves:
                # the first walk below this prefix is done; moves holds the prefix's
                yield code[m] << shift, tuple(moves), leaves
            continue
        choice[i] = k
        used[f] = 1
        code[i + 1] = 4 * code[i] + k
        marks[i] = len(moves)
        for h, kh, d in swaps[i][k]:
            if choice[h] == kh:
                moves.append(d)
        if i + 1 == n:
            if leaves is None:
                yield code[n], tuple(moves), _ONE_STATE
            else:
                leaves.append((code[n] & low, tuple(moves[marks[m]:])))
        elif i + 1 != m:
            i += 1
        else:
            key = bytes(map(used.__getitem__, faces)) + bytes(map(choice.__getitem__, reads))
            known = memo.get(key)
            if known is None:
                memo[key] = leaves = []
                i += 1
            elif known:
                yield code[m] << shift, tuple(moves), known


# -- splittings -------------------------------------------------------------------


def split_pairs(graph, v, parity):
    """The two dart pairs joined when the vertex is split.

    Parity 0 splits as for a marker in quadrant 0 or 2, parity 1 as for
    quadrant 1 or 3: the marked and opposite quadrants merge, the other
    two are closed off.
    """
    rot = graph.vertices[v].rotation
    k = parity
    return (
        frozenset((rot[k], rot[k - 1])),
        frozenset((rot[(k + 1) % 4], rot[(k + 2) % 4])),
    )


# -- transpositions and the clock graph ----------------------------------------------


def transpositions(universe, code):
    """The codes of the states one clockwise transposition away from the
    state ``code``, ordered by v, then w."""
    choice = list(markers(universe, code).values())
    # each v has at most one partner w, so sorting by v orders by v, then w
    moves = sorted(
        (i, d) for j, k in enumerate(choice) for i, ki, d in universe.swaps[j][k] if choice[i] == ki
    )
    return [code + d for _i, d in moves]


def clock_graph(universe, cap=DEFAULT_CAP):
    """The clock graph's structure report, ``clock_report``'s keys, decided
    per memo block of the search without listing the arcs.

    States and arcs are counted from block sizes; a sink is a state with no
    move. Once per key, the moves inside the low digits make a local graph
    (``_below_cut``). A prefix move into a block of the same key gives each
    of its states one in-arc; every other move is looked up by code, once
    per pair of keys and high-digit delta. The graph is acyclic when every
    local graph and the graph of blocks are, and then weakly connected when
    it has one source. Whatever this cannot decide, a move that misses the
    states included, is decided by ``clock_report`` on ``out_list``'s flat
    out-list, which raises ``MoveLeavesStates`` on a miss. So is a universe
    without a cut: each of its blocks is one state, and the flat out-list
    lists the same arcs faster.
    """
    blocks = list(_search(universe, cap))
    report = None
    if universe.cut is not None:
        shift = 2 * (len(universe.quadrants) - universe.cut[0])
        report = _block_report(blocks, (1 << shift) - 1)
    if report is None:
        _codes, ends, targets = out_list(universe, blocks)
        report = clock_report(ends, targets)
    return report


def _block_report(blocks, low):
    """``clock_report`` of the search's blocks, or None where blocks cannot
    decide it: a miss, a cycle, or not one source."""
    keys = {}  # id of a shared leaves list -> its _below_cut
    for _head, _moves, leaves in blocks:
        if id(leaves) not in keys:
            keys[id(leaves)] = _below_cut(leaves, low)
    if None in keys.values():
        return None
    heads = {head: b for b, (head, _moves, _leaves) in enumerate(blocks)}
    states = arcs = sinks = 0
    full = [0] * len(blocks)  # per block, the in-arcs each state has from same-key prefix moves
    hit = defaultdict(set)  # block -> its key's sources that a move from another key reaches
    landings = {}  # (key, target key, high delta or None) -> the target sources reached, or None
    outs = []  # the graph of blocks
    for head, moves, leaves in blocks:
        index, _key_sources, key_sinks, key_arcs, jumps = keys[id(leaves)]
        states += len(leaves)
        arcs += len(leaves) * len(moves) + key_arcs
        sinks += 0 if moves else key_sinks
        out = [heads.get(head + d) for d in itertools.chain(moves, jumps)]
        if None in out:
            return None
        outs.append(out)
        # a prefix move keeps every leaf's low digits; a jump reaches the lows listed for it
        for c, (d, lows) in zip(out, itertools.chain(itertools.repeat((None, index), len(moves)), jumps.items())):
            target = blocks[c][2]
            if d is None and target is leaves:
                full[c] += 1
                continue
            slot = (id(leaves), id(target), d)
            if slot not in landings:
                target_index, target_sources = keys[id(target)][:2]
                reached = set(map(target_index.get, lows))
                landings[slot] = None if None in reached else target_sources & reached
            if landings[slot] is None:
                return None
            hit[c] |= landings[slot]
    if _dag_sources(outs) is None:
        return None
    sources = sum(
        len(keys[id(leaves)][1] - hit[b]) for b, (_head, _moves, leaves) in enumerate(blocks) if not full[b]
    )
    if sources != 1:
        return None
    return {
        "states": states,
        "arcs": arcs,
        "weakly_connected": True,
        "acyclic": True,
        "unique_source": True,
        "unique_sink": sinks == 1,
        "ok": sinks == 1,
    }


def _below_cut(leaves, low):
    """One key's moves: ``(index, sources, sinks, arcs, jumps)``, or None
    when two leaves share their low digits, a move inside the low digits
    misses the leaves, or these moves close a cycle.

    ``index`` maps each leaf's low digits to its position, ``sources`` is
    the set of positions with no in-arc inside the low digits, ``sinks``
    counts the leaves with no move, ``arcs`` counts the moves, and
    ``jumps`` maps the high-digit delta of each move that changes the prefix
    to the low digits of its targets.
    """
    index = {c: j for j, (c, _tail) in enumerate(leaves)}
    if len(index) != len(leaves):
        return None
    outs = [[] for _ in leaves]
    jumps = defaultdict(list)
    for out, (c, tail) in zip(outs, leaves):
        for d in tail:
            t = c + d
            if t & ~low:
                jumps[t & ~low].append(t & low)
            elif t in index:
                out.append(index[t])
            else:
                return None
    sources = _dag_sources(outs)
    if sources is None:
        return None
    tails = list(map(itemgetter(1), leaves))
    return index, sources, tails.count(()), sum(map(len, tails)), jumps


def _dag_sources(outs):
    """The set of in-degree-0 vertices of a graph given as out-lists, or
    None when Kahn's algorithm finds a cycle."""
    remaining = Counter(itertools.chain.from_iterable(outs))
    order = [x for x in range(len(outs)) if not remaining[x]]
    sources = set(order)
    for x in order:  # the removal order, appended to while it is read
        for y in outs[x]:
            remaining[y] -= 1
            if not remaining[y]:
                order.append(y)
    return sources if len(order) == len(outs) else None


def out_list(universe, blocks):
    """The clock graph of the search's blocks as one flat out-list:
    ``(codes, ends, targets)``.

    ``codes`` lists each state's code in ``enumerate_states``' order. State
    i's move targets, as state indices, are ``targets[ends[i]:ends[i + 1]]``
    in the order the search found the moves; ``clock_report`` checks the
    structure. Each move's target is its source code plus the move's delta,
    looked up in one code -> index dict by one pass over all moves.
    """
    codes, moves = [], []
    for head, prefix, leaves in blocks:
        for c, tail in leaves:
            codes.append(head | c)
            moves.append(prefix + tail)
    codes = tuple(codes)
    counts = list(map(len, moves))
    index = {c: i for i, c in enumerate(codes)}
    sources = itertools.chain.from_iterable(map(itertools.repeat, codes, counts))
    deltas = itertools.chain.from_iterable(moves)
    try:
        targets = list(map(index.__getitem__, map(add, sources, deltas)))
    except KeyError as miss:
        # the first state with a move to the missing code is the one that raised
        target = miss.args[0]
        i, c = next((i, c) for i, (c, own) in enumerate(zip(codes, moves)) if target - c in own)
        source, dest = markers(universe, c), markers(universe, target)
        v, w = (x for x in source if source[x] != dest[x])
        raise MoveLeavesStates(f"state {i}: the move at {v} and {w} leaves the states") from None
    return codes, list(itertools.accumulate(counts, initial=0)), targets


def clock_report(ends, targets):
    """Counts and the four structure checks of a graph given as one flat
    out-list: state i's targets are ``targets[ends[i]:ends[i + 1]]``.

    Kahn's algorithm on in-degree counts decides acyclicity: the graph is
    acyclic iff it removes every state. Every state of a finite acyclic
    graph lies below a source, so one source there means weakly connected;
    otherwise an undirected search decides.
    """
    n = len(ends) - 1
    indegree = Counter(targets)
    remaining = list(map(indegree.get, range(n), itertools.repeat(0)))
    # the removal order, appended to while it is read
    order = [i for i, r in enumerate(remaining) if not r]
    sources = len(order)
    for x in order:
        for y in targets[ends[x]:ends[x + 1]]:
            r = remaining[y] - 1
            remaining[y] = r
            if not r:
                order.append(y)
    acyclic = len(order) == n

    connected = acyclic and sources == 1
    if not connected:
        adjacent = [targets[a:b] for a, b in zip(ends, ends[1:])]
        for i, (a, b) in enumerate(zip(ends, ends[1:])):
            for j in targets[a:b]:
                adjacent[j].append(i)
        seen = {0} if n else set()
        stack = list(seen)
        while stack:
            for y in adjacent[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        connected = len(seen) == n

    sinks = sum(map(eq, ends, ends[1:]))
    report = {
        "states": n,
        "arcs": len(targets),
        "weakly_connected": connected,
        "acyclic": acyclic,
        "unique_source": sources == 1,
        "unique_sink": sinks == 1,
    }
    report["ok"] = connected and acyclic and sources == 1 and sinks == 1
    return report


# -- the checkerboard dual -------------------------------------------------------------


def universe_dual_graph(universe):
    """Checkerboard-coloured planar dual of the universe.

    Faces of the result correspond to vertices of the universe and all
    have four sides.
    """
    dual = planar_dual(universe.graph)
    colouring = two_colouring(dual)
    if colouring is None:
        raise MappingFailure("universe dual is not checkerboard-colourable")
    return with_colours(dual, colouring)


def _dual_face_vertex(universe, dual, face_id):
    """Universe vertex sitting inside a face of the dual."""
    t = dual.faces[face_id].boundary[0]
    return universe.graph.origin(universe.graph.reverse(t))


def _split_choices(universe, dual, graph):
    """Per face of the dual, in sorted order: the code shift of its universe
    vertex's quadrant digit, and the index in ``graph.diagrams`` of the chord
    diagram the vertex's split makes at parity 0 and at parity 1.

    Splitting pairs of universe darts become chords joining the matching
    boundary points of the dual face at that vertex.
    """
    g = universe.graph
    n = len(universe.vertex_ids)
    table = []
    for fid, partners in zip(graph.trinity.red, graph.diagrams):
        x = _dual_face_vertex(universe, dual, fid)
        point_of = {g.reverse(t): i for i, t in enumerate(dual.faces[fid].boundary)}
        index = {partner: k for k, partner in enumerate(partners)}
        ks = []
        for parity in (0, 1):
            partner = [0] * len(point_of)
            for pair in split_pairs(g, x, parity):
                a, b = map(point_of.__getitem__, pair)
                partner[a], partner[b] = b, a
            k = index.get(tuple(partner))
            if k is None:
                raise MappingFailure(f"face {fid}: split {parity} at {x} makes no chord diagram")
            ks.append(k)
        table.append((2 * (n - 1 - universe.vertex_ids.index(x)), tuple(ks)))
    return table


def states_vs_configurations(universe, cap=DEFAULT_CAP):
    """Verify that states biject with tight configurations of the dual.

    Each state code is read, through ``_split_choices``, as the diagram
    indices of the configuration its splitting makes; the set of these must
    be that of the graph's vertices, read by ``digits``, one per state. Also
    checks the state count against the magic number of the dual's trinity.
    Returns the report, its three counts as strings.
    """
    dual = universe_dual_graph(universe)
    trin = trinity_mod.build_trinity(dual, cap)
    if any(n != 2 for n in trin.n_r.values()):
        raise MappingFailure("dual faces must be quadrilaterals")
    graph = transitions.build_configuration_graph(trin)
    table = _split_choices(universe, dual, graph)
    codes = enumerate_states(universe, cap)
    # a marker's parity is the low bit of its quadrant digit
    image = {tuple(ks[code >> shift & 1] for shift, ks in table) for code in codes}
    if len(image) != len(codes) or image != set(map(graph.digits, range(len(graph.codes)))):
        raise MappingFailure("states do not biject with tight configurations")
    magic = trin.magic_report
    if not magic.agree or magic.value != len(codes):
        raise MappingFailure("state count disagrees with the magic number")
    return {
        "states": str(len(codes)),
        "tight_configurations": str(len(graph.codes)),
        "magic": str(magic.value),
        # a report is made only once the map is a bijection (MappingFailure
        # otherwise); the key stays while perfbench's check_report reads it
        "bijective": True,
        "ok": len(codes) == len(graph.codes) == magic.value,
    }


# -- built-in universes ------------------------------------------------------------------


def curl_universe():
    """One crossing: a circle with a single curl."""
    doc = {
        "vertices": [
            {
                "id": "x",
                "colour": None,
                # counterclockwise: small-loop east, small-loop north,
                # big-loop west, big-loop south
                "rotation": ["L.1", "L.0", "B.0", "B.1"],
            }
        ],
        "edges": plane_graph.edge_records(["L", "B"]),
    }
    graph = parse_graph(doc)
    # star the small-loop face and its neighbour between the loops
    inner = graph.face_of("L.1")
    middle = graph.face_of("L.0")
    doc["stars"] = sorted((inner, middle))
    return doc


def hopf_universe():
    """Two crossings: the Hopf link shadow (two overlapping circles)."""
    doc = {
        "vertices": [
            {"id": "t", "colour": None, "rotation": ["eR.0", "eL.0", "em2.0", "em1.0"]},
            {"id": "b", "colour": None, "rotation": ["em1.1", "em2.1", "eL.1", "eR.1"]},
        ],
        "edges": plane_graph.edge_records(["eL", "em1", "em2", "eR"]),
    }
    graph = parse_graph(doc)
    outer = graph.face_of("eL.1")  # left of the left-outer arc running up
    left = graph.face_of("eL.0")
    doc["stars"] = sorted((outer, left))
    return doc


def figure_eight_universe():
    """Four crossings: the figure-eight knot shadow."""
    doc = {
        "vertices": [
            {"id": "b", "colour": None, "rotation": ["e4.0", "e8.1", "e3.1", "e1.0"]},
            {"id": "m", "colour": None, "rotation": ["e7.1", "e5.0", "e8.0", "e4.1"]},
            {"id": "l", "colour": None, "rotation": ["e2.1", "e6.0", "e3.0", "e5.1"]},
            {"id": "r", "colour": None, "rotation": ["e6.1", "e2.0", "e7.0", "e1.1"]},
        ],
        "edges": plane_graph.edge_records([f"e{i}" for i in range(1, 9)]),
    }
    graph = parse_graph(doc)
    # the two faces flanking the long south-east edge
    doc["stars"] = sorted((graph.face_of("e1.0"), graph.face_of("e1.1")))
    return doc


BUILTIN_UNIVERSES = {
    "curl": curl_universe,
    "hopf": hopf_universe,
    "figure_eight": figure_eight_universe,
}
