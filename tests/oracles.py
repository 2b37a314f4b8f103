"""Test oracles for paper statements that no command checks, and views
of package values that only tests read.

Bypass moves on chord diagrams, the valence-concentration walk to a
tree-hugging configuration, the splitting of a universe state into its
loop, one-edge exchanges between spanning trees, and the hypertree of one
spanning tree read off its degrees. Each is written from the statement,
not from the package's fast paths. The views read the ``(codes, ends,
targets)`` of ``fkt.clock_graph`` as states, choices, sorted out-lists,
arcs and the structure report, and read one face's diagram off a
configuration.
"""

import itertools

from trinities import dividing as dv
from trinities import fkt


def partition(n, pairs):
    """Per item 0..n-1, its class under the joined pairs, classes numbered by smallest member."""
    root = list(range(n))

    def find(x):
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    for x, y in pairs:
        x, y = find(x), find(y)
        root[max(x, y)] = min(x, y)
    number = {}
    return tuple(number.setdefault(find(x), len(number)) for x in range(n))


# -- bypass moves -------------------------------------------------------------

# The three matchings of six points closed under the one-step rotation
# i -> i+1; a triple of chords admits a bypass exactly when its induced
# matching is one of these (the middle chord separates the other two).
ROTATION_PATTERNS = (
    (5, 4, 3, 2, 1, 0),  # {05, 14, 23}
    (1, 0, 5, 4, 3, 2),  # {01, 25, 34}
    (3, 2, 1, 0, 5, 4),  # {03, 12, 45}
)


def bypass_moves(diagram):
    """Diagrams one bypass move away: three chords whose middle one
    separates the other two, re-matched by turning their six endpoints one
    step either way around the hexagon."""
    pairs = diagram.pairs()
    targets = set()
    for triple in itertools.combinations(pairs, 3):
        points = sorted(p for pair in triple for p in pair)
        local = {points.index(a): points.index(b) for a, b in triple}
        local.update({b: a for a, b in local.items()})
        induced = tuple(local[i] for i in range(6))
        if induced not in ROTATION_PATTERNS:
            continue
        rest = [p for p in pairs if p not in triple]
        for step in (1, -1):
            # the induced matching turned by one step: point i goes to i + step
            turned = [(induced[(i - step) % 6] + step) % 6 for i in range(6)]
            new_pairs = rest + [(points[i], points[j]) for i, j in enumerate(turned) if i < j]
            if dv.first_crossing(new_pairs) is None:
                targets.add(dv.ChordDiagram.from_pairs(diagram.n, new_pairs))
    return targets


def config_bypass_moves(config):
    """Configurations one bypass move away, on one face disc."""
    diagrams = dict(config.entries)
    return [
        dv.Configuration.from_diagrams(config.trinity, {**diagrams, fid: target})
        for fid, diagram in config.entries
        for target in bypass_moves(diagram)
    ]


def diagram(config, face):
    """The chord diagram a configuration places on one face disc."""
    return dict(config.entries)[face]


# -- valence concentration ------------------------------------------------------


def _max_negative_valence(trinity, fid, diagram):
    return max(len(arcs) for sign, arcs in dv.disc_regions(trinity, fid, diagram) if sign < 0)


def valence_concentration_path(config):
    """Walk to a tree-hugging configuration through tight neighbours.

    Face by face, while a disc does not hug, replace its diagram with the
    first tight alternative of strictly larger maximum negative valence.
    Valence sums bound the walk, so it stops.
    """
    trinity = config.trinity
    assert dv.is_tight(config).tight, "valence concentration starts from a tight configuration"
    path = [config]
    for fid in trinity.red:
        while not dv.euler_and_hug(dv.disc_regions(trinity, fid, diagram(path[-1], fid)))[1]:
            diagrams = dict(path[-1].entries)
            top = _max_negative_valence(trinity, fid, diagrams[fid])
            candidates = (
                dv.Configuration.from_diagrams(trinity, {**diagrams, fid: alt})
                for alt in dv.enumerate_chord_diagrams(trinity.n_r[fid])
                if _max_negative_valence(trinity, fid, alt) > top
            )
            step = next((c for c in candidates if dv.is_tight(c).tight), None)
            assert step is not None, f"no valence-increasing tight move on face {fid}"
            path.append(step)
    assert dv.is_tree_hugging(path[-1])[0], "concentration ended on a configuration that hugs no tree"
    return path


# -- splittings of universe states ----------------------------------------------


def splitting_loops(graph, parities):
    """Closed curves of a full splitting, as dart sequences."""
    join = {}
    for v, parity in parities.items():
        for pair in fkt.split_pairs(graph, v, parity):
            a, b = sorted(pair)
            join[a] = b
            join[b] = a
    loops = []
    seen = set()
    for start in graph.darts():
        if start in seen:
            continue
        loop = []
        d = start
        while True:
            e = graph.reverse(d)  # run along the edge
            loop += (d, e)
            seen.update((d, e))
            d = join[e]  # cross the split vertex
            if d == start:
                break
        loops.append(tuple(loop))
    return loops


def state_choices(code, n):
    """The quadrant choices of a state code over n vertices, digit by digit,
    vertex 0 (the most significant digit) first."""
    return tuple(code >> 2 * (n - 1 - i) & 3 for i in range(n))


def state_code(choices):
    """The base-4 state code of quadrant choices, vertex 0 most significant."""
    code = 0
    for k in choices:
        code = 4 * code + k
    return code


def state_trail(universe, code):
    """A state's splitting, as sorted (vertex, parity) pairs, and its one loop."""
    verts = sorted(universe.graph.vertices)
    parities = {v: k % 2 for v, k in zip(verts, state_choices(code, len(verts)))}
    loops = splitting_loops(universe.graph, parities)
    assert len(loops) == 1, f"state splits into {len(loops)} loops"
    return tuple(sorted(parities.items())), loops[0]


# -- clock graph views --------------------------------------------------------------


def clock_choices(universe, clock):
    """Each state's quadrant choices, vertices in id order, states in the
    order of ``clock``, the ``(codes, ends, targets)`` of ``fkt.clock_graph``."""
    codes, _ends, _targets = clock
    n = len(universe.graph.vertices)
    return tuple(state_choices(c, n) for c in codes)


def clock_outs(clock):
    """Per state, the sorted indices of its moves' targets."""
    _codes, ends, targets = clock
    return tuple(tuple(sorted(targets[a:b])) for a, b in zip(ends, ends[1:]))


def clock_arcs(clock):
    return tuple((i, j) for i, out in enumerate(clock_outs(clock)) for j in out)


def clock_report(clock):
    """``fkt.clock_report`` of the clock graph's flat out-list."""
    _codes, ends, targets = clock
    return fkt.clock_report(ends, targets)


# -- spanning trees and hypertrees -------------------------------------------------


def degrees(tree, colour):
    """Tree degree of each host vertex of this colour."""
    graph = tree.graph
    degs = {v: 0 for v in graph.vertices if graph.colour_of(v) == colour}
    for eid in tree.edges:
        for v in graph.endpoints(eid):
            if v in degs:
                degs[v] += 1
    return degs


def hypertree_of(tree, hyperedge_colour):
    """Hypertree vector realized by a spanning tree: f(e) = deg(e) - 1 at hyperedge nodes."""
    if hyperedge_colour not in tree.graph.colour_classes:
        raise ValueError(f"host graph has no {hyperedge_colour!r} class")
    return tuple(sorted((v, d - 1) for v, d in degrees(tree, hyperedge_colour).items()))


def exchange_classes(trees, colour):
    """Per tree, its class under one-edge exchanges that keep the degree record at this colour."""
    records = [degrees(t, colour) for t in trees]
    pairs = [
        (i, j)
        for i, j in itertools.combinations(range(len(trees)), 2)
        if records[i] == records[j] and len(trees[i].edges - trees[j].edges) == 1
    ]
    return partition(len(trees), pairs)
