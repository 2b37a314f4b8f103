"""Universes, states, trails, transpositions, the clock graph and the
state/configuration correspondence."""

import random
import sys
from itertools import accumulate, product
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from corpus import corpus_documents, medial_universe_document, path_document
from random_maps import plane_bipartite_maps
from trinities import fkt
from trinities import plane_graph as pg
from trinities import trees
from trinities import trinity as tr
from trinities.cli import generate_corpus


@pytest.fixture(scope="module")
def universes():
    return {name: fkt.parse_universe(builder()) for name, builder in fkt.BUILTIN_UNIVERSES.items()}


MEDIAL_SPECS = {"medial_ladder3": ("ladder", 3), "medial_grid2": ("grid", 2)}


@pytest.fixture(scope="module")
def medial_universes():
    """Medial universes of two corpus graphs, starred at their first edge."""
    out = {}
    for name, (family, size) in MEDIAL_SPECS.items():
        doc = generate_corpus(family, size)
        star = doc["edges"][0]["darts"][0]
        out[name] = (fkt.parse_universe(medial_universe_document(doc, star)), doc)
    return out


@pytest.fixture(scope="module")
def oracle_universes(universes, medial_universes):
    return {**universes, **{name: u for name, (u, _doc) in medial_universes.items()}}


def splitting_oracle(universe):
    """Exhaustive sweep of all 2^V splittings, keeping single loops."""
    verts = sorted(universe.graph.vertices)
    single = []
    for bits in product((0, 1), repeat=len(verts)):
        parities = dict(zip(verts, bits))
        if len(oracles.splitting_loops(universe.graph, parities)) == 1:
            single.append(tuple(sorted(parities.items())))
    return single


def choice_oracle(universe):
    """Exhaustive 4^V sweep of quadrant choices, vertices in id order,
    keeping those that mark no starred face and no face twice."""
    g = universe.graph
    faces = [[g.face_of(d) for d in g.vertices[v].rotation] for v in sorted(g.vertices)]
    choices = []
    for choice in product(range(4), repeat=len(faces)):
        marked = {faces[i][k] for i, k in enumerate(choice)}
        if len(marked) == len(choice) and not marked & set(universe.stars):
            choices.append(choice)
    return choices


def state_oracle(universe):
    """The choice oracle's state codes."""
    return list(map(oracles.state_code, choice_oracle(universe)))


def plain_search_choices(universe):
    """Unpruned depth-first search over the vertices, quadrants 0..3 at each."""
    quads = universe.quadrants
    n = len(quads)
    states = []
    used = bytearray(len(universe.face_index))
    for f in universe.stars:
        used[universe.face_index[f]] = 1
    choice = [-1] * n
    i = 0
    while i >= 0:
        if i == n:
            states.append(tuple(choice))
            i -= 1
            continue
        q = quads[i]
        k = choice[i]
        if k >= 0:
            used[q[k]] = 0
        k += 1
        while k < 4 and used[q[k]]:
            k += 1
        if k == 4:
            choice[i] = -1
            i -= 1
        else:
            choice[i] = k
            used[q[k]] = 1
            i += 1
    return states


def unstarred(universe):
    return [f for f in sorted(universe.graph.faces) if f not in universe.stars]


def test_parse_curl(universes):
    u = universes["curl"]
    assert len(u.graph.vertices) == 1
    assert len(u.graph.faces) == 3
    assert len(unstarred(u)) == 1


def test_parse_hopf(universes):
    u = universes["hopf"]
    assert len(u.graph.vertices) == 2
    assert len(u.graph.faces) == 4
    assert len(unstarred(u)) == 2


def test_parse_figure_eight(universes):
    u = universes["figure_eight"]
    assert len(u.graph.vertices) == 4
    assert len(u.graph.faces) == 6
    assert len(unstarred(u)) == 4


def test_not_four_regular():
    doc = corpus_documents()["cycle4"]
    doc = {**doc, "stars": ["f0", "f1"]}
    with pytest.raises(fkt.NotFourRegular):
        fkt.parse_universe(doc)


def test_stars_must_be_adjacent():
    doc = fkt.curl_universe()
    g = pg.parse_graph({k: v for k, v in doc.items() if k != "stars"})
    inner = g.face_of("L.1")
    outer = g.face_of("B.0")
    doc["stars"] = [inner, outer]  # share only the vertex
    with pytest.raises(fkt.StarsNotAdjacent):
        fkt.parse_universe(doc)


def test_stars_field_required():
    doc = fkt.curl_universe()
    del doc["stars"]
    with pytest.raises(pg.SchemaError):
        fkt.parse_universe(doc)


@pytest.mark.parametrize("name,expected", [("curl", 1), ("hopf", 2), ("figure_eight", 5)])
def test_state_counts(universes, name, expected):
    states = fkt.enumerate_states(universes[name])
    assert len(states) == expected
    assert set(states) == set(state_oracle(universes[name]))


def test_states_count_equals_splitting_oracle(universes):
    for name, u in universes.items():
        assert len(fkt.enumerate_states(u)) == len(splitting_oracle(u)), name


def test_state_to_trail_curl(universes):
    u = universes["curl"]
    (state,) = fkt.enumerate_states(u)
    _splitting, loop = oracles.state_trail(u, state)
    assert sorted(loop) == u.graph.darts()


def test_trails_distinct_and_exhaust_splittings(universes):
    for name, u in universes.items():
        states = fkt.enumerate_states(u)
        splittings = {oracles.state_trail(u, s)[0] for s in states}
        assert len(splittings) == len(states)
        assert splittings == set(splitting_oracle(u)), name


def test_state_search_cap(universes):
    from trinities.limits import CapExceeded

    with pytest.raises(CapExceeded):
        fkt.enumerate_states(universes["figure_eight"], cap=10)


def test_medial_state_counts_are_tree_counts(medial_universes):
    # Kauffman's state-tree bijection; also pins the lexicographic state order
    for name, (u, doc) in medial_universes.items():
        states = fkt.enumerate_states(u, cap=None)
        assert len(states) == trees.spanning_tree_count(pg.parse_graph(doc)), name
        assert list(states) == sorted(set(states)), name


def test_state_order_is_lexicographic(universes):
    for name, u in universes.items():
        assert list(fkt.enumerate_states(u)) == state_oracle(u), name


def test_state_codes_match_choice_oracle(oracle_universes):
    for name, u in oracle_universes.items():
        if len(u.graph.vertices) <= 8:
            assert list(oracles.clock_choices(u, fkt.clock_graph(u, cap=None))) == choice_oracle(u), name


@given(plane_bipartite_maps(max_edges=8))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_random_medial_state_codes_match_choice_oracle(doc):
    u = fkt.parse_universe(medial_universe_document(doc, doc["edges"][0]["darts"][0]))
    assert list(oracles.clock_choices(u, fkt.clock_graph(u, cap=None))) == choice_oracle(u)


def test_pruned_search_matches_plain_search_on_ladder7():
    doc = generate_corpus("ladder", 7)
    u = fkt.parse_universe(medial_universe_document(doc, doc["edges"][0]["darts"][0]))
    choices = oracles.clock_choices(u, fkt.clock_graph(u, cap=None))
    assert len(choices) == trees.spanning_tree_count(pg.parse_graph(doc))
    assert list(choices) == plain_search_choices(u)


def unmemoized_search(universe):
    """The state search without the memo at ``universe.cut``: each state's
    code with its clockwise moves, every subtree walked in full."""
    quads, swaps = universe.quadrants, universe.swaps
    n = len(quads)
    used = bytearray(len(universe.face_index))
    for f in universe.stars:
        used[universe.face_index[f]] = 1
    closing = [[] for _ in range(n)]
    for f, i in {f: i for i, q in enumerate(quads) for f in q if not used[f]}.items():
        closing[i].append(f)
    choice = [-1] * n
    code = [0] * (n + 1)
    marks = [0] * n
    moves = []
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
                for g in shut:
                    if g != f and not used[g]:
                        break
                else:
                    break
            k += 1
        if k == 4:
            choice[i] = -1
            i -= 1
            continue
        choice[i] = k
        used[f] = 1
        code[i + 1] = 4 * code[i] + k
        marks[i] = len(moves)
        for h, kh, d in swaps[i][k]:
            if choice[h] == kh:
                moves.append(d)
        if i + 1 == n:
            yield code[n], tuple(moves)
        else:
            i += 1


def shuffled_crossings(document, seed):
    """The universe document with its crossing ids permuted, so that the
    search visits its crossings in a scrambled order."""
    ids = [v["id"] for v in document["vertices"]]
    new = random.Random(seed).sample(ids, len(ids))
    rename = dict(zip(ids, new))
    vertices = [{**v, "id": rename[v["id"]]} for v in document["vertices"]]
    return {**document, "vertices": vertices}


def unguarded_cut(universe):
    """The cut at n // 2 from face ids and quadrant pairs, whatever the guard
    says: the unstarred faces on both sides, and each vertex below n // 2
    whose marker can swap with a marker of a vertex at or above it."""
    g, verts = universe.graph, universe.vertex_ids
    m = len(verts) // 2
    quads = [[fkt.quadrant_face(g, v, k) for k in range(4)] for v in verts]
    shared = set().union(*quads[:m]) & set().union(*quads[m:]) - set(universe.stars)
    reads = {
        i
        for i, j in product(range(m), range(m, len(verts)))
        for ki, kj in product(range(4), repeat=2)
        if (quads[i][ki - 1], quads[i][ki]) == (quads[j][kj], quads[j][kj - 1])
    }
    return m, tuple(sorted(universe.face_index[f] for f in shared)), tuple(sorted(reads))


def test_memoized_search_matches_the_full_search_on_ladder7():
    doc = generate_corpus("ladder", 7)
    u = fkt.parse_universe(medial_universe_document(doc, doc["edges"][0]["darts"][0]))
    assert u.cut == unguarded_cut(u)
    m, faces, reads = u.cut
    assert m == 11 and len(faces) + 2 * len(reads) < 2 * m
    assert list(fkt._search(u, None)) == list(unmemoized_search(u))


@pytest.mark.parametrize(
    "family,size", [("ladder", 4), ("grid", 2), ("theta", 4), ("even_cycle", 4)]
)
@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_forced_memo_matches_the_full_search(family, size, seed):
    # the memo is exact whatever the guard decides; the guard only saves time
    doc = generate_corpus(family, size)
    medial = medial_universe_document(doc, doc["edges"][0]["darts"][0])
    u = fkt.parse_universe(medial if seed is None else shuffled_crossings(medial, seed))
    u.__dict__["cut"] = unguarded_cut(u)  # the cached property's slot
    assert list(fkt._search(u, None)) == list(unmemoized_search(u))


def test_search_without_a_cut_matches_the_full_search_on_shuffled_ladder5():
    doc = generate_corpus("ladder", 5)
    medial = medial_universe_document(doc, doc["edges"][0]["darts"][0])
    u = fkt.parse_universe(shuffled_crossings(medial, 5))
    m, faces, reads = unguarded_cut(u)
    assert len(faces) + 2 * len(reads) >= 2 * m and u.cut is None
    found = list(fkt._search(u, None))
    assert len(found) == trees.spanning_tree_count(pg.parse_graph(doc))
    assert found == list(unmemoized_search(u))


@given(plane_bipartite_maps())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_random_medial_searches_match_the_full_search(doc):
    u = fkt.parse_universe(medial_universe_document(doc, doc["edges"][0]["darts"][0]))
    assert list(fkt._search(u, None)) == list(unmemoized_search(u))


def test_state_search_needs_no_recursion():
    # more crossings than the interpreter's recursion limit
    k = sys.getrecursionlimit() + 100
    u = fkt.parse_universe(medial_universe_document(path_document(k), "p0.0"))
    (state,) = fkt.enumerate_states(u, cap=None)
    faces = [fkt.quadrant_face(u.graph, v, q) for v, q in fkt.markers(u, state).items()]
    assert sorted(faces) == unstarred(u)


def test_transpositions_curl(universes):
    u = universes["curl"]
    (state,) = fkt.enumerate_states(u)
    assert fkt.transpositions(u, state) == []


def test_transpositions_hopf(universes):
    # one clockwise move joins the two states; the other way is its reverse
    u = universes["hopf"]
    a, b = fkt.enumerate_states(u)
    moves = {a: fkt.transpositions(u, a), b: fkt.transpositions(u, b)}
    assert sorted(len(m) for m in moves.values()) == [0, 1]
    assert moves[a] == [b] or moves[b] == [a]


def test_hopf_direction_regression(universes):
    # frozen convention: markers advance clockwise = quadrant index minus one
    u = universes["hopf"]
    states = {fkt.markers(u, s)["t"]: s for s in fkt.enumerate_states(u)}
    src = states[3]  # markers t:3, b:0
    (target,) = fkt.transpositions(u, src)
    assert fkt.markers(u, src) == {"t": 3, "b": 0}
    assert fkt.markers(u, target) == {"t": 2, "b": 3}


def test_transposition_symmetry(oracle_universes):
    # each counterclockwise move is a clockwise move read backwards
    for name, u in oracle_universes.items():
        states = fkt.enumerate_states(u, cap=None)
        clockwise = {(s, t) for s in states for t in fkt.transpositions(u, s)}
        counterclockwise = {
            (s, t)
            for s in states
            for t, direction in all_pairs_transpositions(u, s)
            if direction == COUNTERCLOCKWISE
        }
        assert clockwise == {(t, s) for s, t in counterclockwise}, name
        assert clockwise or name == "curl"


def test_transpositions_yield_valid_states(universes):
    for u in universes.values():
        states = set(fkt.enumerate_states(u))
        for s in states:
            for s2 in fkt.transpositions(u, s):
                assert s2 in states


# the oracle's own direction labels: clockwise retreats a marker one quadrant
CLOCKWISE, COUNTERCLOCKWISE = "clockwise", "counterclockwise"


def all_pairs_transpositions(universe, code):
    """Oracle: try every pair of vertices in both directions, tagged."""
    g = universe.graph
    verts = sorted(g.vertices)
    markers = dict(zip(verts, oracles.state_choices(code, len(verts))))
    out = []
    for i, v in enumerate(verts):
        for w in verts[i + 1:]:
            for direction, step in ((CLOCKWISE, -1), (COUNTERCLOCKWISE, 1)):
                kv, kw = markers[v], markers[w]
                fv, fw = fkt.quadrant_face(g, v, kv), fkt.quadrant_face(g, w, kw)
                if fkt.quadrant_face(g, v, (kv + step) % 4) != fw:
                    continue
                if fkt.quadrant_face(g, w, (kw + step) % 4) != fv:
                    continue
                new = dict(markers)
                new[v] = (kv + step) % 4
                new[w] = (kw + step) % 4
                out.append((oracles.state_code(map(new.get, verts)), direction))
    return out


def all_pairs_clockwise(universe, state):
    """The oracle's clockwise moves, as bare state codes in its order."""
    return [
        t for t, direction in all_pairs_transpositions(universe, state) if direction == CLOCKWISE
    ]


ORACLE_NAMES = ["curl", "hopf", "figure_eight", *MEDIAL_SPECS]


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_transpositions_match_all_pairs_scan(oracle_universes, name):
    u = oracle_universes[name]
    for s in fkt.enumerate_states(u, cap=None):
        assert fkt.transpositions(u, s) == all_pairs_clockwise(u, s), s


def all_pairs_arcs(universe):
    """Clock graph arcs built from the oracle's moves and the state listing."""
    states = fkt.enumerate_states(universe, cap=None)
    index = {s: i for i, s in enumerate(states)}
    return sorted(
        (i, index[t]) for i, s in enumerate(states) for t in all_pairs_clockwise(universe, s)
    )


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_clock_arcs_match_all_pairs_scan(oracle_universes, name):
    u = oracle_universes[name]
    arcs = oracles.clock_arcs(fkt.clock_graph(u, cap=None))
    assert arcs or name == "curl"
    assert list(arcs) == all_pairs_arcs(u)


@given(plane_bipartite_maps())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_random_medial_clock_graphs(doc):
    u = fkt.parse_universe(medial_universe_document(doc, doc["edges"][0]["darts"][0]))
    clock = fkt.clock_graph(u, cap=None)
    report = oracles.clock_report(clock)
    # Kauffman's state-tree bijection, counted by the matrix-tree theorem
    assert report["states"] == trees.spanning_tree_count(pg.parse_graph(doc))
    assert list(oracles.clock_arcs(clock)) == all_pairs_arcs(u)
    assert report["ok"]


def check_clock_lattice(outs):
    """Kauffman's clock theorem as a lattice: some rank rises by exactly 1
    along every arc, and the reachability order is a distributive lattice."""
    n = len(outs)
    ins = [[] for _ in range(n)]
    for x, out in enumerate(outs):
        for y in out:
            ins[y].append(x)
    rank = {0: 0}
    stack = [0]
    while stack:
        x = stack.pop()
        for ys, step in ((outs[x], 1), (ins[x], -1)):
            for y in ys:
                if y not in rank:
                    rank[y] = rank[x] + step
                    stack.append(y)
                assert rank[y] == rank[x] + step
    assert len(rank) == n
    # bitsets of the states at or above (up) and at or below (down) each state
    up, down = [0] * n, [0] * n
    for x in sorted(range(n), key=rank.get, reverse=True):
        up[x] = 1 << x
        for y in outs[x]:
            up[x] |= up[y]
    for x in sorted(range(n), key=rank.get):
        down[x] = 1 << x
        for y in ins[x]:
            down[x] |= down[y]
    least_above = {m: x for x, m in enumerate(up)}
    greatest_below = {m: x for x, m in enumerate(down)}
    # with ranks, arcs are the covers: join-irreducibles have one lower cover
    irreducible = sum(1 << x for x in range(n) if len(ins[x]) == 1)
    for a in range(n):
        for b in range(a + 1, n):
            join = least_above.get(up[a] & up[b])
            meet = greatest_below.get(down[a] & down[b])
            assert join is not None and meet is not None, (a, b)
            # distributive iff each join-irreducible below a join is below a or b
            assert down[join] & irreducible == (down[a] | down[b]) & irreducible, (a, b)


def test_clock_graphs_are_distributive_lattices(oracle_universes):
    for name, u in oracle_universes.items():
        clock = fkt.clock_graph(u, cap=None)
        assert oracles.clock_report(clock)["states"] <= 300, name
        check_clock_lattice(oracles.clock_outs(clock))


@given(plane_bipartite_maps())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_random_medial_clock_graphs_are_distributive_lattices(doc):
    u = fkt.parse_universe(medial_universe_document(doc, doc["edges"][0]["darts"][0]))
    clock = fkt.clock_graph(u, cap=None)
    assume(oracles.clock_report(clock)["states"] <= 300)
    check_clock_lattice(oracles.clock_outs(clock))


def test_lattice_check_refuses_a_non_distributive_lattice():
    # the diamond M3: three incomparable states between a bottom and a top
    with pytest.raises(AssertionError):
        check_clock_lattice([[1, 2, 3], [4], [4], [4], []])


@given(st.integers(min_value=0, max_value=40).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=4**n - 1))
))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_decode_matches_the_digit_by_digit_decode(n_code):
    n, code = n_code
    universe = SimpleNamespace(vertex_ids=tuple(f"v{i:02}" for i in range(n)))
    digits = ((code >> 2 * (n - 1 - i)) & 3 for i in range(n))
    assert list(fkt.markers(universe, code).items()) == list(zip(universe.vertex_ids, digits))


def test_clock_graph_builds_states_only_when_read(medial_universes, monkeypatch):
    # the clock graph lists state codes and decodes none of them
    u, _doc = medial_universes["medial_ladder3"]
    decoded = []
    real = fkt.markers
    monkeypatch.setattr(fkt, "markers", lambda universe, code: decoded.append(code) or real(universe, code))
    codes, _ends, _targets = fkt.clock_graph(u, cap=None)
    assert decoded == []
    assert codes == fkt.enumerate_states(u, cap=None)


@pytest.mark.parametrize("name", ["curl", "hopf", "figure_eight"])
def test_clock_graph_structure(universes, name):
    report = oracles.clock_report(fkt.clock_graph(universes[name]))
    assert report["ok"]
    assert report["weakly_connected"]
    assert report["acyclic"]
    assert report["unique_source"]
    assert report["unique_sink"]


def test_clock_graph_hopf_shape(universes):
    report = oracles.clock_report(fkt.clock_graph(universes["hopf"]))
    assert report["states"] == 2
    assert report["arcs"] == 1


def flat(outs):
    """A graph's out-lists as ``clock_report``'s one flat out-list ``(ends, targets)``."""
    return list(accumulate(map(len, outs), initial=0)), [j for out in outs for j in out]


def test_clock_graph_long_chain_needs_no_recursion():
    # a chain deeper than the interpreter's recursion limit
    n = 5000
    report = fkt.clock_report(*flat([[s + 1] if s + 1 < n else [] for s in range(n)]))
    assert report["states"] == n and report["arcs"] == n - 1
    assert report["acyclic"] and report["ok"]


def test_clock_graph_reports_a_cycle():
    report = fkt.clock_report(*flat([[(s + 1) % 3] for s in range(3)]))
    assert report["acyclic"] is False
    assert report["ok"] is False


def in_list_clock_report(outs):
    """The clock report from explicit in-lists, always with an undirected
    search for connectivity."""
    n = len(outs)
    ins = [[] for _ in range(n)]
    for i, out in enumerate(outs):
        for j in out:
            ins[j].append(i)

    seen = {0} if n else set()
    stack = [0] if n else []
    while stack:
        x = stack.pop()
        for y in outs[x] + ins[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    connected = len(seen) == n

    remaining = [len(p) for p in ins]
    ready = [i for i in range(n) if remaining[i] == 0]
    removed = 0
    while ready:
        x = ready.pop()
        removed += 1
        for y in outs[x]:
            remaining[y] -= 1
            if remaining[y] == 0:
                ready.append(y)
    acyclic = removed == n

    sources = [i for i in range(n) if not ins[i]]
    sinks = [i for i in range(n) if not outs[i]]
    report = {
        "states": n,
        "arcs": sum(map(len, outs)),
        "weakly_connected": connected,
        "acyclic": acyclic,
        "unique_source": len(sources) == 1,
        "unique_sink": len(sinks) == 1,
    }
    report["ok"] = connected and acyclic and len(sources) == 1 and len(sinks) == 1
    return report


HAND_DIGRAPHS = {
    "empty": [],
    "one vertex": [[]],
    "two-source disconnected dag": [[1], [], [3], []],
    "one-source dag with two sinks": [[1, 2], [], []],
    "3-cycle and an isolated vertex": [[1], [2], [0], []],
    "source feeding a 3-cycle": [[1], [2], [3], [1]],
}


@pytest.mark.parametrize("name", HAND_DIGRAPHS)
def test_clock_report_matches_in_list_report_on_hand_digraphs(name):
    outs = HAND_DIGRAPHS[name]
    assert fkt.clock_report(*flat(outs)) == in_list_clock_report(outs)


def random_digraphs(max_vertices=8):
    """Out-lists on up to ``max_vertices`` vertices; with ``forward`` every
    arc rises, so the graph is acyclic."""

    def outs(n):
        targets = st.lists(st.integers(0, n - 1), max_size=3).map(sorted) if n else st.nothing()
        return st.tuples(st.lists(targets, min_size=n, max_size=n), st.booleans())

    def build(drawn):
        lists, forward = drawn
        return [[j for j in out if j > i or not forward] for i, out in enumerate(lists)]

    return st.integers(0, max_vertices).flatmap(outs).map(build)


@given(random_digraphs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_clock_report_matches_in_list_report_on_random_digraphs(outs):
    assert fkt.clock_report(*flat(outs)) == in_list_clock_report(outs)


def per_state_out_lists(universe):
    """The clock graph's sorted out-lists, built state by state as before
    the flat out-list: one dict lookup per move, one sort per state."""
    found = list(fkt._search(universe, None))
    index = {c: i for i, (c, _deltas) in enumerate(found)}
    return [sorted(index[c + d] for d in deltas) for c, deltas in found]


def check_flat_clock_graph(universe):
    clock = fkt.clock_graph(universe, cap=None)
    outs = per_state_out_lists(universe)
    _codes, ends, targets = clock
    assert ends[0] == 0 and ends[-1] == len(targets) and len(ends) == len(outs) + 1
    assert [sorted(targets[a:b]) for a, b in zip(ends, ends[1:])] == outs
    assert list(map(list, oracles.clock_outs(clock))) == outs
    assert fkt.clock_report(ends, targets) == in_list_clock_report(outs)


# the medial universes of tests/test_golden.py
GOLDEN_MEDIAL_SPECS = {
    "medial_ladder3": ("ladder", 3),
    "medial_grid2": ("grid", 2),
    "medial_ladder4": ("ladder", 4),
    "medial_theta3": ("theta", 3),
    "medial_even_cycle3": ("even_cycle", 3),
}


@pytest.mark.parametrize("name", GOLDEN_MEDIAL_SPECS)
def test_flat_out_list_matches_per_state_out_lists_on_golden_universes(name):
    doc = generate_corpus(*GOLDEN_MEDIAL_SPECS[name])
    check_flat_clock_graph(fkt.parse_universe(medial_universe_document(doc, doc["edges"][0]["darts"][0])))


def test_flat_out_list_matches_per_state_out_lists_on_shuffled_ladder5():
    doc = generate_corpus("ladder", 5)
    medial = medial_universe_document(doc, doc["edges"][0]["darts"][0])
    u = fkt.parse_universe(shuffled_crossings(medial, 5))
    assert u.cut is None  # the memo declines
    check_flat_clock_graph(u)


@given(plane_bipartite_maps())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_random_medial_flat_out_lists_match_per_state_out_lists(doc):
    check_flat_clock_graph(fkt.parse_universe(medial_universe_document(doc, doc["edges"][0]["darts"][0])))


def test_universe_dual_hopf_is_four_cycle(universes, graphs):
    dual = fkt.universe_dual_graph(universes["hopf"])
    assert pg.canonical_form(dual) == pg.canonical_form(graphs["cycle4"])


def test_universe_dual_curl_is_path(universes):
    # hand construction: three regions in a row give a two-edge path
    dual = fkt.universe_dual_graph(universes["curl"])
    assert len(dual.vertices) == 3
    assert len(dual.edges) == 2
    assert sorted(len(v.rotation) for v in dual.vertices.values()) == [1, 1, 2]


def test_universe_dual_figure_eight(universes):
    dual = fkt.universe_dual_graph(universes["figure_eight"])
    assert len(dual.vertices) == 6
    assert len(dual.edges) == 8
    assert len(dual.faces) == 4


def test_universe_dual_faces_are_quadrilaterals(universes):
    for name, u in universes.items():
        dual = fkt.universe_dual_graph(u)
        assert all(len(f.boundary) == 4 for f in dual.faces.values()), name
        assert pg.validate_bipartite_plane(dual).keys() == dual.vertices.keys(), name


@pytest.mark.parametrize("name,expected", [("curl", 1), ("hopf", 2), ("figure_eight", 5)])
def test_states_vs_configurations(universes, name, expected):
    report = fkt.states_vs_configurations(universes[name])
    assert report["states"] == report["tight_configurations"] == report["magic"] == str(expected)
    assert report["ok"] and report["bijective"]


def test_state_count_independent_of_star_choice():
    # any adjacent pair of faces gives the same number of states
    doc = fkt.hopf_universe()
    g = pg.parse_graph({k: v for k, v in doc.items() if k != "stars"})
    counts = set()
    for eid in g.edges:
        a, b = g.edges[eid].darts
        stars = sorted({g.face_of(a), g.face_of(b)})
        if len(stars) != 2:
            continue
        u = fkt.parse_universe({**doc, "stars": stars})
        counts.add(len(fkt.enumerate_states(u)))
    assert counts == {2}


def test_magic_of_dual_trinity_matches_states(universes):
    for name, u in universes.items():
        trin = tr.build_trinity(fkt.universe_dual_graph(u))
        assert trees.magic_number(trin).value == len(fkt.enumerate_states(u)), name
