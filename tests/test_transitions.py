"""Bypass moves, the configuration graph and its classification."""

import collections
import itertools
import json
import math
import operator
from array import array

import pytest
from hypothesis import assume, given, settings

import oracles
from random_maps import plane_bipartite_maps
from trinities import dividing as dv
from trinities import hypertrees as ht
from trinities import cli, plane_graph, trinity
from trinities import transitions as tx
from trinities import trees
from trinities.cli import generate_corpus
from trinities.limits import CapExceeded


def _generated(family, size):
    doc = generate_corpus(family, size)
    return trinity.build_trinity(plane_graph.ensure_bicoloured(plane_graph.parse_graph(doc)))


def _product_oracle(t):
    """Diagram index tuples of the tight configurations, filtered from the product."""
    faces = sorted(t.red)
    per_face = [dv.enumerate_chord_diagrams(t.n_r[f]) for f in faces]
    kept = []
    for choice in itertools.product(*(range(len(d)) for d in per_face)):
        config = dv.Configuration.from_diagrams(
            t, {f: diagrams[k] for f, diagrams, k in zip(faces, per_face, choice)}
        )
        if dv.loop_count(config) == 1:
            kept.append(choice)
    return kept, per_face


def _bucket_pair_edges(choices):
    """Index pairs differing on one face, from every pair of each bucket."""
    edges = set()
    for axis in range(len(choices[0])):
        buckets = {}
        for idx, choice in enumerate(choices):
            buckets.setdefault(choice[:axis] + choice[axis + 1:], []).append(idx)
        for group in buckets.values():
            edges.update(itertools.combinations(group, 2))
    return tuple(sorted(edges))


def _prefix_trie(parts):
    """Chord tries built from diagram pairs by prefix comparison, one after another.

    ``parts`` lists each face's point offset and diagrams in matcher order.
    A new node's child is the node made next; a leaf's child is the first
    node of the next part (past the end after the last part).
    """
    a, b, child, sibling, leaf = [], [], [], [], []
    for lo, face_diagrams in parts:
        n = face_diagrams[0].n
        path = [0] * n
        previous = [None] * n
        leaves = []
        for k, diagram in enumerate(face_diagrams):
            pairs = diagram.pairs()
            depth = 0
            while pairs[depth] == previous[depth]:
                depth += 1
            if k:
                sibling[path[depth]] = len(a)
            for i in range(depth, len(pairs)):
                path[i] = len(a)
                a.append(lo + pairs[i][0])
                b.append(lo + pairs[i][1])
                child.append(len(a))
                sibling.append(-1)
                leaf.append(-1)
            leaf[-1] = k
            leaves.append(len(a) - 1)
            previous = pairs
        for x in leaves:
            child[x] = len(a)
    return a, b, child, sibling, leaf


@pytest.mark.parametrize("n", range(1, 9))
def test_search_trie_matches_the_prefix_trie(n):
    trie, partners = dv.chord_trie(n)
    assert trie == _prefix_trie([(0, dv.enumerate_chord_diagrams(n))])
    leaves = [k for k in trie[4] if k >= 0]
    assert leaves == list(range(dv.catalan(n)))
    assert [partners[k] for k in leaves] == [d.partner for d in dv.enumerate_chord_diagrams(n)]


def test_concatenated_tries_match_the_prefix_tries(trinities):
    for name, t in trinities.items():
        tries = [dv.chord_trie(t.n_r[f])[0] for f in t.red]
        parts = [(t.offset[f], dv.enumerate_chord_diagrams(t.n_r[f])) for f in t.red]
        assert tx._chord_tries(t, tries) == _prefix_trie(parts), name


def test_building_reads_only_the_diagrams_of_tight_choices(monkeypatch):
    t = _generated("path", 8)
    built = []
    real = dv.ChordDiagram
    monkeypatch.setattr(tx, "ChordDiagram", lambda partner: built.append(partner) or real(partner))
    cg = tx.build_configuration_graph(t)
    assert len({k for (k,) in cg.choices}) == len(cg.choices) == 174
    # the region, Euler and hug tables read partner tuples, and each
    # component's representative is checked on them: no diagram is built
    assert cg.component_count() == 1
    # nor does the report of every vertex: it reads the partner tuples
    for i in range(len(cg.choices)):
        cg.vertex_json(i)
    assert built == []
    expected = dv.enumerate_chord_diagrams(8)
    assert len(expected) == 1430
    assert cg.diagrams[0] == tuple(d.partner for d in expected)
    # only a vertex's Configuration builds diagrams, one per face
    cg.vertex(0)
    assert built == [cg.diagrams[0][cg.choices[0][0]]]


def test_building_leaves_the_glue_unchanged(trinities, monkeypatch):
    # the walk joins path ends on its own copy of the glue, so neither a
    # full build nor one stopped by a model failure rewires the trinity's
    for t in trinities.values():
        glue = list(t.glue)
        tx.build_configuration_graph(t)
        assert t.glue == glue
    t = trinities["running11"]
    glue = list(t.glue)
    monkeypatch.setattr(dv, "glued_loops", lambda chord, glue: 2)
    with pytest.raises(tx.BuiltNotTight, match="close into 2 curves"):
        tx.build_configuration_graph(t)
    assert t.glue == glue


def test_no_moves_with_two_chords():
    for d in dv.enumerate_chord_diagrams(2):
        assert oracles.bypass_moves(d) == set()


def test_three_nested_chords_rotate_both_ways():
    d = dv.ChordDiagram.from_pairs(3, [(0, 5), (1, 4), (2, 3)])
    targets = oracles.bypass_moves(d)
    assert targets == {
        dv.ChordDiagram.from_pairs(3, [(0, 1), (2, 5), (3, 4)]),
        dv.ChordDiagram.from_pairs(3, [(0, 3), (1, 2), (4, 5)]),
    }


def test_rotation_cycle_closes():
    a = dv.ChordDiagram.from_pairs(3, [(0, 5), (1, 4), (2, 3)])
    b = dv.ChordDiagram.from_pairs(3, [(0, 1), (2, 5), (3, 4)])
    c = dv.ChordDiagram.from_pairs(3, [(0, 3), (1, 2), (4, 5)])
    assert oracles.bypass_moves(b) == {a, c}
    assert oracles.bypass_moves(c) == {a, b}


def test_side_by_side_chords_admit_no_move():
    # no chord separates the other two, so no attaching arc crosses them
    d = dv.ChordDiagram.from_pairs(3, [(0, 1), (2, 3), (4, 5)])
    assert oracles.bypass_moves(d) == set()


def test_moves_preserve_matching_validity():
    for n in (3, 4):
        for d in dv.enumerate_chord_diagrams(n):
            for d2 in oracles.bypass_moves(d):
                assert d2.n == n  # construction re-validates non-crossing


def test_moves_are_symmetric():
    for n in (3, 4):
        for d in dv.enumerate_chord_diagrams(n):
            for d2 in oracles.bypass_moves(d):
                assert d in oracles.bypass_moves(d2)


def _disc_euler(t, fid, diagram):
    return dv.euler_and_hug(dv.disc_regions(t, fid, diagram))[0]


def test_bypass_moves_preserve_disc_euler(trinities):
    checked = 0
    for t in trinities.values():
        for fid in t.red:
            if t.n_r[fid] > 4:
                continue
            for d in dv.enumerate_chord_diagrams(t.n_r[fid]):
                e0 = _disc_euler(t, fid, d)
                for d2 in oracles.bypass_moves(d):
                    assert _disc_euler(t, fid, d2) == e0
                    checked += 1
    assert checked > 100


def test_configuration_graph_single_edge(trinities):
    cg = tx.build_configuration_graph(trinities["path1"])
    assert len(cg.vertices) == 1
    assert cg.edges == ()
    assert cg.component_count() == 1
    assert cg.total_configurations == 1


def test_configuration_graph_four_cycle(trinities):
    cg = tx.build_configuration_graph(trinities["cycle4"])
    assert cg.total_configurations == 4
    assert len(cg.vertices) == 2
    assert cg.edges == ()  # single-face replacements break tightness
    assert cg.component_count() == 2


def test_configuration_graph_cap(graphs):
    with pytest.raises(CapExceeded):
        tx.build_configuration_graph(trinity.build_trinity(graphs["grid2"], cap=100))


def test_component_count_equals_magic(trinities):
    for name, t in trinities.items():
        cg = tx.build_configuration_graph(t)
        assert cg.component_count() == trees.magic_number(t).value, name


def _search_components(cg):
    """Component ids of the graph on ``cg.edges``, found by a search from
    each unseen vertex in vertex order, so numbered by smallest member."""
    adjacent = {i: set() for i in range(len(cg.choices))}
    for i, j in cg.edges:
        adjacent[i].add(j)
        adjacent[j].add(i)
    seen = {}
    count = 0
    for start in range(len(cg.choices)):
        if start in seen:
            continue
        stack = [start]
        while stack:
            v = stack.pop()
            if v not in seen:
                seen[v] = count
                stack.extend(adjacent[v])
        count += 1
    return tuple(seen[i] for i in range(len(cg.choices)))


def test_components_are_numbered_by_smallest_member(trinities):
    for name, t in trinities.items():
        cg = tx.build_configuration_graph(t)
        assert cg.component_of == _search_components(cg), name


def test_edges_join_single_face_differences(trinities):
    t = trinities["cycle6"]
    cg = tx.build_configuration_graph(t)
    for i, j in cg.edges:
        a, b = cg.vertices[i], cg.vertices[j]
        differing = [f for f in t.red if oracles.diagram(a, f) != oracles.diagram(b, f)]
        assert len(differing) == 1


def test_bypass_edges_stay_in_component(trinities):
    for name in ("cycle6", "ladder3", "running11"):
        t = trinities[name]
        cg = tx.build_configuration_graph(t)
        index = {v: i for i, v in enumerate(cg.vertices)}
        for v in cg.vertices:
            for target in oracles.config_bypass_moves(v):
                if target in index:
                    assert cg.component_of[index[target]] == cg.component_of[index[v]]
                    # a lifted move is also a single-face edge of the graph
                    pair = tuple(sorted((index[v], index[target])))
                    assert pair in set(cg.edges)


def _bypass_partition(cg):
    """Component ids of the tight configurations joined by bypass moves,
    numbered by smallest member."""
    index = {v: i for i, v in enumerate(cg.vertices)}
    pairs = [
        (i, index[target])
        for i, v in enumerate(cg.vertices)
        for target in oracles.config_bypass_moves(v)
        if target in index
    ]
    return oracles.partition(len(cg.vertices), pairs)


def test_bypass_moves_give_the_component_partition(trinities):
    # the converse of test_bypass_edges_stay_in_component: bypass moves
    # alone join every component of the one-face graph
    for name, t in trinities.items():
        cg = tx.build_configuration_graph(t)
        assert _bypass_partition(cg) == cg.component_of, name


@given(plane_bipartite_maps())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_random_map_bypass_moves_give_the_component_partition(doc):
    t = trinity.build_trinity(plane_graph.ensure_bicoloured(plane_graph.parse_graph(doc)))
    assume(math.prod(dv.catalan(n) for n in t.n_r.values()) <= 20_000)
    cg = tx.build_configuration_graph(t)
    assume(len(cg.choices) <= 300)
    assert _bypass_partition(cg) == cg.component_of


def test_classification_single_edge(trinities):
    cg = tx.build_configuration_graph(trinities["path1"])
    tx.classify_components(cg)
    (component,) = cg.components
    assert set(component.hypertree.values()) == {0}


def test_classification_four_cycle(trinities):
    t = trinities["cycle4"]
    cg = tx.build_configuration_graph(t)
    tx.classify_components(cg)
    faces = sorted(t.red)
    eulers = {tuple(c.euler[f] for f in faces) for c in cg.components}
    assert eulers == {(1, -1), (-1, 1)}
    hypertrees = {tuple(c.hypertree[f] for f in faces) for c in cg.components}
    assert hypertrees == {(1, 0), (0, 1)}


def test_classification_bijection_everywhere(trinities):
    for name, t in trinities.items():
        cg = tx.build_configuration_graph(t)
        tx.classify_components(cg)
        expected = set(ht.enumerate_hypertrees(ht.trinity_hypergraph(t, "ER")))
        got = {tuple(sorted(c.hypertree.items())) for c in cg.components}
        assert got == expected


def test_components_have_tree_hugging_representatives(trinities):
    for t in trinities.values():
        cg = tx.build_configuration_graph(t)
        for component in cg.components:
            rep = cg.vertices[component.representative]
            hugging, witness = dv.is_tree_hugging(rep)
            assert hugging
            degrees = oracles.degrees(t.graph_index("violet"), witness, "red")
            assert {f: d - 1 for f, d in degrees.items()} == component.hypertree


def members_of(graph, component):
    """The component's members in vertex order, read off ``component_of``."""
    return [i for i, c in enumerate(graph.component_of) if c == component.id]


def _first_hugging_member(graph, component):
    """The representative as the probe loop chose it: the first member that hugs a tree."""
    for i in members_of(graph, component):
        if dv.is_tree_hugging(graph.vertex(i))[0]:
            return i
    return None


def test_representatives_match_the_probe_loop(trinities):
    for name, t in trinities.items():
        cg = tx.build_configuration_graph(t)
        for component in cg.components:
            assert component.representative == _first_hugging_member(cg, component), name


@given(plane_bipartite_maps())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_random_map_representatives_match_the_probe_loop(doc):
    t = trinity.build_trinity(plane_graph.ensure_bicoloured(plane_graph.parse_graph(doc)))
    assume(math.prod(dv.catalan(n) for n in t.n_r.values()) <= 20_000)
    cg = tx.build_configuration_graph(t)
    for component in cg.components:
        assert component.representative == _first_hugging_member(cg, component)


def test_hug_flags_follow_the_signed_regions_rule(trinities):
    # the oracle reads the region list: positives minus negatives, and at
    # most one negative region with more than one arc
    hugging = spread = 0
    for t in trinities.values():
        for fid in t.red:
            for diagram in dv.enumerate_chord_diagrams(t.n_r[fid]):
                found = dv.disc_regions(t, fid, diagram)
                positives = [arcs for sign, arcs in found if sign == 1]
                negatives = [arcs for sign, arcs in found if sign == -1]
                assert len(positives) + len(negatives) == len(found)
                hugs = sum(len(arcs) > 1 for arcs in negatives) <= 1
                assert dv.euler_and_hug(found) == (len(positives) - len(negatives), hugs)
                hugging += hugs
                spread += not hugs
    assert hugging > 0 and spread > 0


def test_euler_constant_on_components(trinities):
    for t in trinities.values():
        cg = tx.build_configuration_graph(t)
        for component in cg.components:
            members = members_of(cg, component)
            assert component.size == len(members)
            for i in members:
                assert dv.euler_vector(cg.vertices[i]) == component.euler


def test_classification_json(trinities):
    cg = tx.build_configuration_graph(trinities["cycle4"])
    doc = tx.classification_json(cg)
    assert set(doc) == {"components"}
    assert len(doc["components"]) == 2
    for comp, component in zip(doc["components"], cg.components):
        assert set(comp) == {"id", "size", "euler", "hypertree", "tree_hugging_rep"}
        assert set(comp["tree_hugging_rep"]) == {"faces", "euler"}
        assert dv.is_tight(cg.vertex(component.representative)).tight


@given(plane_bipartite_maps())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_random_map_classification(doc):
    t = trinity.build_trinity(plane_graph.ensure_bicoloured(plane_graph.parse_graph(doc)))
    assume(math.prod(dv.catalan(n) for n in t.n_r.values()) <= 20_000)
    cg = tx.build_configuration_graph(t)
    # the builder checks Euler constancy and tree-hugging reachability, and
    # classify_components raises unless the components biject onto the ER hypertrees
    tx.classify_components(cg)
    dual = t.directed_dual("violet")
    assert cg.component_count() == trees.count_arborescences(dual, min(dual.vertices))
    for component in cg.components:
        assert sum(component.euler.values()) == len(t.emerald) - len(t.violet)


def test_valence_concentration_already_hugging(trinities):
    t = trinities["cycle4"]
    tree = next(iter(trees.enumerate_spanning_trees(t.graph_index("violet"))))
    config = dv.tree_hugging(t, tree)
    path = oracles.valence_concentration_path(config)
    assert path == [config]


def test_valence_concentration_terminates_tree_hugging(trinities):
    # includes graphs with an octagonal face (half-length 4)
    for name in ("ladder3", "running11", "grid2"):
        t = trinities[name]
        assert max(t.n_r.values()) >= 4
        cg = tx.build_configuration_graph(t)
        budget = 1 + sum(t.n_r.values())
        for v in cg.vertices:
            path = oracles.valence_concentration_path(v)
            assert len(path) <= budget
            hugging, _ = dv.is_tree_hugging(path[-1])
            assert hugging
            for a, b in zip(path, path[1:]):
                differing = [f for f in t.red if oracles.diagram(a, f) != oracles.diagram(b, f)]
                assert len(differing) == 1
                assert dv.is_tight(b).tight


BEYOND_CORPUS = {"even_cycle5": ("even_cycle", 5), "even_cycle6": ("even_cycle", 6), "ladder5": ("ladder", 5)}


@pytest.mark.parametrize(
    "name",
    ["path1", "path2", "cycle4", "cycle6", "theta3", "ladder3", "grid2", "running11", *BEYOND_CORPUS],
)
def test_builder_matches_the_product_filter(trinities, name):
    t = _generated(*BEYOND_CORPUS[name]) if name in BEYOND_CORPUS else trinities[name]
    choices, per_face = _product_oracle(t)
    cg = tx.build_configuration_graph(t)
    assert cg.choices == tuple(choices)
    assert cg.vertices == tuple(
        dv.Configuration.from_diagrams(
            t, {f: diagrams[k] for f, diagrams, k in zip(sorted(t.red), per_face, choice)}
        )
        for choice in choices
    )
    assert cg.edges == _bucket_pair_edges(choices)


def _doubled_edge_cycle(k):
    """The 2k-cycle v0 ... v(2k-1) with its edge v0 v1 doubled.

    The two copies, y and z, have the last darts in sorted order, so the
    digon between them, a face of half-length 1, is the last face.
    """
    ids = ["y"] + [f"e{i}" for i in range(1, 2 * k)]
    rotations = [[f"{ids[i]}.0", f"{ids[i - 1]}.1"] for i in range(2 * k)]
    rotations[0].insert(1, "z.0")
    rotations[1].insert(1, "z.1")
    doc = {
        "vertices": [{"id": f"v{i}", "colour": None, "rotation": r} for i, r in enumerate(rotations)],
        "edges": [{"id": e, "darts": [f"{e}.0", f"{e}.1"]} for e in ids + ["z"]],
    }
    return trinity.build_trinity(plane_graph.ensure_bicoloured(plane_graph.parse_graph(doc)))


DOUBLED_EDGE_CYCLES = {"doubled2": 1, "doubled6": 3}


@pytest.mark.parametrize(
    "name, chords, last_n",
    [("path1", 1, 1), ("doubled2", 3, 1), ("doubled6", 7, 1), ("cycle6", 6, 3), ("ladder3", 10, 2)],
)
def test_the_forced_last_chord_keeps_the_product_filter(trinities, name, chords, last_n):
    # the walk reads the last chord off its parent: a single chord, a last
    # face of half-length 1 and one of half-length at least 2
    k = DOUBLED_EDGE_CYCLES.get(name)
    t = _doubled_edge_cycle(k) if k else trinities[name]
    assert (sum(t.n_r.values()), t.n_r[t.red[-1]]) == (chords, last_n)
    choices, _ = _product_oracle(t)
    assert tx.build_configuration_graph(t).choices == tuple(choices)


# closed meander numbers M_1..M_7 (OEIS A005315; Lando and Zvonkin 1993):
# both faces of the 2k-cycle are discs of half-length k, and a tight
# configuration is a pair of arch systems that close into one curve
CLOSED_MEANDERS = (1, 2, 8, 42, 262, 1828, 13820)


@pytest.mark.parametrize("k", range(1, 8))
def test_even_cycle_tight_configurations_are_closed_meanders(k):
    t = _generated("even_cycle", k)
    assert len(tx.build_configuration_graph(t).choices) == CLOSED_MEANDERS[k - 1]


@given(plane_bipartite_maps())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_random_map_builder_matches_the_product_filter(doc):
    t = trinity.build_trinity(plane_graph.ensure_bicoloured(plane_graph.parse_graph(doc)))
    assume(math.prod(dv.catalan(n) for n in t.n_r.values()) <= 20_000)
    choices, _ = _product_oracle(t)
    cg = tx.build_configuration_graph(t)
    # the oracle lists the product in order, and the builder sorts nothing
    assert cg.choices == tuple(choices)
    assert cg.edges == _bucket_pair_edges(choices)
    assert cg.component_of == _search_components(cg)


def test_builder_checks_each_tight_configuration_once(monkeypatch):
    t = _generated("even_cycle", 6)
    calls = {"glued_loops": 0}
    real_glued_loops = dv.glued_loops

    def glued_loops(chord, glue):
        calls["glued_loops"] += 1
        return real_glued_loops(chord, glue)

    monkeypatch.setattr(dv, "glued_loops", glued_loops)
    cg = tx.build_configuration_graph(t)
    assert cg.total_configurations == 17424
    assert len(cg.choices) == 1828
    # one walk per vertex, and none for the representatives' checks
    assert calls["glued_loops"] == len(cg.choices)


def test_building_makes_no_configuration(monkeypatch):
    t = _generated("even_cycle", 6)
    made = []
    real_init = dv.Configuration.__init__
    monkeypatch.setattr(
        dv.Configuration, "__init__", lambda config, *args: made.append(config) or real_init(config, *args)
    )
    monkeypatch.setattr(tx, "ChordDiagram", lambda partner: made.append(partner) or dv.ChordDiagram(partner))
    # the integer check stands in for these, which build a Configuration
    # and a ChordDiagram per face
    for name in ("is_tree_hugging", "tree_hugging"):
        monkeypatch.setattr(dv, name, _raise(AssertionError(f"the build called {name}")))
    cg = tx.build_configuration_graph(t)
    assert len(cg.choices) == 1828 and cg.component_count() == 6
    assert made == []


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


def _check_hugged_tree(cg, regions, i):
    """Check that the integer check on vertex i gives ``is_tree_hugging``'s
    verdict and witness; return the verdict."""
    hugging, witness = dv.is_tree_hugging(cg.vertex(i))
    verdict, positions = tx._hugged_tree(cg, regions, i)
    assert verdict == hugging, i
    if hugging:
        assert set(positions) == set(witness), i
    else:
        assert positions is None, i
    return hugging


def test_hugged_tree_matches_is_tree_hugging_on_every_member(trinities):
    # every member of every corpus graph, representatives among them
    verdicts = []
    for t in trinities.values():
        cg = tx.build_configuration_graph(t)
        regions = [{} for _ in cg.diagrams]  # filled as the checks read them
        verdicts += [_check_hugged_tree(cg, regions, i) for i in range(len(cg.choices))]
    assert True in verdicts and False in verdicts


@given(plane_bipartite_maps())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_random_map_hugged_tree_matches_is_tree_hugging(doc):
    t = trinity.build_trinity(plane_graph.ensure_bicoloured(plane_graph.parse_graph(doc)))
    assume(math.prod(dv.catalan(n) for n in t.n_r.values()) <= 20_000)
    cg = tx.build_configuration_graph(t)
    regions = [{} for _ in cg.diagrams]
    for i in range(len(cg.choices)):
        _check_hugged_tree(cg, regions, i)


def test_vertex_builds_the_listed_configuration(trinities):
    for name, t in trinities.items():
        cg = tx.build_configuration_graph(t)
        assert len(cg.vertices) == len(cg.choices), name
        for i in range(len(cg.choices)):
            assert cg.vertex(i) == cg.vertices[i], (name, i)


def test_a_late_member_euler_mismatch_is_caught(trinities, monkeypatch):
    t = trinities["cycle6"]
    cg = tx.build_configuration_graph(t)
    members = {c: members_of(cg, c) for c in cg.components}
    component = max(cg.components, key=lambda c: c.size)
    assert component.size > 2
    last = cg.choices[members[component][-1]]
    # a disc of the last member on which no component's first two members
    # differ and which the component's first member lacks: a check of fewer
    # members than all of them sees no mismatch there
    axis = next(
        a for a, k in enumerate(last)
        if all(len({cg.choices[i][a] == k for i in members[c][:2]}) == 1 for c in cg.components)
        and cg.choices[members[component][0]][a] != k
    )
    fid, diagram = cg.vertex(members[component][-1]).entries[axis]
    real = dv.regions

    def regions(face, partner, sign):
        out = real(face, partner, sign)
        # two more positive regions raise the disc's Euler contribution by 2
        return out + [(1, [])] * 2 if (face, partner) == (fid, diagram.partner) else out

    monkeypatch.setattr(dv, "regions", regions)
    with pytest.raises(tx.EulerNotConstant, match="mixes Euler vectors"):
        tx.build_configuration_graph(t)


def test_a_single_member_euler_fault_names_its_component(tmp_path, capsys, monkeypatch):
    # a disc diagram that one vertex alone uses, in a component of more
    # than one member: raising its Euler value mixes that component only
    doc = generate_corpus("ladder", 3)
    t = _generated("ladder", 3)
    cg = tx.build_configuration_graph(t)
    used = collections.Counter((a, k) for choice in cg.choices for a, k in enumerate(choice))
    axis, k, i = next(
        (a, k, i)
        for i, choice in enumerate(cg.choices)
        for a, k in enumerate(choice)
        if used[a, k] == 1 and cg.components[cg.component_of[i]].size > 1
    )
    cid = cg.component_of[i]
    assert cid > 0
    fid, partner = t.red[axis], cg.diagrams[axis][k]
    real = dv.regions

    def regions(face, partners, sign):
        out = real(face, partners, sign)
        # two more positive regions raise the disc's Euler contribution by 2
        return out + [(1, [])] * 2 if (face, partners) == (fid, partner) else out

    monkeypatch.setattr(dv, "regions", regions)
    reason = f"component {cid} mixes Euler vectors"
    with pytest.raises(tx.EulerNotConstant) as caught:
        tx.build_configuration_graph(t)
    assert str(caught.value) == reason
    path = tmp_path / "ladder3.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", "--graph", str(path)]) == 1
    stage = json.loads(capsys.readouterr().out)["stages"]["classification"]
    assert stage == {"ok": False, "reason": "EulerNotConstant: " + reason}


def _curves(t, config):
    """The point sets of the closed curves of a configuration, walked on the glue."""
    chord = {}
    for fid, diagram in config.entries:
        lo = t.offset[fid]
        chord.update((lo + x, lo + y) for x, y in enumerate(diagram.partner))
    curves, seen = [], set()
    for start in range(len(t.glue)):
        curve, p = set(), start
        while p not in seen:
            curve.update((p, chord[p]))
            seen.update((p, chord[p]))
            p = t.glue[chord[p]]
        if curve:
            curves.append(curve)
    return curves


def test_non_tight_configurations_are_caught_with_their_curve_count(monkeypatch):
    # each non-tight configuration in turn joins the walk's output, in
    # order; the build names it with its curve count
    through = collections.Counter()  # by family and whether every curve meets the big face
    for family in ("ladder", "grid"):
        t = _generated(family, 2)
        tight, per_face = _product_oracle(t)
        faces, sizes = sorted(t.red), [len(d) for d in per_face]
        strides = [math.prod(sizes[a + 1:]) for a in range(len(sizes))]
        big = max(range(len(faces)), key=lambda a: (sizes[a], a))
        assert big != len(faces) - 1  # so the groups are not runs of the vertex order
        lo, hi = t.offset[faces[big]], t.offset[faces[big]] + 2 * t.n_r[faces[big]]
        for bad in itertools.product(*map(range, sizes)):
            if bad in tight:
                continue
            emitted = tuple(sorted([*tight, bad]))
            codes = array("q", (sum(map(operator.mul, choice, strides)) for choice in emitted))
            monkeypatch.setattr(tx, "_tight_choices", lambda trinity, tries, strides: (emitted, codes))
            config = dv.Configuration.from_diagrams(t, {f: d[k] for f, d, k in zip(faces, per_face, bad)})
            with pytest.raises(tx.BuiltNotTight) as caught:
                tx.build_configuration_graph(t)
            loops = dv.loop_count(config)
            assert str(caught.value) == f"diagrams {dict(zip(faces, bad))} close into {loops} curves"
            curves = _curves(t, config)
            assert len(curves) == loops > 1
            through[family, all(any(lo <= p < hi for p in curve) for curve in curves)] += 1
    # a curve closed off the big face, and extra curves that all run through it
    assert through[("grid", False)] and through[("ladder", True)], through


@given(plane_bipartite_maps())
@settings(max_examples=50, deadline=None, derandomize=True)
def test_random_map_component_euler_is_every_member_euler(doc):
    t = trinity.build_trinity(plane_graph.ensure_bicoloured(plane_graph.parse_graph(doc)))
    assume(math.prod(dv.catalan(n) for n in t.n_r.values()) <= 20_000)
    cg = tx.build_configuration_graph(t)
    for component in cg.components:
        for i in members_of(cg, component):
            assert dv.euler_vector(cg.vertex(i)) == component.euler
