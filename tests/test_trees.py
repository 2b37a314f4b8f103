"""Exact counting and enumeration of spanning trees and arborescences."""

import random
import sys
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from random_maps import plane_bipartite_maps
from trinities import plane_graph, trees
from trinities import trinity as trinity_mod
from trinities.limits import CapExceeded
from trinities.trinity import DirectedDual


def permutation_determinant(rows):
    """Reference determinant by full permutation expansion (n <= 5)."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_bareiss_matches_permutation_expansion(rows):
    assert trees.bareiss_determinant(rows) == permutation_determinant(rows)


def brute_force_arborescences(dual, root):
    """Independent oracle: test every arc subset of size |V| - 1, by arc position."""
    n = len(dual.vertices)
    root = dual.vertices.index(root)
    hits = []
    for subset in combinations(enumerate(zip(dual.tail, dual.head)), n - 1):
        heads = [h for _e, (_t, h) in subset]
        if root in heads or len(set(heads)) != n - 1:
            continue
        parent = {h: t for _e, (t, h) in subset}
        ok = True
        for v in parent:
            u, hops = v, 0
            while u in parent and hops <= n:
                u = parent[u]
                hops += 1
            if u != root:
                ok = False
                break
        if ok:
            hits.append(frozenset(e for e, _arc in subset))
    return hits


def test_spanning_tree_counts_trivial(graphs):
    assert trees.spanning_tree_count(graphs["path1"]) == 1
    assert trees.spanning_tree_count(graphs["cycle4"]) == 4


def test_enumeration_matches_kirchhoff(graphs):
    for name, g in graphs.items():
        found = list(trees.enumerate_spanning_trees(trees.GraphIndex(g)))
        assert len(found) == trees.spanning_tree_count(g), name
        assert len(set(found)) == len(found)
        n_vertices = len(g.vertices)
        for t in found:
            assert len(t) == n_vertices - 1


def test_enumeration_deterministic(graphs):
    g = graphs["cycle6"]
    a = list(trees.enumerate_spanning_trees(trees.GraphIndex(g)))
    b = list(trees.enumerate_spanning_trees(trees.GraphIndex(g)))
    assert a == b


def test_four_cycle_violet_graph_trees_and_records(trinities):
    gv = trinities["cycle4"].graph_index("violet")
    found = list(trees.enumerate_spanning_trees(gv))
    assert len(found) == 4
    records = sorted(tuple(sorted(oracles.degrees(gv, t, "red").values())) for t in found)
    # two trees of red degrees (1,2) and two of (2,1) up to vertex order
    assert records == [(1, 2)] * 4
    distinct = {frozenset(oracles.degrees(gv, t, "red").items()) for t in found}
    assert len(distinct) == 2


def test_enumeration_cap(graphs):
    with pytest.raises(CapExceeded):
        list(trees.enumerate_spanning_trees(trees.GraphIndex(graphs["grid2"]), cap=10))


def brute_force_spanning_trees(graph):
    """Independent oracle: every acyclic edge subset of size |V| - 1."""
    edge_ids = sorted(e for e in graph.edges if not graph.is_loop(e))
    hits = set()
    for subset in combinations(edge_ids, len(graph.vertices) - 1):
        comp = {v: v for v in graph.vertices}

        def find(x):
            while comp[x] != x:
                x = comp[x]
            return x

        for eid in subset:
            u, v = (find(w) for w in graph.endpoints(eid))
            if u == v:
                break
            comp[u] = v
        else:
            hits.add(frozenset(subset))
    return hits


def tree_ids(index):
    """Each spanning tree the enumeration yields, as the set of its edge ids."""
    return [frozenset(map(index.edge_ids.__getitem__, tree)) for tree in trees.enumerate_spanning_trees(index)]


def test_enumeration_equals_subset_oracle(graphs, trinities):
    for name, t in trinities.items():
        for colour in ("violet", "emerald"):
            host = getattr(t, f"{colour}_graph")
            if len(host.edges) > 12:
                continue
            found = tree_ids(trees.GraphIndex(host))
            assert len(found) == len(set(found)), (name, colour)
            assert set(found) == brute_force_spanning_trees(host), (name, colour)
    for name, g in graphs.items():
        found = tree_ids(trees.GraphIndex(g))
        assert set(found) == brute_force_spanning_trees(g), name


# the first ten trees of grid 2 in the contraction/deletion order, each
# given by the four edges it leaves out
GRID2_PREFIX = (
    ("v1_0", "v1_1", "v2_0", "v2_1"),
    ("v0_1", "v1_0", "v2_0", "v2_1"),
    ("v0_1", "v1_0", "v1_1", "v2_0"),
    ("v0_0", "v1_1", "v2_0", "v2_1"),
    ("v0_0", "v1_0", "v1_1", "v2_1"),
    ("v0_0", "v0_1", "v2_0", "v2_1"),
    ("v0_0", "v0_1", "v1_1", "v2_0"),
    ("v0_0", "v0_1", "v1_0", "v2_1"),
    ("v0_0", "v0_1", "v1_0", "v1_1"),
    ("h1_2", "v1_0", "v1_1", "v2_0"),
)


def test_enumeration_order_frozen_on_grid2(graphs):
    g = graphs["grid2"]
    prefix = []
    for tree in tree_ids(trees.GraphIndex(g)):
        prefix.append(tuple(sorted(set(g.edges) - tree)))
        if len(prefix) == len(GRID2_PREFIX):
            break
    assert tuple(prefix) == GRID2_PREFIX


def test_enumeration_depth_does_not_grow_with_the_graph():
    # a path longer than the interpreter's recursion limit; cap=None skips
    # the Kirchhoff determinant, which is cubic in the vertex count
    k = 1200
    doc = {
        "vertices": [
            {
                "id": f"v{i}",
                "rotation": ([f"p{i - 1}.1"] if i else []) + ([f"p{i}.0"] if i < k else []),
            }
            for i in range(k + 1)
        ],
        "edges": [{"id": f"p{i}", "darts": [f"p{i}.0", f"p{i}.1"]} for i in range(k)],
    }
    (tree,) = trees.enumerate_spanning_trees(trees.GraphIndex(plane_graph.parse_graph(doc)), cap=None)
    assert len(tree) == k


def test_count_arborescences_loop_vertex(trinities):
    dual = trinities["path1"].directed_dual("violet")
    root = dual.vertices[0]
    assert trees.count_arborescences(dual, root) == 1
    found = trees.enumerate_arborescences(dual, root)
    assert [frozenset(a) for a in found] == [frozenset()]


def test_arborescence_order_is_lexicographic(trinities):
    # depth first over non-root vertices by position, each one's in-arcs by position
    for name, t in trinities.items():
        for colour in ("violet", "emerald", "red"):
            dual = t.directed_dual(colour)
            arcs = list(enumerate(zip(dual.tail, dual.head)))
            for r, root in enumerate(dual.vertices):
                others = [v for v in range(len(dual.vertices)) if v != r]
                rank = {v: sorted(e for e, (tail, head) in arcs if head == v and tail != v) for v in others}
                choices = []
                for found in trees.enumerate_arborescences(dual, root):
                    # one arc into each non-root vertex, in vertex order
                    assert [dual.head[x] for x in found] == others, (name, colour, root)
                    choices.append(tuple(rank[v].index(x) for v, x in zip(others, found)))
                assert choices == sorted(set(choices)), (name, colour, root)


def test_arborescence_search_needs_no_recursion():
    # a directed chain deeper than the interpreter's recursion limit
    n = sys.getrecursionlimit() + 100
    vertices = tuple(f"v{i:05d}" for i in range(n))
    dual = DirectedDual("red", vertices, list(range(n - 1)), list(range(1, n)))
    (found,) = trees.enumerate_arborescences(dual, vertices[0])
    assert frozenset(found) == frozenset(range(n - 1))


def test_unknown_root(trinities):
    dual = trinities["cycle4"].directed_dual("red")
    with pytest.raises(trees.UnknownRoot):
        trees.count_arborescences(dual, "nope")
    with pytest.raises(trees.UnknownRoot):
        trees.enumerate_arborescences(dual, "nope")


def test_four_cycle_red_dual_count_against_oracle(trinities):
    dual = trinities["cycle4"].directed_dual("red")
    for root in dual.vertices:
        oracle = brute_force_arborescences(dual, root)
        assert len(oracle) == 2
        assert trees.count_arborescences(dual, root) == 2
        found = trees.enumerate_arborescences(dual, root)
        assert {frozenset(a) for a in found} == set(oracle)


def test_determinant_equals_enumeration_everywhere(trinities):
    for name, t in trinities.items():
        for colour in ("violet", "emerald", "red"):
            dual = t.directed_dual(colour)
            for root in dual.vertices:
                det = trees.count_arborescences(dual, root)
                assert det == len(trees.enumerate_arborescences(dual, root)), (name, colour, root)


def test_arborescence_complements_are_spanning_trees(trinities):
    # planar duality by position: arc e crosses edge e of the colour graph,
    # so an arborescence of the dual leaves out a spanning tree of the graph
    for name, t in trinities.items():
        for colour in ("violet", "emerald", "red"):
            dual, index = t.directed_dual(colour), t.graph_index(colour)
            m, n = len(index.edge_ids), len(index.vertex_ids)
            assert len(dual.tail) == m, (name, colour)
            for root in dual.vertices:
                found = trees.enumerate_arborescences(dual, root)
                complements = {frozenset(range(m)) - set(arcs) for arcs in found}
                for tree in complements:
                    assert len(tree) == n - 1, (name, colour, root)
                    assert len(set(trees.components(index, tree))) == 1, (name, colour, root)
                assert len(complements) == len(found) == trees.count_arborescences(dual, root)


def test_root_independence(trinities):
    for t in trinities.values():
        for colour in ("violet", "emerald", "red"):
            dual = t.directed_dual(colour)
            counts = {trees.count_arborescences(dual, r) for r in dual.vertices}
            assert len(counts) == 1


def test_three_duals_agree(trinities):
    for t in trinities.values():
        values = {
            trees.count_arborescences(t.directed_dual(c), min(t.directed_dual(c).vertices))
            for c in ("violet", "emerald", "red")
        }
        assert len(values) == 1


def test_brute_force_oracle_on_running_example(trinities):
    # value frozen from this oracle before the determinant route existed
    dual = trinities["running11"].directed_dual("violet")
    root = min(dual.vertices)
    oracle = brute_force_arborescences(dual, root)
    assert len(oracle) == 11
    assert trees.count_arborescences(dual, root) == 11
    assert len(trees.enumerate_arborescences(dual, root)) == 11


def test_magic_number_trivial(trinities):
    report = trees.magic_number(trinities["path1"])
    assert report.value == 1
    assert report.agree
    assert set(report.det.values()) == {1}
    assert set(report.enum.values()) == {1}
    assert set(report.hypertrees.values()) == {1}


def test_magic_number_four_cycle(trinities):
    report = trees.magic_number(trinities["cycle4"])
    assert report.value == 2
    assert report.agree


def test_magic_number_running_example(trinities):
    report = trees.magic_number(trinities["running11"])
    assert report.value == 11  # frozen golden value from the subset oracle
    assert report.agree


def test_magic_report_json(trinities):
    doc = trees.magic_number(trinities["cycle4"]).to_json()
    assert doc["det"] == {"violet": "2", "emerald": "2", "red": "2"}
    assert doc["agree"] is True
    assert doc["hypertrees"]["ER"] == "2"


def test_exchange_path_identity(trinities):
    gv = trinities["cycle4"].graph_index("violet")
    t = next(iter(trees.enumerate_spanning_trees(gv)))
    assert oracles.exchange_classes(gv, [t], "red") == (0,)


def test_exchange_path_four_cycle_one_step(trinities):
    gv = trinities["cycle4"].graph_index("violet")
    all_trees = list(trees.enumerate_spanning_trees(gv))
    classes = oracles.exchange_classes(gv, all_trees, "red")
    groups = {}
    for i, t in enumerate(all_trees):
        groups.setdefault(frozenset(oracles.degrees(gv, t, "red").items()), []).append(i)
    for a, b in groups.values():
        # two trees per record, one exchange apart
        assert len(set(all_trees[a]) - set(all_trees[b])) == 1
        assert classes[a] == classes[b]
    assert len(set(classes)) == len(groups)


def test_exchange_paths_exist_for_all_same_record_pairs(trinities):
    # each same-record class of spanning trees is connected under one-edge exchanges
    for name, t in trinities.items():
        if t.n > 12:
            continue
        gv = t.graph_index("violet")
        found = list(trees.enumerate_spanning_trees(gv))
        number = {}
        records = (frozenset(oracles.degrees(gv, tree, "red").items()) for tree in found)
        by_record = tuple(number.setdefault(record, len(number)) for record in records)
        assert oracles.exchange_classes(gv, found, "red") == by_record, name


@given(plane_bipartite_maps())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_random_map_determinants_match_arborescence_counts(doc):
    t = trinity_mod.build_trinity(plane_graph.ensure_bicoloured(plane_graph.parse_graph(doc)))
    for colour in ("violet", "emerald", "red"):
        dual = t.directed_dual(colour)
        root = min(dual.vertices)
        count = trees.count_arborescences(dual, root)
        assert count == len(trees.enumerate_arborescences(dual, root)), colour


def bfs_components(graph, edge_ids):
    """Oracle: each vertex's component by breadth-first search, named by its first vertex."""
    adjacent = {v: [] for v in graph.vertices}
    for eid in edge_ids:
        u, v = graph.endpoints(eid)
        adjacent[u].append(v)
        adjacent[v].append(u)
    name = {}
    for v in sorted(graph.vertices):
        if v in name:
            continue
        name[v] = v
        queue = [v]
        for x in queue:
            for y in adjacent[x]:
                if y not in name:
                    name[y] = v
                    queue.append(y)
    return name


def test_components_match_breadth_first_search(trinities):
    rng = random.Random(16)
    for name, t in trinities.items():
        for colour in ("violet", "emerald", "red"):
            index = t.graph_index(colour)
            m, n = len(index.edge_ids), len(index.vertex_ids)
            for size in [0, m, min(n - 1, m)] + [rng.randint(0, m) for _ in range(30)]:
                chosen = rng.sample(range(m), size)
                roots = trees.components(index, chosen)
                oracle = bfs_components(index.graph, [index.edge_ids[e] for e in chosen])
                assert [index.vertex_ids[r] for r in roots] == [
                    oracle[v] for v in index.vertex_ids
                ], (name, colour, sorted(chosen))


def test_graph_index_counts_like_kirchhoff(trinities):
    for t in trinities.values():
        for colour in ("violet", "emerald", "red"):
            index = t.graph_index(colour)
            assert t.graph_index(colour) is index
            found = trees.enumerate_spanning_trees(index, cap=None)
            assert index.tree_count == len(list(found))


def test_cap_messages_name_the_refused_enumeration(graphs):
    t = trinity_mod.build_trinity(graphs["grid2"], cap=3)
    count = trees.spanning_tree_count(t.violet_graph)
    refused = rf"^spanning tree enumeration: {count} objects exceed cap 3$"
    with pytest.raises(CapExceeded, match=refused):
        t.hypertree_set("ER")
    # the report leaves the refused counts out and keeps the determinants
    report = t.magic_report
    assert report.det == {"violet": 15, "emerald": 15, "red": 15}
    assert set(report.enum.values()) == {None}
