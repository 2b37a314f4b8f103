"""Hypergraphs, hypertree enumeration and the affine identities."""

from itertools import combinations, product

import pytest
from hypothesis import given, settings

import oracles
from random_maps import plane_bipartite_maps

from trinities import cli, trees
from trinities import hypertrees as ht
from trinities import plane_graph as pg
from trinities import trinity as trinity_mod


def brute_force_degree_vectors(graph, hyperedge_colour):
    """Oracle: sweep all edge subsets of tree size, keep the spanning ones."""
    vertices = sorted(graph.vertices)
    hits = set()
    for subset in combinations(sorted(graph.edges), len(vertices) - 1):
        comp = {v: v for v in vertices}

        def find(x):
            while comp[x] != x:
                comp[x] = comp[comp[x]]
                x = comp[x]
            return x

        acyclic = True
        for eid in subset:
            u, v = graph.endpoints(eid)
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            comp[ru] = rv
        if not acyclic:
            continue
        degs = {v: 0 for v in vertices if graph.colour_of(v) == hyperedge_colour}
        for eid in subset:
            for v in graph.endpoints(eid):
                if v in degs:
                    degs[v] += 1
        hits.add(tuple(d - 1 for _v, d in sorted(degs.items())))
    return hits


def test_star_tree_hypertree():
    # star with an emerald centre of degree 3: f = 2 at the centre
    doc = {
        "vertices": [
            {"id": "c", "colour": "emerald", "rotation": ["s0.0", "s1.0", "s2.0"]},
            {"id": "l0", "colour": "violet", "rotation": ["s0.1"]},
            {"id": "l1", "colour": "violet", "rotation": ["s1.1"]},
            {"id": "l2", "colour": "violet", "rotation": ["s2.1"]},
        ],
        "edges": [
            {"id": "s0", "darts": ["s0.0", "s0.1"]},
            {"id": "s1", "darts": ["s1.0", "s1.1"]},
            {"id": "s2", "darts": ["s2.0", "s2.1"]},
        ],
    }
    index = trees.GraphIndex(pg.parse_graph(doc))
    tree = next(iter(trees.enumerate_spanning_trees(index)))
    vector = oracles.hypertree_of(index, tree, "emerald")
    assert vector == (2,)


def test_hypertree_of_wrong_class(trinities):
    gv = trinities["cycle4"].graph_index("violet")
    tree = next(iter(trees.enumerate_spanning_trees(gv)))
    with pytest.raises(ValueError, match="host graph has no 'violet' class"):
        oracles.hypertree_of(gv, tree, "violet")  # violet graph has no violet class


def test_single_edge_er_hypertrees(trinities):
    hg = ht.trinity_hypergraph(trinities["path1"], "ER")
    found = ht.enumerate_hypertrees(hg)
    assert [dict(zip(hg.ids, h)) for h in found] == [{"f0": 0}]


def test_four_cycle_er_hypertrees_match_oracle(trinities):
    t = trinities["cycle4"]
    hg = ht.trinity_hypergraph(t, "ER")
    found = set(ht.enumerate_hypertrees(hg))
    assert found == brute_force_degree_vectors(t.violet_graph, "red")
    assert sorted(found) == [(0, 1), (1, 0)]


def test_hypertree_bounds_and_sum(trinities):
    for t in trinities.values():
        hg = ht.trinity_hypergraph(t, "ER")
        host = hg.index.graph
        sizes = {h: len({host.target(d) for d in host.vertices[h].rotation}) for h in hg.ids}
        for vector in ht.enumerate_hypertrees(hg):
            vec = dict(zip(hg.ids, vector))
            assert sum(vec.values()) == len(t.emerald) - 1
            for h, f in vec.items():
                assert 0 <= f <= sizes[h] - 1


def test_witnesses_realize_their_vectors(trinities):
    for t in trinities.values():
        hg = ht.trinity_hypergraph(t, "ER")
        assert assert_witnesses_span_and_realize(hg) == t.hypertree_set("ER")


def test_all_six_counts_equal_magic(trinities):
    for name, t in trinities.items():
        magic = trees.magic_number(t).value
        for label in ht.HYPERGRAPH_LABELS:
            hg = ht.trinity_hypergraph(t, label)
            assert len(ht.enumerate_hypertrees(hg)) == magic, (name, label)


def test_abstract_dual_pairs_equinumerous(trinities):
    for t in trinities.values():
        for a, b in (("VE", "EV"), ("ER", "RE"), ("VR", "RV")):
            ha = ht.enumerate_hypertrees(ht.trinity_hypergraph(t, a))
            hb = ht.enumerate_hypertrees(ht.trinity_hypergraph(t, b))
            assert len(ha) == len(hb)


def test_hypertree_enumeration_cap(trinities):
    from trinities.limits import CapExceeded

    hg = ht.trinity_hypergraph(trinities["grid2"], "ER")
    with pytest.raises(CapExceeded):
        ht.enumerate_hypertrees(hg, cap=3)


def test_translate_offset_trivial():
    assert ht.translate_offset([(0,)], [(0,)]) == (0,)


def test_translate_offset_engineered_failure():
    set_a = [(0, 0)]
    set_b = [(0, 0), (1, 1)]
    assert ht.translate_offset(set_a, set_b) is None


def test_translate_offset_index_mismatch():
    with pytest.raises(ht.IndexMismatch, match="unequal length"):
        ht.translate_offset([(0,)], [(0, 0)])
    with pytest.raises(ht.IndexMismatch, match="empty"):
        ht.translate_offset([], [(0,)])


def test_planar_dual_pairs_are_translates(trinities):
    # pairs sharing a hyperedge set: (V,E)/(R,E), (E,R)/(V,R), (R,V)/(E,V)
    for name, t in trinities.items():
        for a, b in (("VE", "RE"), ("ER", "VR"), ("RV", "EV")):
            ha = ht.enumerate_hypertrees(ht.trinity_hypergraph(t, a))
            hb = ht.enumerate_hypertrees(ht.trinity_hypergraph(t, b))
            offset = ht.translate_offset(ha, hb)
            assert offset is not None, (name, a, b)


def test_planar_dual_pairs_share_hyperedge_ids(trinities):
    # translate_offset compares vectors position by position, so the two
    # sets of a pair must list the same hyperedges in the same order
    def check(t, name):
        for a, b in (("VE", "RE"), ("ER", "VR"), ("RV", "EV")):
            ids_a = ht.trinity_hypergraph(t, a).ids
            assert ids_a == ht.trinity_hypergraph(t, b).ids, (name, a, b)

    for name, t in trinities.items():
        check(t, name)

    @given(plane_bipartite_maps())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def random_maps(doc):
        check(trinity_mod.build_trinity(pg.ensure_bicoloured(pg.parse_graph(doc))), "random map")

    random_maps()


def test_four_cycle_ve_vs_re_offset(trinities):
    t = trinities["cycle4"]
    ha = ht.enumerate_hypertrees(ht.trinity_hypergraph(t, "VE"))
    hb = ht.enumerate_hypertrees(ht.trinity_hypergraph(t, "RE"))
    offset = ht.translate_offset(ha, hb)
    # verified exhaustively: every b-vector reflects onto an a-vector
    assert offset is not None
    b_vectors = set(hb)
    a_vectors = set(ha)
    reflected = {tuple(c - f for c, f in zip(offset, v)) for v in b_vectors}
    assert reflected == a_vectors


def test_hypergraph_reproduces_adjacency(trinities):
    for name, t in trinities.items():
        for label in ht.HYPERGRAPH_LABELS:
            hg = ht.trinity_hypergraph(t, label)
            host = hg.index.graph
            in_class = sorted(v for v in host.vertices if host.colour_of(v) == hg.colour)
            assert hg.ids == tuple(in_class), (name, label)
            # each edge's slot names its one end in the hyperedge class
            for e, eid in enumerate(hg.index.edge_ids):
                ends = [v for v in host.endpoints(eid) if host.colour_of(v) == hg.colour]
                assert ends == [hg.ids[hg.slot[e]]], (name, label, eid)
            for h, degree in zip(hg.ids, hg.degree):
                assert degree == len(host.vertices[h].rotation) > 0, (name, label, h)


def test_hypergraph_host_is_the_third_colour_graph(trinities):
    t = trinities["running11"]
    hosts = {
        "VE": t.red_graph,
        "EV": t.red_graph,
        "ER": t.violet_graph,
        "RE": t.violet_graph,
        "VR": t.emerald_graph,
        "RV": t.emerald_graph,
    }
    for label, host in hosts.items():
        hg = ht.trinity_hypergraph(t, label)
        assert hg.label == label
        assert hg.index.graph is host
    for label in ("VV", "RB", "V"):
        with pytest.raises(ValueError, match="bad hypergraph label"):
            ht.trinity_hypergraph(t, label)


def realization_oracle(hypergraph):
    """First realizing tree per vector, by ``hypertree_of`` on every spanning tree."""
    first = {}
    for tree in trees.enumerate_spanning_trees(hypergraph.index, cap=None):
        first.setdefault(oracles.hypertree_of(hypergraph.index, tree, hypergraph.colour), tree)
    return first


def certified_witnesses(hypergraph):
    """The hypertree set, and each (witness, vector) that its search certifies.

    A spy on ``Hypergraph.certify`` records each witness as the tuple of its
    host edge positions, with the vector it is certified for.
    """
    seen = []
    real = ht.Hypergraph.certify

    def spy(self, edges, vector):
        assert self is hypergraph
        seen.append((tuple(edges), vector))
        return real(self, edges, vector)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ht.Hypergraph, "certify", spy)
        found = ht.enumerate_hypertrees(hypergraph, cap=None)
    return found, seen


def assert_witness_spans_and_realizes(hypergraph, witness, vector):
    """The witness, by edge positions, is a spanning tree of the host whose record is the vector."""
    index = hypergraph.index
    bip = index.graph
    assert all(0 <= e < len(index.edge_ids) for e in witness)
    assert len(set(witness)) == len(witness) == len(bip.vertices) - 1
    root = {v: v for v in bip.vertices}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for eid in map(index.edge_ids.__getitem__, witness):
        u, v = (find(x) for x in bip.endpoints(eid))
        assert u != v, ("cycle through", eid)
        root[u] = v
    assert oracles.hypertree_of(index, witness, hypergraph.colour) == vector


def assert_witnesses_span_and_realize(hypergraph):
    """The search certifies one witness per hypertree but its seed, whose
    vector is the first spanning tree's; returns the hypertree set."""
    found, seen = certified_witnesses(hypergraph)
    seed = next(trees.enumerate_spanning_trees(hypergraph.index, cap=None))
    vectors = [oracles.hypertree_of(hypergraph.index, seed, hypergraph.colour)] + [v for _w, v in seen]
    assert sorted(vectors) == list(found)
    for witness, vector in seen:
        assert_witness_spans_and_realizes(hypergraph, witness, vector)
    return found


@pytest.mark.parametrize("label", ht.HYPERGRAPH_LABELS)
def test_hypertree_sets_match_per_tree_realization(trinities, label):
    for name, t in trinities.items():
        hypergraph = ht.trinity_hypergraph(t, label)
        first = realization_oracle(hypergraph)
        found = t.hypertree_set(label)
        assert list(found) == sorted(first), (name, label)
        assert assert_witnesses_span_and_realize(hypergraph) == found, (name, label)


@given(plane_bipartite_maps())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_random_map_hypertrees_match_per_tree_realization(doc):
    t = trinity_mod.build_trinity(pg.ensure_bicoloured(pg.parse_graph(doc)))
    dual = t.directed_dual("violet")
    magic = trees.count_arborescences(dual, min(dual.vertices))
    for label in ht.HYPERGRAPH_LABELS:
        hypergraph = ht.trinity_hypergraph(t, label)
        found = t.hypertree_set(label)
        assert list(found) == sorted(realization_oracle(hypergraph)), label
        assert len(found) == magic, label
        assert assert_witnesses_span_and_realize(hypergraph) == found, label


def polytope_oracle(hypergraph):
    """Kalman's description of the hypertrees, with no spanning tree in sight.

    f is a hypertree iff f >= 0, f(S) <= mu(S) for every set S of
    hyperedges, and f(E) = mu(E), where mu(S) = |union of S| - c(S) and
    c(S) counts the components of the bipartite graph on S and its union.
    Since mu({e}) = |e| - 1, the search runs over that box.
    """
    ids = hypergraph.ids
    host = hypergraph.index.graph
    members = [sorted({host.target(d) for d in host.vertices[h].rotation}) for h in ids]
    k = len(members)
    mu = [0] * (1 << k)
    for mask in range(1, 1 << k):
        chosen = [members[i] for i in range(k) if mask >> i & 1]
        root = {v: v for m in chosen for v in m}

        def find(x):
            while root[x] != x:
                x = root[x]
            return x

        components = len(root)
        for m in chosen:
            for v in m[1:]:
                a, b = find(m[0]), find(v)
                if a != b:
                    root[a] = b
                    components -= 1
        mu[mask] = len(root) - components
    full = (1 << k) - 1
    found = []
    for f in product(*(range(len(m)) for m in members)):
        if sum(f) != mu[full]:
            continue
        if all(
            sum(f[i] for i in range(k) if mask >> i & 1) <= mu[mask] for mask in range(1, full)
        ):
            found.append(f)
    return found


@pytest.fixture(scope="module")
def polytope_trinities(trinities):
    extra = {
        name: trinity_mod.build_trinity(
            pg.ensure_bicoloured(pg.parse_graph(cli.generate_corpus(family, size)))
        )
        for name, family, size in (("theta4", "theta", 4), ("cycle8", "even_cycle", 4))
    }
    return {**trinities, **extra}


@pytest.mark.parametrize("label", ht.HYPERGRAPH_LABELS)
def test_hypertree_sets_are_the_polytope_lattice_points(polytope_trinities, label):
    for name, t in polytope_trinities.items():
        hypergraph = ht.trinity_hypergraph(t, label)
        found = list(t.hypertree_set(label))
        assert found == sorted(polytope_oracle(hypergraph)), (name, label)


def test_each_hypertree_set_draws_one_spanning_tree(graphs, monkeypatch):
    drawn = []
    real = ht.enumerate_spanning_trees

    def counted(*args, **kwargs):
        drawn.append(0)
        for tree in real(*args, **kwargs):
            drawn[-1] += 1
            yield tree

    monkeypatch.setattr(ht, "enumerate_spanning_trees", counted)
    t = trinity_mod.build_trinity(graphs["grid2"])
    for label in ht.HYPERGRAPH_LABELS:
        assert len(t.hypertree_set(label)) == 15
    assert drawn == [1] * len(ht.HYPERGRAPH_LABELS)


def test_a_witness_with_another_record_is_refused(trinities):
    hypergraph = ht.trinity_hypergraph(trinities["cycle4"], "VE")
    edges = next(trees.enumerate_spanning_trees(hypergraph.index))
    realized = oracles.hypertree_of(hypergraph.index, edges, hypergraph.colour)
    (vector,) = set(ht.enumerate_hypertrees(hypergraph)) - {realized}
    with pytest.raises(ht.BadWitness, match=r"VE: witness for \(0, 1\) realizes \(1, 0\)"):
        hypergraph.certify(edges, vector)


def _parts(graph, edge_ids):
    """Oracle: the number of components of the graph on these edges, by depth-first search."""
    adjacent = {v: [] for v in graph.vertices}
    for eid in edge_ids:
        u, v = graph.endpoints(eid)
        adjacent[u].append(v)
        adjacent[v].append(u)
    seen, parts = set(), 0
    for v in graph.vertices:
        if v not in seen:
            parts += 1
            seen.add(v)
            stack = [v]
            while stack:
                for y in adjacent[stack.pop()]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
    return parts


def test_a_witness_with_a_cycle_is_refused(trinities):
    hypergraph = ht.trinity_hypergraph(trinities["grid2"], "VE")
    index = hypergraph.index
    bip = index.graph
    first = next(trees.enumerate_spanning_trees(index))
    tree = set(first)
    vector = oracles.hypertree_of(index, first, hypergraph.colour)
    n = len(bip.vertices)
    extra = min(set(range(len(index.edge_ids))) - tree)
    # a tree edge off the cycle that the extra edge closes: dropping it
    # leaves |V| - 1 edges with a cycle, so two components
    for dropped in sorted(tree):
        edges = sorted(tree - {dropped} | {extra})
        if _parts(bip, [index.edge_ids[e] for e in edges]) == 2:
            break
    else:
        pytest.fail("every tree edge lies on the cycle")
    with pytest.raises(ht.BadWitness) as refused:
        hypergraph.certify(edges, vector)
    assert str(refused.value) == (
        f"VE: witness for {vector} has {n - 1} edges and 2 components on {n} vertices"
    )


def test_the_two_hypergraphs_of_a_host_share_its_index(trinities):
    t = trinities["grid2"]
    for pair, host in ((("VE", "EV"), "red"), (("ER", "RE"), "violet"), (("VR", "RV"), "emerald")):
        for label in pair:
            hypergraph = ht.trinity_hypergraph(t, label)
            assert hypergraph.index is t.graph_index(host)
