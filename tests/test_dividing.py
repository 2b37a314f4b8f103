"""Chord diagrams, tightness, signed regions, Euler classes, tree-hugging."""

import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from trinities import dividing as dv
from trinities import plane_graph, trees
from trinities import transitions as tx
from trinities import trinity as trinity_mod
from trinities.cli import generate_corpus
from trinities.limits import CapExceeded


def all_perfect_matchings(points):
    if not points:
        yield []
        return
    first = points[0]
    for k in range(1, len(points)):
        rest = points[1:k] + points[k + 1:]
        for m in all_perfect_matchings(rest):
            yield [(first, points[k])] + m


def is_non_crossing(pairs):
    for (a, b) in pairs:
        for (c, d) in pairs:
            if a < c < b < d:
                return False
    return True


def test_catalan_counts():
    assert [dv.catalan(n) for n in range(1, 6)] == [1, 2, 5, 14, 42]


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 5), (4, 14)])
def test_enumerate_chord_diagrams_counts(n, expected):
    diagrams = dv.enumerate_chord_diagrams(n)
    assert len(diagrams) == expected
    assert len(set(diagrams)) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_equals_noncrossing_filter_oracle(n):
    oracle = {
        tuple(sorted(tuple(sorted(p)) for p in m))
        for m in all_perfect_matchings(list(range(2 * n)))
        if is_non_crossing([tuple(sorted(p)) for p in m])
    }
    ours = {d.pairs() for d in dv.enumerate_chord_diagrams(n)}
    assert ours == oracle


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_enumeration_order_is_the_sorted_filter_oracle(n):
    oracle = sorted(
        dv.ChordDiagram.from_pairs(n, m).partner
        for m in all_perfect_matchings(list(range(2 * n)))
        if is_non_crossing([tuple(sorted(p)) for p in m])
    )
    assert [d.partner for d in dv.enumerate_chord_diagrams(n)] == oracle


@given(st.integers(min_value=1, max_value=6))
@settings(max_examples=12, deadline=None)
def test_diagrams_are_valid_matchings(n):
    for d in dv.enumerate_chord_diagrams(n):
        assert d.n == n
        assert is_non_crossing(d.pairs())
        assert sorted(x for p in d.pairs() for x in p) == list(range(2 * n))


def recursion_headroom(depth=0):
    """Nested Python calls that still fit under the recursion limit."""
    try:
        return recursion_headroom(depth + 1)
    except RecursionError:
        return depth


def test_chord_diagrams_need_no_recursion():
    # the interpreter's own count of the caller's depth, C calls included
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit - recursion_headroom() + 10)
    try:
        diagrams = dv.enumerate_chord_diagrams(10)
    finally:
        sys.setrecursionlimit(limit)
    assert len(diagrams) == 16_796


def test_crossing_diagram_rejected():
    with pytest.raises(ValueError, match=r"chords \(0,2\) and \(1,3\) cross"):
        dv.ChordDiagram.from_pairs(2, [(0, 2), (1, 3)])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_first_crossing_in_either_chord_order(n):
    for m in all_perfect_matchings(list(range(2 * n))):
        for pairs in (m, m[::-1]):
            crossing = dv.first_crossing(pairs)
            assert (crossing is None) == is_non_crossing(m)
            if crossing is not None:
                (a, b), (c, d) = crossing
                assert a < c < b < d or c < a < d < b


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_stack_check_agrees_with_first_crossing(n):
    # every perfect matching of up to 10 points, crossing or not
    for m in all_perfect_matchings(list(range(2 * n))):
        crossing = dv.first_crossing(m)
        if crossing is None:
            assert dv.ChordDiagram.from_pairs(n, m).pairs() == tuple(m)
            continue
        (a, b), (c, d) = crossing
        with pytest.raises(ValueError) as raised:
            dv.ChordDiagram.from_pairs(n, m)
        assert str(raised.value) == f"chords ({a},{b}) and ({c},{d}) cross"


def test_diagram_cap():
    with pytest.raises(CapExceeded):
        dv.enumerate_chord_diagrams(8, cap=100)


def full_configurations(trinity):
    faces = sorted(trinity.red)
    per_face = [dv.enumerate_chord_diagrams(trinity.n_r[f]) for f in faces]
    for choice in product(*per_face):
        yield dv.Configuration.from_diagrams(trinity, dict(zip(faces, choice)))


def test_single_edge_unique_configuration_tight(trinities):
    t = trinities["path1"]
    configs = list(full_configurations(t))
    assert len(configs) == 1
    verdict = dv.is_tight(configs[0])
    assert verdict.tight and verdict.loops == 1


def test_four_cycle_exactly_two_tight(trinities):
    t = trinities["cycle4"]
    configs = list(full_configurations(t))
    assert len(configs) == 4
    tight = [c for c in configs if dv.is_tight(c).tight]
    assert len(tight) == 2
    # the two tight ones pick the same matching shape on both faces
    for c in tight:
        shapes = {d.pairs() for _, d in c.entries}
        assert len(shapes) == 1


def test_loop_counts_partition_curves(trinities):
    # total loop count over all configurations is invariant sanity: every
    # configuration closes into at least one and at most n curves
    for t in trinities.values():
        if t.n > 6:
            continue
        for c in full_configurations(t):
            loops = dv.loop_count(c)
            assert 1 <= loops <= t.n


def glued_curve_count(config):
    """Closed curves of a configuration, walked on (face, index) points."""
    g = config.trinity.graph
    glue = {}
    for edge in g.edges.values():
        pa, pb = (g.position_of(d) for d in edge.darts)
        glue[pa] = pb
        glue[pb] = pa
    chord = {}
    for fid, diagram in config.entries:
        for i, j in enumerate(diagram.partner):
            chord[(fid, i)] = (fid, j)
    loops = 0
    while chord:
        start, q = chord.popitem()
        del chord[q]
        loops += 1
        p = glue[q]
        while p != start:
            q = chord.pop(p)
            del chord[q]
            p = glue[q]
    return loops


def test_loop_count_matches_the_glued_curve_oracle(trinities):
    doc = generate_corpus("even_cycle", 5)
    cycle10 = trinity_mod.build_trinity(plane_graph.ensure_bicoloured(plane_graph.parse_graph(doc)))
    for t in [*trinities.values(), cycle10]:
        for c in full_configurations(t):
            assert dv.loop_count(c) == glued_curve_count(c)


@pytest.mark.parametrize("name,loops", [("cycle4", 2), ("cycle6", 3)])
def test_glued_loops_walks_on_past_a_short_first_curve(trinities, name, loops):
    # with more than one curve, the curve through point 0 misses a chord,
    # so the count comes from the marking walk
    t = trinities[name]
    config = next(c for c in full_configurations(t) if glued_curve_count(c) == loops)
    assert dv.loop_count(config) == loops


def test_running_example_tree_hugging_tight(trinities):
    t = trinities["running11"]
    for tree in trees.enumerate_spanning_trees(t.graph_index("violet")):
        assert dv.is_tight(dv.tree_hugging(t, tree)).tight


def test_signed_regions_minimal_disc(trinities):
    t = trinities["path1"]
    (fid,) = t.red
    (diagram,) = dv.enumerate_chord_diagrams(1)
    found = dv.disc_regions(t, fid, diagram)
    assert len(found) == 2
    assert sorted(sign for sign, _arcs in found) == [-1, 1]
    assert all(len(arcs) == 1 for _sign, arcs in found)
    assert dv.euler_and_hug(found)[0] == 0


def test_signed_regions_isolating_diagram(trinities):
    # diagram cutting off both emerald corners of a square face
    t = trinities["cycle4"]
    fid = sorted(t.red)[0]
    chart = t.charts[fid]
    m = len(chart)
    pairs = [
        tuple(sorted((i, (i + 1) % m)))
        for i in range(m)
        if chart[i] >= 0
    ]
    diagram = dv.ChordDiagram.from_pairs(m // 2, pairs)
    found = dv.disc_regions(t, fid, diagram)
    assert sorted(len(arcs) for sign, arcs in found if sign < 0) == [1, 1]
    assert [len(arcs) for sign, arcs in found if sign > 0] == [2]
    assert len(found) == m // 2 + 1


def test_valence_sums(trinities):
    for t in trinities.values():
        for fid in t.red:
            for diagram in dv.enumerate_chord_diagrams(t.n_r[fid]):
                found = dv.disc_regions(t, fid, diagram)
                assert sum(len(arcs) for sign, arcs in found if sign < 0) == t.n_r[fid]
                assert sum(len(arcs) for sign, arcs in found if sign > 0) == t.n_r[fid]
                assert len(found) == t.n_r[fid] + 1


def test_disc_euler_is_positives_minus_negatives(graphs):
    for g in graphs.values():
        t = trinity_mod.build_trinity(g)
        for fid in t.red:
            for diagram in dv.enumerate_chord_diagrams(t.n_r[fid]):
                signs = [sign for sign, _arcs in dv.disc_regions(t, fid, diagram)]
                assert set(signs) <= {-1, 1}
                euler, _hugs = dv.euler_and_hug(dv.disc_regions(t, fid, diagram))
                assert euler == signs.count(1) - signs.count(-1)


def _region_arcs(partner):
    """Arc index sets of the complementary regions, in closing order, root region last."""
    regions = []
    stack = [[]]
    for p in range(len(partner)):
        if partner[p] > p:
            stack.append([])
        else:
            regions.append(stack.pop())
        stack[-1].append(p)
    regions.append(stack.pop())
    return regions


def _two_pass_regions(face, partner, sign):
    """Reference for ``dividing.regions``: the regions' arcs first, then one set of signs per region."""
    out = []
    for arcs in _region_arcs(partner):
        signs = {sign[a] for a in arcs}
        if len(signs) != 1:
            raise dv.MixedRegion(f"face {face}: region on arcs {arcs} has mixed signs")
        out.append((signs.pop(), arcs))
    return out


def _outcome(regions, face, partner, sign):
    try:
        return regions(face, partner, sign)
    except dv.MixedRegion as exc:
        return str(exc)


def test_the_region_pass_matches_the_two_pass_rule(trinities):
    # the corpus discs have n <= 4; the 10- and 12-cycles add n = 5 and 6
    discs = [disc for t in trinities.values() for disc in t.signs.items()]
    for size in (5, 6):
        doc = generate_corpus("even_cycle", size)
        t = trinity_mod.build_trinity(plane_graph.ensure_bicoloured(plane_graph.parse_graph(doc)))
        discs += t.signs.items()
    assert {len(sign) // 2 for _fid, sign in discs} == set(range(1, 7))
    for fid, sign in discs:
        for diagram in dv.enumerate_chord_diagrams(len(sign) // 2):
            expected = _two_pass_regions(fid, diagram.partner, sign)
            assert dv.regions(fid, diagram.partner, sign) == expected


def test_the_region_pass_names_a_mixed_region_as_the_two_pass_rule_does(trinities):
    # one arc's sign flipped at a time mixes some regions of some diagrams
    signs = trinities["cycle6"].signs["f0"]
    mixed = 0
    for arc in range(len(signs)):
        sign = list(signs)
        sign[arc] = -sign[arc]
        for diagram in dv.enumerate_chord_diagrams(len(signs) // 2):
            expected = _outcome(_two_pass_regions, "f0", diagram.partner, sign)
            assert _outcome(dv.regions, "f0", diagram.partner, sign) == expected
            mixed += isinstance(expected, str)
    assert mixed > 0


def test_a_flipped_arc_sign_mixes_a_region(graphs):
    t = trinity_mod.build_trinity(graphs["cycle4"])
    fid = sorted(t.red)[0]
    diagram = dv.enumerate_chord_diagrams(t.n_r[fid])[0]
    arc = next(a for arcs in _region_arcs(diagram.partner) if len(arcs) > 1 for a in arcs)
    corners = list(t.charts[fid])
    corners[arc] = 0 if corners[arc] < 0 else -1
    t.charts[fid] = tuple(corners)
    # the signs are derived from the charts once; drop any derived to derive them again
    vars(t).pop("signs", None)
    with pytest.raises(dv.MixedRegion, match="mixed signs"):
        dv.disc_regions(t, fid, diagram)
    config = dv.Configuration.from_diagrams(t, {f: dv.enumerate_chord_diagrams(t.n_r[f])[0] for f in t.red})
    with pytest.raises(dv.MixedRegion, match="mixed signs"):
        dv.euler_vector(config)


def test_size_mismatch(trinities):
    t = trinities["cycle4"]
    fid = sorted(t.red)[0]
    (wrong,) = dv.enumerate_chord_diagrams(1)
    with pytest.raises(dv.SizeMismatch):
        dv.disc_regions(t, fid, wrong)


def test_disc_euler_tree_hugging_formula(trinities):
    # every disc of every tree-hugging configuration satisfies 2f - n + 1
    for t in trinities.values():
        if t.n > 11:
            continue
        gv = t.graph_index("violet")
        for tree in trees.enumerate_spanning_trees(gv):
            degrees = oracles.degrees(gv, tree, "red")
            config = dv.tree_hugging(t, tree)
            for fid, euler in dv.euler_vector(config).items():
                f = degrees[fid] - 1
                assert euler == 2 * f - t.n_r[fid] + 1


def test_four_cycle_euler_vectors(trinities):
    t = trinities["cycle4"]
    tight = [c for c in full_configurations(t) if dv.is_tight(c).tight]
    vectors = {tuple(sorted(dv.euler_vector(c).items())) for c in tight}
    faces = sorted(t.red)
    assert vectors == {
        ((faces[0], 1), (faces[1], -1)),
        ((faces[0], -1), (faces[1], 1)),
    }
    for c in tight:
        assert sum(dv.euler_vector(c).values()) == 0  # |E| - |V|


def test_euler_sum_identity_all_tight(trinities):
    for t in trinities.values():
        if t.n > 6:
            continue
        expected = len(t.emerald) - len(t.violet)
        for c in full_configurations(t):
            if dv.is_tight(c).tight:
                assert sum(dv.euler_vector(c).values()) == expected


def test_tree_hugging_single_edge(trinities):
    t = trinities["path1"]
    tree = next(iter(trees.enumerate_spanning_trees(t.graph_index("violet"))))
    config = dv.tree_hugging(t, tree)
    assert dv.is_tight(config).tight
    (fid,) = t.red
    assert oracles.diagram(config, fid).pairs() == ((0, 1),)


def test_tree_hugging_not_spanning(trinities):
    t = trinities["cycle4"]
    # the first two violet edges, one short of a spanning tree
    bogus = (0, 1)
    with pytest.raises(dv.NotSpanning):
        dv.tree_hugging(t, bogus)


def test_is_tree_hugging_round_trip(trinities):
    for name, t in trinities.items():
        if t.n > 11:
            continue
        gv = t.graph_index("violet")
        for tree in trees.enumerate_spanning_trees(gv):
            config = dv.tree_hugging(t, tree)
            hugging, witness = dv.is_tree_hugging(config)
            assert hugging
            # the witness realizes the same hypertree as the source tree
            assert oracles.degrees(gv, witness, "red") == oracles.degrees(gv, tree, "red"), name


def test_four_cycle_all_tight_are_tree_hugging(trinities):
    t = trinities["cycle4"]
    for c in full_configurations(t):
        if dv.is_tight(c).tight:
            hugging, witness = dv.is_tree_hugging(c)
            assert hugging and witness is not None


def test_two_exceptional_components_refused(trinities):
    # on a graph with an octagonal face there is a tight configuration with
    # two negative regions of valence two on that disc (found by search)
    t = trinities["ladder3"]
    found = None
    for c in full_configurations(t):
        if not dv.is_tight(c).tight:
            continue
        for fid, diagram in c.entries:
            spread = [arcs for sign, arcs in dv.disc_regions(t, fid, diagram) if sign < 0 and len(arcs) > 1]
            if len(spread) >= 2:
                found = c
                break
        if found:
            break
    assert found is not None
    hugging, witness = dv.is_tree_hugging(found)
    assert not hugging and witness is None


def test_is_tree_hugging_requires_tight(trinities):
    t = trinities["cycle4"]
    loose = next(c for c in full_configurations(t) if not dv.is_tight(c).tight)
    with pytest.raises(dv.NotTight):
        dv.is_tree_hugging(loose)


def test_configuration_json_round_trip(trinities):
    for name, t in trinities.items():
        cg = tx.build_configuration_graph(t)
        for i in range(len(cg.choices)):
            config = cg.vertex(i)
            doc = cg.vertex_json(i)
            assert set(doc) == {"faces", "euler"}
            # the builder's Euler table agrees with a fresh region pass
            assert doc["euler"] == dv.euler_vector(config), (name, i)
            matchings = {fid: tuple(map(tuple, rec["matching"])) for fid, rec in doc["faces"].items()}
            assert matchings == {fid: diagram.pairs() for fid, diagram in config.entries}
