"""Trinity construction: triangles, colour graphs, directed duals, census."""

import pytest

from trinities import plane_graph as pg
from trinities import trinity as tr
from trinities.limits import CapExceeded


def test_single_edge_trinity(trinities):
    t = trinities["path1"]
    census = t.census()
    assert (census["V"], census["E"], census["R"], census["n"]) == (1, 1, 1, 1)
    assert census["euler_ok"]
    shades = [x.shade for x in t.triangles]
    assert sorted(shades) == ["black", "white"]


def test_four_cycle_trinity(trinities):
    t = trinities["cycle4"]
    census = t.census()
    assert (census["V"], census["E"], census["R"], census["n"]) == (2, 2, 2, 4)
    assert sorted(census["n_r"].values()) == [2, 2]
    assert census["euler_ok"]


def test_running_example_trinity(trinities):
    t = trinities["running11"]
    census = t.census()
    assert (census["V"], census["E"], census["R"], census["n"]) == (5, 4, 4, 11)
    assert census["euler_ok"]


def test_triangle_counts_and_shades(trinities):
    for t in trinities.values():
        shades = [x.shade for x in t.triangles]
        assert len(shades) == 2 * t.n
        assert shades.count("black") == t.n
        assert shades.count("white") == t.n


def test_shades_alternate_around_every_flank(trinities):
    # each edge of the triangulation bounds one black and one white triangle
    for t in trinities.values():
        g = t.graph
        by_dart = {(x.face, x.index): x for x in t.triangles}
        # red edges of the trinity = edges of the graph: flanked by the
        # triangles of the two darts
        for eid in g.edges:
            a, b = g.edges[eid].darts
            ta = by_dart[g.position_of(a)]
            tb = by_dart[g.position_of(b)]
            assert {ta.shade, tb.shade} == {"black", "white"}
        # violet/emerald edges = corners: flanked by the triangles of the
        # incoming and the outgoing boundary dart
        for colour in ("violet", "emerald"):
            for fid, i, _w in t.corners(colour):
                boundary = g.faces[fid].boundary
                t_in = by_dart[(fid, i)]
                t_out = by_dart[(fid, (i + 1) % len(boundary))]
                assert {t_in.shade, t_out.shade} == {"black", "white"}


def test_red_colour_graph_is_the_input(trinities, graphs):
    for name, t in trinities.items():
        assert t.red_graph is graphs[name]


def test_four_cycle_violet_graph_is_a_four_cycle(trinities):
    gv = trinities["cycle4"].violet_graph
    # hand construction: two emerald vertices and two red vertices in a cycle
    assert len(gv.vertices) == 4
    assert len(gv.edges) == 4
    assert all(gv.degree(v) == 2 for v in gv.vertices)
    assert pg.canonical_form(gv) == pg.canonical_form(trinities["cycle4"].red_graph)


def test_colour_graphs_are_plane_bipartite_with_n_edges(trinities):
    for t in trinities.values():
        for colour in ("violet", "emerald", "red"):
            cg = getattr(t, f"{colour}_graph")
            assert len(cg.edges) == t.n
            # class tags vary per colour graph; validate the structure bare
            bare = pg.with_colours(cg, {v: None for v in cg.vertices})
            report = pg.validate_bipartite_plane(bare)
            assert report.bipartite and report.loop_free
            # the computed classes match the trinity's own tagging
            classes = {frozenset(vs) for vs in report.colour_classes.values()}
            tagged = {frozenset(vs) for vs in cg.colour_classes.values()}
            assert classes == tagged


def test_colour_graph_face_counts(trinities):
    # the faces of each colour graph correspond to the omitted colour class
    for t in trinities.values():
        assert len(t.violet_graph.faces) == len(t.violet)
        assert len(t.emerald_graph.faces) == len(t.emerald)


def test_directed_duals_are_balanced(trinities):
    for t in trinities.values():
        for colour in ("violet", "emerald", "red"):
            dual = t.directed_dual(colour)
            assert len(dual.arcs) == t.n
            assert dual.is_balanced()


def test_single_edge_violet_dual_is_one_loop(trinities):
    dual = trinities["path1"].directed_dual("violet")
    assert len(dual.vertices) == 1
    assert len(dual.arcs) == 1
    assert dual.arcs[0].tail == dual.arcs[0].head


def test_four_cycle_red_dual(trinities):
    dual = trinities["cycle4"].directed_dual("red")
    assert len(dual.vertices) == 2
    assert len(dual.arcs) == 4
    a, b = dual.vertices
    forward = sum(1 for x in dual.arcs if (x.tail, x.head) == (a, b))
    backward = sum(1 for x in dual.arcs if (x.tail, x.head) == (b, a))
    assert forward == backward == 2


def test_census_identities(trinities):
    for t in trinities.values():
        census = t.census()
        assert census["V"] + census["E"] + census["R"] == census["n"] + 2
        assert sum(census["n_r"].values()) == census["n"]


def test_rebuilding_from_any_colour_graph_gives_the_same_trinity(trinities):
    for name, t in trinities.items():
        if t.n > 12:
            continue
        original = sorted(
            pg.canonical_form(x) for x in (t.red_graph, t.violet_graph, t.emerald_graph)
        )
        for colour in ("violet", "emerald"):
            cg = getattr(t, f"{colour}_graph")
            mapping = {}
            classes = sorted(c for c in cg.colour_classes if c is not None)
            for new, old in zip(("violet", "emerald"), classes):
                for v in cg.colour_classes[old]:
                    mapping[v] = new
            rebuilt = tr.build_trinity(pg.with_colours(cg, mapping))
            again = sorted(
                pg.canonical_form(x)
                for x in (rebuilt.red_graph, rebuilt.violet_graph, rebuilt.emerald_graph)
            )
            assert original == again, (name, colour)


def test_build_trinity_requires_bipartite():
    from corpus import triangle_document

    with pytest.raises(pg.SchemaError):
        tr.build_trinity(pg.parse_graph(triangle_document()))


def test_cached_products_still_honour_the_cap(graphs):
    uncapped = tr.build_trinity(graphs["grid2"], cap=None)
    assert uncapped.directed_dual("violet") is uncapped.directed_dual("violet")
    found = uncapped.hypertree_set("ER")
    assert uncapped.hypertree_set("ER") is found
    assert uncapped.magic_report is uncapped.magic_report
    assert uncapped.magic_report.hypertrees["ER"] == len(found)
    # the violet graph of grid 2 has more than 3 spanning trees
    capped = tr.build_trinity(graphs["grid2"], cap=3)
    for _ in range(2):
        with pytest.raises(CapExceeded, match="spanning tree enumeration"):
            capped.hypertree_set("ER")
    assert capped.magic_report.hypertrees["ER"] is None
