"""Trinity construction: triangles, colour graphs, directed duals, census."""

from collections import Counter

import pytest
from hypothesis import given, settings

from random_maps import plane_bipartite_maps
from trinities import plane_graph as pg
from trinities import trinity as tr
from trinities.limits import CapExceeded


def test_single_edge_trinity(trinities):
    t = trinities["path1"]
    census = t.census()
    assert (census["V"], census["E"], census["R"], census["n"]) == (1, 1, 1, 1)
    assert census["n_r"] == {t.red[0]: 1}
    shades = [x.shade for x in t.triangles]
    assert sorted(shades) == ["black", "white"]


def test_four_cycle_trinity(trinities):
    t = trinities["cycle4"]
    census = t.census()
    assert (census["V"], census["E"], census["R"], census["n"]) == (2, 2, 2, 4)
    assert sorted(census["n_r"].values()) == [2, 2]


def test_running_example_trinity(trinities):
    t = trinities["running11"]
    census = t.census()
    assert (census["V"], census["E"], census["R"], census["n"]) == (5, 4, 4, 11)
    assert sorted(census["n_r"].values()) == [2, 2, 3, 4]


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
            for fid, i, _w in t.corners[colour]:
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
    assert all(len(v.rotation) == 2 for v in gv.vertices.values())
    assert pg.canonical_form(gv) == pg.canonical_form(trinities["cycle4"].red_graph)


def test_colour_graphs_are_plane_bipartite_with_n_edges(trinities):
    for t in trinities.values():
        for colour in ("violet", "emerald", "red"):
            cg = getattr(t, f"{colour}_graph")
            assert len(cg.edges) == t.n
            # class tags vary per colour graph; validate the structure bare
            bare = pg.with_colours(cg, {v: None for v in cg.vertices})
            report = pg.validate_bipartite_plane(bare)
            assert report.ok
            # the computed classes match the trinity's own tagging
            classes = {}
            for v, c in report.colouring.items():
                classes.setdefault(c, set()).add(v)
            classes = set(map(frozenset, classes.values()))
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
            assert Counter(a.tail for a in dual.arcs) == Counter(a.head for a in dual.arcs)


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


@given(plane_bipartite_maps())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_random_map_census_identities(doc):
    census = tr.build_trinity(pg.ensure_bicoloured(pg.parse_graph(doc))).census()
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


def _corner_of(triangle, colour):
    return triangle.face if colour == "red" else getattr(triangle, colour)


def test_dual_arcs_run_black_to_white(trinities):
    # every dual arc crosses one colour-graph edge and runs from that colour's
    # corner of the black flanking triangle to its corner of the white one
    for name, t in trinities.items():
        g = t.graph
        by_position = {(x.face, x.index): x for x in t.triangles}
        flanks = {
            "red": {
                eid: tuple(by_position[g.position_of(d)] for d in g.edges[eid].darts)
                for eid in g.edges
            }
        }
        for colour, corner_colour in (("violet", "emerald"), ("emerald", "violet")):
            flanks[colour] = {
                t.corner_id(fid, i): (
                    by_position[(fid, i)],
                    by_position[(fid, (i + 1) % len(g.faces[fid].boundary))],
                )
                for fid, i, _w in t.corners[corner_colour]
            }
        for colour, crossed in flanks.items():
            arcs = t.directed_dual(colour).arcs
            assert sorted(a.id for a in arcs) == sorted(crossed), (name, colour)
            for arc in arcs:
                x, y = crossed[arc.id]
                assert {x.shade, y.shade} == {"black", "white"}, (name, arc)
                black, white = (x, y) if x.shade == "black" else (y, x)
                assert arc.tail == _corner_of(black, colour), (name, colour, arc)
                assert arc.head == _corner_of(white, colour), (name, colour, arc)


def test_shade_convention_fixture(trinities):
    # frozen convention: the triangle of a dart leaving a violet vertex is black
    t = trinities["path1"]
    g = t.graph
    (violet,) = t.violet
    (dart,) = g.vertices[violet].rotation
    (triangle,) = [x for x in t.triangles if x.dart == dart]
    assert triangle.shade == "black"
    assert (triangle.violet, triangle.emerald) == (violet, g.target(dart))
    # ... so each red dual arc of the four-cycle leaves the face of its
    # edge's violet-to-emerald dart
    arcs = trinities["cycle4"].directed_dual("red").arcs
    assert [(a.id, a.tail, a.head) for a in arcs] == [
        ("e0", "f0", "f1"),
        ("e1", "f1", "f0"),
        ("e2", "f0", "f1"),
        ("e3", "f1", "f0"),
    ]
