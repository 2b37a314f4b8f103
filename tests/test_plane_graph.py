"""Rotation systems, face tracing, duals and bipartite validation."""

from collections import Counter

import pytest

from corpus import corpus_documents, loop_document, running_example_document, triangle_document
from trinities import plane_graph as pg
from trinities import trees


def parse(doc):
    return pg.parse_graph(doc)


def test_single_edge_has_one_face(graphs):
    g = graphs["path1"]
    (face,) = g.faces.values()
    assert len(face.boundary) == 2  # the edge is traversed twice


def test_four_cycle_has_two_faces(graphs):
    g = graphs["cycle4"]
    assert sorted(len(f.boundary) for f in g.faces.values()) == [4, 4]


def test_running_example_counts(graphs):
    g = graphs["running11"]
    assert len(g.vertices) == 9
    assert len(g.edges) == 11
    assert len(g.faces) == 4
    # half-lengths pinned by a hand trace of the drawn embedding
    assert sorted(len(f.boundary) // 2 for f in g.faces.values()) == [2, 2, 3, 4]


def test_every_dart_traversed_once_per_direction(graphs):
    for g in graphs.values():
        traversed = [d for f in g.faces.values() for d in f.boundary]
        assert sorted(traversed) == g.darts()
        assert len(traversed) == 2 * len(g.edges)


def test_euler_formula_everywhere(graphs):
    for g in graphs.values():
        assert len(g.vertices) - len(g.edges) + len(g.faces) == 2


def test_bipartite_faces_have_even_length(graphs):
    for g in graphs.values():
        assert all(len(f.boundary) % 2 == 0 for f in g.faces.values())


def test_schema_errors():
    with pytest.raises(pg.SchemaError):
        parse("not json at all {")
    with pytest.raises(pg.SchemaError):
        parse({"vertices": []})
    with pytest.raises(pg.SchemaError):
        parse({"vertices": [], "edges": []})
    # dart referenced by an edge but absent from every rotation
    with pytest.raises(pg.SchemaError):
        parse(
            {
                "vertices": [{"id": "a", "colour": None, "rotation": ["x.0"]}],
                "edges": [{"id": "x", "darts": ["x.0", "x.1"]}],
            }
        )
    # dart in two rotations
    with pytest.raises(pg.SchemaError):
        parse(
            {
                "vertices": [
                    {"id": "a", "colour": None, "rotation": ["x.0", "x.1"]},
                    {"id": "b", "colour": None, "rotation": ["x.1"]},
                ],
                "edges": [{"id": "x", "darts": ["x.0", "x.1"]}],
            }
        )


def test_disconnected_rejected():
    doc = {
        "vertices": [
            {"id": "a", "colour": None, "rotation": ["x.0"]},
            {"id": "b", "colour": None, "rotation": ["x.1"]},
            {"id": "c", "colour": None, "rotation": ["y.0"]},
            {"id": "d", "colour": None, "rotation": ["y.1"]},
        ],
        "edges": [
            {"id": "x", "darts": ["x.0", "x.1"]},
            {"id": "y", "darts": ["y.0", "y.1"]},
        ],
    }
    with pytest.raises(pg.NotConnected):
        parse(doc)


def test_torus_rotation_rejected():
    # a theta graph with equal cyclic orders at both hubs embeds in the torus
    doc = {
        "vertices": [
            {"id": "h0", "colour": None, "rotation": ["a0.0", "a1.0", "a2.0"]},
            {"id": "h1", "colour": None, "rotation": ["a0.1", "a1.1", "a2.1"]},
        ],
        "edges": [
            {"id": "a0", "darts": ["a0.0", "a0.1"]},
            {"id": "a1", "darts": ["a1.0", "a1.1"]},
            {"id": "a2", "darts": ["a2.0", "a2.1"]},
        ],
    }
    with pytest.raises(pg.NotPlanarConsistent):
        parse(doc)


def test_dual_of_single_edge_is_a_loop(graphs):
    d = pg.planar_dual(graphs["path1"])
    assert len(d.vertices) == 1
    assert len(d.edges) == 1
    assert d.is_loop(next(iter(d.edges)))


def test_dual_of_four_cycle_is_two_vertices_four_parallel_edges(graphs):
    d = pg.planar_dual(graphs["cycle4"])
    assert len(d.vertices) == 2
    assert len(d.edges) == 4
    assert all(not d.is_loop(e) for e in d.edges)


def test_dual_involution_preserves_isomorphism_type(graphs):
    for name, g in graphs.items():
        if len(g.edges) > 12:
            continue
        dd = pg.planar_dual(pg.planar_dual(g))
        assert pg.canonical_form(g) == pg.canonical_form(dd), name


def test_primal_and_dual_spanning_tree_counts_agree(graphs):
    # independent oracle on the running example: full edge-subset sweep
    g = graphs["running11"]
    d = pg.planar_dual(g)
    assert len(d.vertices) == 4
    assert len(d.edges) == 11
    assert trees.spanning_tree_count(g) == trees.spanning_tree_count(d)
    oracle = sum(1 for _ in trees.enumerate_spanning_trees(trees.GraphIndex(g)))
    oracle_dual = sum(1 for _ in trees.enumerate_spanning_trees(trees.GraphIndex(d)))
    assert oracle == oracle_dual == trees.spanning_tree_count(g)


def test_validate_four_cycle_passes(graphs):
    colouring = pg.validate_bipartite_plane(graphs["cycle4"])
    assert sorted(Counter(colouring.values()).values()) == [2, 2]


def test_validate_triangle_fails():
    g = parse(triangle_document())
    with pytest.raises(pg.SchemaError) as refused:
        pg.validate_bipartite_plane(g)
    assert str(refused.value) == "not bipartite: odd cycle or loop"


def test_validate_running_example(graphs):
    colouring = pg.validate_bipartite_plane(graphs["running11"])
    assert sorted(Counter(colouring.values()).values()) == [4, 5]


def test_validate_rejects_loop():
    # a loop also fails the colouring checks, coloured or not, but is named alone
    for colour in (None, "violet"):
        with pytest.raises(pg.SchemaError) as refused:
            pg.validate_bipartite_plane(parse(loop_document(colour)))
        assert str(refused.value) == "graph has a loop edge", colour


def test_colour_check_when_colours_present():
    doc = running_example_document()
    doc["vertices"][0]["colour"] = "emerald"  # clash with its neighbours
    g = parse(doc)
    with pytest.raises(pg.SchemaError):
        pg.validate_bipartite_plane(g)


def test_canonical_form_invariant_under_relabelling(graphs):
    g = graphs["cycle6"]
    doc = corpus_documents()["cycle6"]
    renamed = {
        "vertices": [
            {"id": "X" + v["id"], "colour": v["colour"], "rotation": ["D" + d for d in v["rotation"]]}
            for v in doc["vertices"]
        ],
        "edges": [
            {"id": "Y" + e["id"], "darts": ["D" + d for d in e["darts"]]} for e in doc["edges"]
        ],
    }
    g2 = parse(renamed)
    assert pg.canonical_form(g) == pg.canonical_form(g2)
    assert pg.canonical_form(g) != pg.canonical_form(graphs["cycle4"])
