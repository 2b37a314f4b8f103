"""Shared fixtures: the built-in graph corpus and hand-built instances.

The eleven-edge graph is the five-violet/four-emerald plane graph used
throughout the test suite; its rotation system was transcribed by hand
from a drawn embedding, and its face half-lengths (4, 3, 2, 2) were pinned
by an independent hand trace of that drawing before the face-tracing code
existed.
"""

from trinities import plane_graph
from trinities.cli import generate_corpus


def running_example_document():
    """Eleven edges, 5 violet + 4 emerald vertices, four faces."""
    return {
        "vertices": [
            {"id": "v0", "colour": "violet", "rotation": ["g11.1", "g7.0", "g8.1"]},
            {"id": "v1", "colour": "violet", "rotation": ["g1.1", "g2.0"]},
            {"id": "v2", "colour": "violet", "rotation": ["g3.1", "g4.0"]},
            {"id": "v3", "colour": "violet", "rotation": ["g10.0", "g9.1"]},
            {"id": "v4", "colour": "violet", "rotation": ["g5.1", "g6.0"]},
            {"id": "e0", "colour": "emerald", "rotation": ["g11.0", "g5.0", "g10.1"]},
            {"id": "e1", "colour": "emerald", "rotation": ["g6.1", "g8.0", "g1.0"]},
            {"id": "e2", "colour": "emerald", "rotation": ["g2.1", "g3.0"]},
            {"id": "e3", "colour": "emerald", "rotation": ["g4.1", "g7.1", "g9.0"]},
        ],
        "edges": [
            {"id": "g1", "darts": ["g1.0", "g1.1"]},  # e1 - v1
            {"id": "g2", "darts": ["g2.0", "g2.1"]},  # v1 - e2
            {"id": "g3", "darts": ["g3.0", "g3.1"]},  # e2 - v2
            {"id": "g4", "darts": ["g4.0", "g4.1"]},  # v2 - e3
            {"id": "g5", "darts": ["g5.0", "g5.1"]},  # e0 - v4
            {"id": "g6", "darts": ["g6.0", "g6.1"]},  # v4 - e1
            {"id": "g7", "darts": ["g7.0", "g7.1"]},  # v0 - e3
            {"id": "g8", "darts": ["g8.0", "g8.1"]},  # e1 - v0
            {"id": "g9", "darts": ["g9.0", "g9.1"]},  # e3 - v3
            {"id": "g10", "darts": ["g10.0", "g10.1"]},  # v3 - e0
            {"id": "g11", "darts": ["g11.0", "g11.1"]},  # e0 - v0
        ],
    }


def triangle_document():
    """Odd cycle; fails bipartite validation."""
    return {
        "vertices": [
            {"id": "a", "colour": None, "rotation": ["e2.1", "e0.0"]},
            {"id": "b", "colour": None, "rotation": ["e0.1", "e1.0"]},
            {"id": "c", "colour": None, "rotation": ["e1.1", "e2.0"]},
        ],
        "edges": [
            {"id": "e0", "darts": ["e0.0", "e0.1"]},
            {"id": "e1", "darts": ["e1.0", "e1.1"]},
            {"id": "e2", "darts": ["e2.0", "e2.1"]},
        ],
    }


def loop_document(colour=None):
    """One vertex with a loop; fails bipartite validation, coloured or not."""
    return {
        "vertices": [{"id": "a", "colour": colour, "rotation": ["l.0", "l.1"]}],
        "edges": [{"id": "l", "darts": ["l.0", "l.1"]}],
    }


CORPUS_SPECS = (
    ("path1", "path", 1),
    ("path2", "path", 2),
    ("cycle4", "even_cycle", 2),
    ("cycle6", "even_cycle", 3),
    ("theta3", "theta", 3),
    ("ladder3", "ladder", 3),
    ("grid2", "grid", 2),
)


def corpus_documents():
    """All corpus instances with <= 12 edges, by name."""
    docs = {name: generate_corpus(family, size) for name, family, size in CORPUS_SPECS}
    docs["running11"] = running_example_document()
    return docs


def corpus_graphs():
    return {
        name: plane_graph.ensure_bicoloured(plane_graph.parse_graph(doc))
        for name, doc in corpus_documents().items()
    }


def path_document(k):
    """Path with k edges p0..p{k-1}, of any length (the generator stops at 64)."""
    vertices = []
    for i in range(k + 1):
        rotation = []
        if i > 0:
            rotation.append(f"p{i - 1}.1")
        if i < k:
            rotation.append(f"p{i}.0")
        vertices.append({"id": f"v{i}", "colour": None, "rotation": rotation})
    edges = [{"id": f"p{i}", "darts": [f"p{i}.0", f"p{i}.1"]} for i in range(k)]
    return {"vertices": vertices, "edges": edges}


def medial_universe_document(doc, star_dart):
    """Medial graph of a plane graph, as a universe document.

    One crossing per edge, named by the edge's position in the document so
    that crossing ids sort in edge order, and one medial edge ``m:<d>`` per
    corner of a face, joining the crossing of dart d to the crossing of the
    next dart along d's face. The two faces flanking ``m:<star_dart>`` are
    starred. The states then biject with the spanning trees of the graph.
    """
    graph = plane_graph.parse_graph(doc)
    prev = {}
    for face in graph.faces.values():
        for i, d in enumerate(face.boundary):
            prev[d] = face.boundary[i - 1]
    width = len(str(len(doc["edges"])))
    vertices = []
    for i, edge in enumerate(doc["edges"]):
        a, b = edge["darts"]
        # counterclockwise with a pointing east: ahead of a on its left,
        # behind a on its left, ahead of b on its left, behind b on its left
        rotation = [f"m:{a}.0", f"m:{prev[a]}.1", f"m:{b}.0", f"m:{prev[b]}.1"]
        vertices.append({"id": f"x{i:0{width}d}", "colour": None, "rotation": rotation})
    edges = [{"id": f"m:{d}", "darts": [f"m:{d}.0", f"m:{d}.1"]} for d in sorted(prev)]
    medial = {"vertices": vertices, "edges": edges}
    medial_graph = plane_graph.parse_graph(medial)
    medial["stars"] = sorted(medial_graph.face_of(f"m:{star_dart}.{j}") for j in (0, 1))
    return medial
