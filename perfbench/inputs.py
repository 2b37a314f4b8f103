"""Benchmark-owned inputs: graph families, medial universes, seeded relabelling.

Nothing here calls the package's generators or counting code, so a change
to ``trinities.cli.generate_corpus`` cannot change a workload. The package
is used only to self-check each generated document (it must parse, and its
edge count, face count and face sizes must match the fingerprint recorded
below).

Documents use the package's input format: every vertex lists its darts
counterclockwise, every edge owns two darts, and faces are traced with the
face on the left (after arriving along a dart, leave along the rotation
predecessor of its reverse). Face ids are ``f0, f1, ...`` numbered by the
smallest dart of each face in string order, which is how the package names
them; universe documents name their starred faces this way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# -- base plane graphs --------------------------------------------------------


def _colour(i):
    return "violet" if i % 2 == 0 else "emerald"


def _edge(eid):
    return {"id": eid, "darts": [f"{eid}.0", f"{eid}.1"]}


def path_doc(k):
    """Path with k edges; magic number 1."""
    vertices = []
    for i in range(k + 1):
        rotation = ([f"p{i - 1}.1"] if i > 0 else []) + ([f"p{i}.0"] if i < k else [])
        vertices.append({"id": f"v{i}", "colour": _colour(i), "rotation": rotation})
    return {"vertices": vertices, "edges": [_edge(f"p{i}") for i in range(k)]}


def cycle_doc(k):
    """Cycle of length 2k; magic number k."""
    m = 2 * k
    vertices = [
        {"id": f"c{i}", "colour": _colour(i), "rotation": [f"e{(i - 1) % m}.1", f"e{i}.0"]}
        for i in range(m)
    ]
    return {"vertices": vertices, "edges": [_edge(f"e{i}") for i in range(m)]}


def theta_doc(m):
    """Two violet hubs joined by m strands through emerald midpoints; magic m.

    Hub h0 sits left of the strands and h1 right of them, strand i above
    strand i-1, so h0 meets the strands counterclockwise bottom to top and
    h1 top to bottom.
    """
    vertices = [
        {"id": "h0", "colour": "violet", "rotation": [f"a{i}.0" for i in range(m)]},
        {"id": "h1", "colour": "violet", "rotation": [f"b{i}.1" for i in reversed(range(m))]},
    ]
    vertices += [
        {"id": f"s{i}", "colour": "emerald", "rotation": [f"b{i}.0", f"a{i}.1"]}
        for i in range(m)
    ]
    edges = [_edge(f"{side}{i}") for i in range(m) for side in "ab"]
    return {"vertices": vertices, "edges": edges}


def grid_doc(kx, ky):
    """kx by ky grid of unit squares; ladder k is grid_doc(k, 1)."""
    vertices = []
    edges = []
    for x in range(kx + 1):
        for y in range(ky + 1):
            rotation = []  # counterclockwise from east
            if x < kx:
                rotation.append(f"h{x}_{y}.0")
            if y < ky:
                rotation.append(f"u{x}_{y}.0")
            if x > 0:
                rotation.append(f"h{x - 1}_{y}.1")
            if y > 0:
                rotation.append(f"u{x}_{y - 1}.1")
            vertices.append({"id": f"g{x}_{y}", "colour": _colour(x + y), "rotation": rotation})
            if x < kx:
                edges.append(_edge(f"h{x}_{y}"))
            if y < ky:
                edges.append(_edge(f"u{x}_{y}"))
    return {"vertices": vertices, "edges": edges}


def running11_doc():
    """The eleven-edge running example (5 violet, 4 emerald, faces 4/3/2/2).

    Its magic number, 11, was frozen from an independent arc-subset oracle.
    """
    rotations = {
        "v0": ("violet", ["g11.1", "g7.0", "g8.1"]),
        "v1": ("violet", ["g1.1", "g2.0"]),
        "v2": ("violet", ["g3.1", "g4.0"]),
        "v3": ("violet", ["g10.0", "g9.1"]),
        "v4": ("violet", ["g5.1", "g6.0"]),
        "e0": ("emerald", ["g11.0", "g5.0", "g10.1"]),
        "e1": ("emerald", ["g6.1", "g8.0", "g1.0"]),
        "e2": ("emerald", ["g2.1", "g3.0"]),
        "e3": ("emerald", ["g4.1", "g7.1", "g9.0"]),
    }
    vertices = [{"id": v, "colour": c, "rotation": r} for v, (c, r) in rotations.items()]
    return {"vertices": vertices, "edges": [_edge(f"g{i}") for i in range(1, 12)]}


def doubled_triangle_doc():
    """Triangle a, b, c with the side ca doubled; its medial is the figure-eight shadow."""
    return {
        "vertices": [
            {"id": "a", "colour": None, "rotation": ["ab.0", "ac.0", "ac2.0"]},
            {"id": "b", "colour": None, "rotation": ["bc.0", "ab.1"]},
            {"id": "c", "colour": None, "rotation": ["ac2.1", "ac.1", "bc.1"]},
        ],
        "edges": [_edge("ab"), _edge("bc"), _edge("ac"), _edge("ac2")],
    }


# -- rotation-system helpers ----------------------------------------------------


class Map:
    """Read-only view of a document's rotation system."""

    def __init__(self, doc):
        self.vertex_of = {}
        self.rotation = {}
        for rec in doc["vertices"]:
            self.rotation[rec["id"]] = list(rec["rotation"])
            for d in rec["rotation"]:
                self.vertex_of[d] = rec["id"]
        self.reverse = {}
        for rec in doc["edges"]:
            a, b = rec["darts"]
            self.reverse[a], self.reverse[b] = b, a

    def rotation_predecessor(self, d):
        rot = self.rotation[self.vertex_of[d]]
        return rot[rot.index(d) - 1]

    def face_next(self, d):
        """Next dart along the face lying left of d."""
        return self.rotation_predecessor(self.reverse[d])

    def faces(self):
        """{face id: boundary darts}, named as the package names them."""
        seen = set()
        faces = {}
        for start in sorted(self.reverse):
            if start in seen:
                continue
            boundary = [start]
            seen.add(start)
            d = self.face_next(start)
            while d != start:
                boundary.append(d)
                seen.add(d)
                d = self.face_next(d)
            faces[f"f{len(faces)}"] = tuple(boundary)
        return faces


def medial_universe(doc, star_dart):
    """Medial graph of a plane graph, as a universe document.

    One crossing per edge of the base graph and one medial edge per corner:
    ``m:<d>`` joins the edge of dart d to the edge of the next dart along
    d's face. Medial faces are the base graph's vertices and faces, and the
    two faces flanking ``m:<star_dart>`` (the face of star_dart and the
    vertex it points to) are starred. The universe's states then biject
    with the spanning trees of the base graph.
    """
    g = Map(doc)
    prev = {g.face_next(d): d for d in g.reverse}
    vertices = []
    for rec in doc["edges"]:
        a, b = rec["darts"]
        # counterclockwise around the midpoint of a: ahead-left, behind-left,
        # ahead-right, behind-right
        rotation = [f"m:{a}.0", f"m:{prev[a]}.1", f"m:{b}.0", f"m:{prev[b]}.1"]
        vertices.append({"id": f"x:{rec['id']}", "colour": None, "rotation": rotation})
    edges = [_edge(f"m:{d}") for d in sorted(g.reverse)]
    return {"vertices": vertices, "edges": edges}, (f"m:{star_dart}.0", f"m:{star_dart}.1")


# -- seeded relabelling ---------------------------------------------------------


def relabel(doc, rng, marked=(), keep_vertex_order=False):
    """Isomorphic copy with fresh vertex, edge and dart ids.

    Ids are drawn from random permutations, each rotation list starts at a
    random dart (the cyclic order, hence the embedding, is unchanged) and
    the vertex and edge records are shuffled. With ``keep_vertex_order``
    the new vertex ids sort in the document's vertex order. Returns the new
    document and the new names of the ``marked`` darts.
    """

    def renamer(prefix, ids):
        ids = sorted(ids)
        order = list(range(len(ids)))
        rng.shuffle(order)
        return {old: f"{prefix}{k}" for old, k in zip(ids, order)}

    if keep_vertex_order:
        width = len(str(len(doc["vertices"])))
        vname = {r["id"]: f"n{k:0{width}d}" for k, r in enumerate(doc["vertices"])}
    else:
        vname = renamer("n", [r["id"] for r in doc["vertices"]])
    ename = renamer("k", [r["id"] for r in doc["edges"]])
    dname = renamer("d", [d for r in doc["edges"] for d in r["darts"]])
    vertices = []
    for rec in doc["vertices"]:
        rot = [dname[d] for d in rec["rotation"]]
        shift = rng.randrange(len(rot)) if rot else 0
        rotation = rot[shift:] + rot[:shift]
        vertices.append({"id": vname[rec["id"]], "colour": rec["colour"], "rotation": rotation})
    edges = [
        {"id": ename[r["id"]], "darts": [dname[d] for d in r["darts"]]} for r in doc["edges"]
    ]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return {"vertices": vertices, "edges": edges}, tuple(dname[d] for d in marked)


# -- independent expected values -------------------------------------------------


def kirchhoff(doc):
    """Spanning trees of a document's graph: a Laplacian minor by exact Gaussian elimination."""
    g = Map(doc)
    verts = sorted(g.rotation)
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    lap = [[Fraction(0)] * n for _ in range(n)]
    for rec in doc["edges"]:
        u, v = (index[g.vertex_of[d]] for d in rec["darts"])
        if u != v:
            lap[u][v] -= 1
            lap[v][u] -= 1
            lap[u][u] += 1
            lap[v][v] += 1
    a = [row[:-1] for row in lap[:-1]]
    det = Fraction(1)
    for k in range(n - 1):
        pivot = next((i for i in range(k, n - 1) if a[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n - 1):
            factor = a[i][k] / a[k][k]
            if factor:
                for j in range(k, n - 1):
                    a[i][j] -= factor * a[k][j]
    return int(det)


def catalan(n):
    c = 1
    for i in range(n):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


# -- the instance table ---------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    """One benchmark input with its expected answer.

    ``fingerprint`` is (edges, faces, sorted face sizes); for graphs the
    sizes are half-lengths, for universes full lengths. A graph's
    ``expected`` magic number is recorded with its ``source``; a universe's
    state count is the Kirchhoff count of its base graph, computed when the
    input is generated. ``cap`` is the ``--cap`` the invocation needs.
    """

    name: str
    kind: str  # "graph" or "universe"
    build: object  # the graph, or the universe's base graph
    fingerprint: tuple
    expected: int | None
    source: str
    star_dart: str | None = None
    cap: int | None = None


def _graph(name, build, fingerprint, expected, source):
    return Instance(name, "graph", build, fingerprint, expected, source)


def _universe(name, base, star_dart, fingerprint, cap=None):
    source = "Kirchhoff determinant of the base graph (benchmark's own)"
    return Instance(name, "universe", base, fingerprint, None, source, star_dart, cap)


CLOSED = {
    "path": "closed form: a path has magic number 1",
    "even_cycle": "closed form: the cycle of length 2k has magic number k",
    "theta": "closed form: the theta graph with m strands has magic number m",
    "ladder": "closed form: the ladder with k squares has magic number 2^k",
}

INSTANCES = {}
for _k in range(1, 9):
    INSTANCES[f"path{_k}"] = _graph(
        f"path{_k}", lambda k=_k: path_doc(k), (_k, 1, (_k,)), 1, CLOSED["path"]
    )
for _k in range(2, 8):
    INSTANCES[f"even_cycle{_k}"] = _graph(
        f"even_cycle{_k}", lambda k=_k: cycle_doc(k), (2 * _k, 2, (_k, _k)), _k, CLOSED["even_cycle"]
    )
for _m in range(2, 9):
    INSTANCES[f"theta{_m}"] = _graph(
        f"theta{_m}", lambda m=_m: theta_doc(m), (2 * _m, _m, (2,) * _m), _m, CLOSED["theta"]
    )
for _k in range(1, 7):
    INSTANCES[f"ladder{_k}"] = _graph(
        f"ladder{_k}",
        lambda k=_k: grid_doc(k, 1),
        (3 * _k + 1, _k + 1, (2,) * _k + (_k + 1,)),
        2**_k,
        CLOSED["ladder"],
    )
INSTANCES["grid1"] = _graph(
    "grid1", lambda: grid_doc(1, 1), (4, 2, (2, 2)), 2, "frozen: grid 1 is ladder 1, magic 2"
)
INSTANCES["grid2"] = _graph(
    "grid2",
    lambda: grid_doc(2, 2),
    (12, 5, (2, 2, 2, 2, 4)),
    15,
    "frozen: grid 2 magic 15 (ROADMAP Baseline)",
)
INSTANCES["running11"] = _graph(
    "running11",
    running11_doc,
    (11, 4, (2, 2, 3, 4)),
    11,
    "frozen: running11 magic 11 (independent arc-subset oracle)",
)
INSTANCES["curl"] = _universe("curl", lambda: path_doc(1), "p0.0", (2, 3, (1, 1, 2)))
INSTANCES["hopf"] = _universe("hopf", lambda: cycle_doc(1), "e0.0", (4, 4, (2, 2, 2, 2)))
INSTANCES["figure_eight"] = _universe(
    "figure_eight", doubled_triangle_doc, "ab.0", (8, 6, (2, 2, 3, 3, 3, 3))
)
INSTANCES["medial_ladder3"] = _universe(
    "medial_ladder3",
    lambda: grid_doc(3, 1),
    "h0_0.0",
    (20, 12, (2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 8)),
    cap=4**10,
)
INSTANCES["medial_ladder7"] = _universe(
    "medial_ladder7",
    lambda: grid_doc(7, 1),
    "h0_0.0",
    (44, 24, (2, 2, 2, 2) + (3,) * 12 + (4,) * 7 + (16,)),
    cap=4**22,
)


# -- generation with self-check ---------------------------------------------------


class SelfCheckFailed(RuntimeError):
    """A generated document does not match its recorded fingerprint."""


@dataclass(frozen=True)
class Input:
    instance: Instance
    document: dict
    expected: int


def fingerprint_of(graph, kind):
    sizes = [len(f.boundary) for f in graph.faces.values()]
    if kind == "graph":
        sizes = [s // 2 for s in sizes]
    return (len(graph.edges), len(graph.faces), tuple(sorted(sizes)))


def generate(instance, seed, package):
    """Relabelled, self-checked document for one instance.

    ``package`` is the imported ``trinities`` package, used only to parse.
    """
    rng = random.Random(f"{seed}/{instance.name}")
    base = instance.build()
    if instance.kind == "graph":
        doc, _ = relabel(base, rng)
        graph = package.plane_graph.parse_graph(doc)
        expected = instance.expected
    else:
        medial, star_darts = medial_universe(base, instance.star_dart)
        # the state search visits crossings in id order and its cost is
        # exponential in a bad order, so crossings keep the base graph's
        # edge order (a walk along ladders) and only their names change
        doc, star_darts = relabel(medial, rng, star_darts, keep_vertex_order=True)
        faces = Map(doc).faces()
        face_of = {d: fid for fid, boundary in faces.items() for d in boundary}
        doc["stars"] = sorted(face_of[d] for d in star_darts)
        graph = package.fkt.parse_universe(doc).graph
        theirs = {fid: set(f.boundary) for fid, f in graph.faces.items()}
        if theirs != {fid: set(b) for fid, b in faces.items()}:
            raise SelfCheckFailed(f"{instance.name}: face ids differ from the package's")
        expected = kirchhoff(base)
    got = fingerprint_of(graph, instance.kind)
    if got != instance.fingerprint:
        raise SelfCheckFailed(f"{instance.name}: fingerprint {got} != {instance.fingerprint}")
    return Input(instance, doc, expected)
