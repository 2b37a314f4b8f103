"""Plane multigraphs encoded as rotation systems.

A graph is given by darts (half-edges): every vertex lists its darts in
counterclockwise plane order and every edge owns exactly two darts. The
embedding is part of the input, never inferred. Faces are traced with the
convention that the face lies to the left of each boundary dart: from a
dart arriving at a vertex, the trace continues with the rotation
predecessor of its reverse.

No object is changed after construction.
"""

from __future__ import annotations

from functools import cached_property

from .limits import InputError

COLOURS = ("violet", "emerald", "red")


class SchemaError(InputError):
    """The input document does not match the graph JSON schema."""


class NotConnected(InputError):
    """The graph is not connected."""


class NotPlanarConsistent(InputError):
    """The rotation system does not close up into a sphere embedding."""


class Vertex:
    __slots__ = ("id", "colour", "rotation")

    def __init__(self, id: str, colour: str | None, rotation: tuple[str, ...]):
        self.id = id
        self.colour = colour
        self.rotation = rotation


class Edge:
    __slots__ = ("id", "darts")

    def __init__(self, id: str, darts: tuple[str, str]):
        self.id = id
        self.darts = darts


class Face:
    __slots__ = ("id", "boundary")

    def __init__(self, id: str, boundary: tuple[str, ...]):
        self.id = id
        self.boundary = boundary


class RotationGraph:
    """Connected plane multigraph with explicit rotation system.

    Construction validates the dart structure, checks connectivity and
    traces the faces; the Euler count ``V - E + F = 2`` is enforced, so an
    instance always describes a sphere embedding.
    """

    def __init__(self, vertices, edges):
        vertices = list(vertices)
        edges = list(edges)
        self.vertices = {v.id: v for v in vertices}
        self.edges = {e.id: e for e in edges}
        if len(self.vertices) != len(vertices):
            raise SchemaError("duplicate vertex id")
        if len(self.edges) != len(edges):
            raise SchemaError("duplicate edge id")
        if not self.edges:
            raise SchemaError("graph must have at least one edge")

        self._dart_vertex = {}
        for v in self.vertices.values():
            for d in v.rotation:
                if d in self._dart_vertex:
                    raise SchemaError(f"dart {d!r} appears in two rotations")
                self._dart_vertex[d] = v.id

        self._dart_edge = {}
        self._reverse = {}
        for e in self.edges.values():
            if len(e.darts) != 2 or e.darts[0] == e.darts[1]:
                raise SchemaError(f"edge {e.id!r} must own two distinct darts")
            a, b = e.darts
            for d in e.darts:
                if d not in self._dart_vertex:
                    raise SchemaError(f"dart {d!r} of edge {e.id!r} not in any rotation")
                if d in self._dart_edge:
                    raise SchemaError(f"dart {d!r} owned by two edges")
                self._dart_edge[d] = e.id
            self._reverse[a] = b
            self._reverse[b] = a

        stray = set(self._dart_vertex) - set(self._dart_edge)
        if stray:
            raise SchemaError(f"darts without an edge: {sorted(stray)}")

        self._check_connected()
        self.faces = self._trace_faces()
        self._dart_face = {}
        self._dart_pos = {}
        for f in self.faces.values():
            for i, d in enumerate(f.boundary):
                self._dart_face[d] = f.id
                self._dart_pos[d] = (f.id, i)
        if len(self.vertices) - len(self.edges) + len(self.faces) != 2:
            raise NotPlanarConsistent(
                "face trace gives genus > 0: V-E+F = "
                f"{len(self.vertices) - len(self.edges) + len(self.faces)}"
            )

    # -- basic accessors -------------------------------------------------

    def reverse(self, dart):
        return self._reverse[dart]

    def origin(self, dart):
        """Vertex a dart points away from."""
        return self._dart_vertex[dart]

    def target(self, dart):
        return self._dart_vertex[self._reverse[dart]]

    def colour_of(self, vertex_id):
        return self.vertices[vertex_id].colour

    def face_of(self, dart):
        """Face lying to the left of the dart."""
        return self._dart_face[dart]

    def position_of(self, dart):
        """(face id, index) of the dart in its face boundary."""
        return self._dart_pos[dart]

    def rotation_successor(self, dart):
        rot = self.vertices[self._dart_vertex[dart]].rotation
        return rot[(rot.index(dart) + 1) % len(rot)]

    def rotation_predecessor(self, dart):
        rot = self.vertices[self._dart_vertex[dart]].rotation
        return rot[rot.index(dart) - 1]

    def endpoints(self, edge_id):
        a, b = self.edges[edge_id].darts
        return (self._dart_vertex[a], self._dart_vertex[b])

    def is_loop(self, edge_id):
        u, v = self.endpoints(edge_id)
        return u == v

    def darts(self):
        return sorted(self._dart_edge)

    @cached_property
    def colour_classes(self):
        classes = {}
        for v in self.vertices.values():
            classes.setdefault(v.colour, []).append(v.id)
        return {c: tuple(sorted(ids)) for c, ids in classes.items()}

    # -- construction helpers --------------------------------------------

    def _check_connected(self):
        start = next(iter(self.vertices))
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for d in self.vertices[v].rotation:
                w = self.target(d)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(self.vertices):
            raise NotConnected(f"{len(self.vertices) - len(seen)} vertices unreachable")

    def _trace_faces(self):
        # next dart after d: arrive at target(d), leave along the rotation
        # predecessor of reverse(d); the face stays on the left.
        nxt = {d: self.rotation_predecessor(self._reverse[d]) for d in self._dart_edge}
        orbits = []
        seen = set()
        for start in sorted(self._dart_edge):
            if start in seen:
                continue
            boundary = []
            d = start
            while True:
                boundary.append(d)
                seen.add(d)
                d = nxt[d]
                if d == start:
                    break
            orbits.append(tuple(boundary))
        # face ids must not collide with vertex ids (duals reuse them)
        prefix = "f"
        taken = set(self.vertices) | set(self.edges)
        while any(f"{prefix}{k}" in taken for k in range(len(orbits))):
            prefix += "f"
        return {
            f"{prefix}{k}": Face(f"{prefix}{k}", boundary)
            for k, boundary in enumerate(orbits)
        }


# -- parsing and serialization -------------------------------------------


def parse_graph(document):
    """Build a validated RotationGraph from a decoded JSON document."""
    if not isinstance(document, dict):
        raise SchemaError("document must be a JSON object")
    for key in ("vertices", "edges"):
        if key not in document or not isinstance(document[key], list):
            raise SchemaError(f"missing list field {key!r}")

    vertices = []
    for rec in document["vertices"]:
        if not isinstance(rec, dict) or "id" not in rec or "rotation" not in rec:
            raise SchemaError(f"bad vertex record: {rec!r}")
        if not isinstance(rec["id"], str):
            raise SchemaError(f"vertex id {rec['id']!r} is not a string")
        colour = rec.get("colour")
        if colour is not None and colour not in COLOURS:
            raise SchemaError(f"bad colour {colour!r} on vertex {rec['id']!r}")
        rotation = rec["rotation"]
        if not isinstance(rotation, list) or not all(isinstance(d, str) for d in rotation):
            raise SchemaError(f"bad rotation on vertex {rec['id']!r}")
        vertices.append(Vertex(rec["id"], colour, tuple(rotation)))

    edges = []
    for rec in document["edges"]:
        if not isinstance(rec, dict) or "id" not in rec or "darts" not in rec:
            raise SchemaError(f"bad edge record: {rec!r}")
        if not isinstance(rec["id"], str):
            raise SchemaError(f"edge id {rec['id']!r} is not a string")
        darts = rec["darts"]
        if not isinstance(darts, list) or len(darts) != 2:
            raise SchemaError(f"edge {rec['id']!r} must list two darts")
        if not all(isinstance(d, str) for d in darts):
            raise SchemaError(f"darts of edge {rec['id']!r} are not strings")
        edges.append(Edge(rec["id"], tuple(darts)))

    return RotationGraph(vertices, edges)


def to_document(graph):
    """Serialize back to the graph JSON schema (faces are derived, not stored)."""
    return {
        "vertices": [
            {"id": v.id, "colour": v.colour, "rotation": list(v.rotation)}
            for v in sorted(graph.vertices.values(), key=lambda v: v.id)
        ],
        "edges": [
            {"id": e.id, "darts": list(e.darts)}
            for e in sorted(graph.edges.values(), key=lambda e: e.id)
        ],
    }


def edge_records(ids):
    """Edge records of a graph document, edge e owning darts e.0 and e.1."""
    return [{"id": e, "darts": [f"{e}.0", f"{e}.1"]} for e in ids]


# -- operations --------------------------------------------------------------


def planar_dual(graph):
    """Planar dual: one vertex per face, one edge per edge.

    The dual reuses the primal dart and edge ids; the rotation at a dual
    vertex is the boundary trace of the corresponding face, which keeps
    the orientation consistent so that the dual of the dual is isomorphic
    to the input.
    """
    vertices = [
        Vertex(f.id, None, f.boundary) for f in sorted(graph.faces.values(), key=lambda f: f.id)
    ]
    edges = [
        Edge(e.id, e.darts) for e in sorted(graph.edges.values(), key=lambda e: e.id)
    ]
    return RotationGraph(vertices, edges)


def two_colouring(graph):
    """Proper 2-colouring with violet/emerald, or None if an odd cycle exists.

    Deterministic: the lexicographically smallest vertex is violet.
    """
    colour = {}
    for root in sorted(graph.vertices):
        if root in colour:
            continue
        colour[root] = "violet"
        queue = [root]
        while queue:
            v = queue.pop()
            want = "emerald" if colour[v] == "violet" else "violet"
            for d in graph.vertices[v].rotation:
                w = graph.target(d)
                if w == v:
                    return None  # loop
                if w not in colour:
                    colour[w] = want
                    queue.append(w)
                elif colour[w] != want:
                    return None
    return colour


def with_colours(graph, colouring):
    """Copy of the graph with the given vertex colouring applied."""
    vertices = [Vertex(v.id, colouring.get(v.id), v.rotation) for v in graph.vertices.values()]
    return RotationGraph(vertices, graph.edges.values())


def validate_bipartite_plane(graph):
    """The violet/emerald colouring of a bipartite plane input.

    Colours are checked when present and computed otherwise. Raises
    ``SchemaError`` naming the first condition the graph fails; a loop
    fails every colouring check, so it is named alone.
    """
    if any(graph.is_loop(e) for e in graph.edges):
        raise SchemaError("graph has a loop edge")
    given = {v.id: v.colour for v in graph.vertices.values() if v.colour is not None}
    if not given:
        colouring = two_colouring(graph)
        if colouring is None:
            raise SchemaError("not bipartite: odd cycle or loop")
        return colouring
    if len(given) != len(graph.vertices) or not set(given.values()) <= {"violet", "emerald"}:
        raise SchemaError("vertex colours must be a complete violet/emerald tagging")
    if any(graph.colour_of(u) == graph.colour_of(v) for u, v in map(graph.endpoints, graph.edges)):
        raise SchemaError("an edge joins two vertices of the same colour")
    return given


def ensure_bicoloured(graph):
    """Return the graph with a complete violet/emerald colouring, computing one if needed."""
    colouring = validate_bipartite_plane(graph)
    if all(v.colour is not None for v in graph.vertices.values()):
        return graph
    return with_colours(graph, colouring)


# -- canonical form -----------------------------------------------------------


def canonical_form(graph, use_colours=False):
    """Canonical encoding of the embedded graph up to dart relabelling.

    A deterministic traversal labels darts in discovery order; the encoding
    records, per dart, its reverse and its rotation successor (plus the
    vertex colour when requested). The minimum over all starting darts is
    invariant under relabelling, so two graphs are isomorphic as oriented
    plane maps iff their canonical forms agree.
    """
    darts = graph.darts()
    best = None
    for start in darts:
        label = {start: 0}
        order = [start]
        i = 0
        while i < len(order):
            d = order[i]
            i += 1
            for nb in (graph.reverse(d), graph.rotation_successor(d)):
                if nb not in label:
                    label[nb] = len(order)
                    order.append(nb)
        enc = tuple(
            (label[graph.reverse(d)], label[graph.rotation_successor(d)])
            + ((graph.colour_of(graph.origin(d)),) if use_colours else ())
            for d in order
        )
        if best is None or enc < best:
            best = enc
    return best
