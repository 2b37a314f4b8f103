"""Trinities of plane bipartite graphs.

Placing a red vertex in every face of a connected plane bipartite graph
(violet/emerald classes) and joining it to all corners of the face yields a
triangulation of the sphere whose vertices are properly 3-coloured. The
triangles are 2-shaded: a triangle is *black* when its violet, emerald and
red corners appear counterclockwise, *white* otherwise; equivalently, the
triangle of a boundary dart is black exactly when the dart leaves a violet
vertex. The two shades alternate around every vertex.

From the trinity we expose the three colour graphs (the violet graph on
emerald+red vertices, the emerald graph on red+violet vertices, and the red
graph, which is the input itself) and their planar duals directed from
black to white triangles, which are balanced. The shade rule lives in
``_build_triangles`` only: arc e of a dual crosses edge e of its colour
graph's ``graph_index`` and is read off the two triangles flanking that
edge, from that colour's corner of the black one to its corner of the
white one. Trees, arcs and disc corners name colour-graph edges by these
positions, and only this module maps ids to them.

A ``Trinity`` owns the products computed from it: the corner lists, the
directed duals, the colour graphs' index arrays, the six hypertree sets
(sorted vectors, no witness trees), the magic-number report, the disc
charts and the global numbering of boundary points and their glue across
edges are built at most once per trinity and shared by every caller. The
enumeration cap is fixed when the trinity is built, so every product is a
plain memo.
"""

from __future__ import annotations

from functools import cached_property

from . import hypertrees, trees
from .limits import DEFAULT_CAP, InputError, ModelFailure
from .plane_graph import Edge, RotationGraph, Vertex, ensure_bicoloured

BLACK = "black"
WHITE = "white"


class Triangle:
    """Corner incidence of a face: one triangle per boundary dart."""

    __slots__ = ("face", "index", "dart", "shade", "violet", "emerald")

    def __init__(self, face: str, index: int, dart: str, shade: str, violet: str, emerald: str):
        self.face = face
        self.index = index
        self.dart = dart
        self.shade = shade
        self.violet = violet
        self.emerald = emerald

    @property
    def red(self):
        """The red corner: the face the triangle lies in."""
        return self.face


class DirectedDual:
    """Planar dual of one colour graph, arcs directed black-to-white.

    ``vertices`` are sorted ids; arc e crosses edge e of the colour graph,
    from vertex ``tail[e]`` to vertex ``head[e]``, by position.
    """

    __slots__ = ("colour", "vertices", "tail", "head")

    def __init__(self, colour: str, vertices: tuple[str, ...], tail: list, head: list):
        self.colour = colour
        self.vertices = vertices
        self.tail = tail
        self.head = head


class Trinity:
    """Trinity generated by a connected plane bipartite graph.

    Red vertex ids are the face ids of the input graph, so hypertree
    vectors, Euler class vectors and census entries all share one index.
    ``cap`` bounds every enumeration run for the trinity's products.
    """

    def __init__(self, graph: RotationGraph, cap=DEFAULT_CAP):
        graph = ensure_bicoloured(graph)
        self.graph = graph
        self.cap = cap
        self.violet = graph.colour_classes.get("violet", ())
        self.emerald = graph.colour_classes.get("emerald", ())
        self.red = tuple(sorted(graph.faces))
        self.n = len(graph.edges)
        self.n_r = {
            fid: len(face.boundary) // 2 for fid, face in graph.faces.items()
        }
        self.triangles = self._build_triangles()
        self._duals = {}
        self._indexes = {}
        self._hypertrees = {}

    def _build_triangles(self):
        g = self.graph
        triangles = []
        for fid in self.red:
            boundary = g.faces[fid].boundary
            for i, d in enumerate(boundary):
                o, t = g.origin(d), g.target(d)
                if g.colour_of(o) == "violet":
                    shade, violet, emerald = BLACK, o, t
                else:
                    shade, violet, emerald = WHITE, t, o
                triangles.append(Triangle(fid, i, d, shade, violet, emerald))
        return tuple(triangles)

    # -- corners -----------------------------------------------------------

    def corner_id(self, face, index):
        return f"{face}@{index}"

    @cached_property
    def corners(self):
        """Colour -> corner incidences (face, index, vertex) at vertices of that colour."""
        g = self.graph
        out = {"violet": [], "emerald": []}
        for fid in self.red:
            for i, d in enumerate(g.faces[fid].boundary):
                w = g.target(d)
                out[g.colour_of(w)].append((fid, i, w))
        return out

    # -- colour graphs -------------------------------------------------------

    @cached_property
    def violet_graph(self):
        """Bipartite plane graph on emerald and red vertices (one edge per emerald corner)."""
        return self._corner_graph("emerald")

    @cached_property
    def emerald_graph(self):
        """Bipartite plane graph on red and violet vertices (one edge per violet corner)."""
        return self._corner_graph("violet")

    @cached_property
    def red_graph(self):
        return self.graph

    def _corner_graph(self, corner_colour):
        g = self.graph
        corners = self.corners[corner_colour]
        red_rotations = {fid: [] for fid in self.red}
        # keyed by the boundary dart leaving the corner vertex
        corner_by_out_dart = {}
        for fid, i, w in corners:
            cid = self.corner_id(fid, i)
            red_rotations[fid].append(f"{cid}:r")
            boundary = g.faces[fid].boundary
            out_dart = boundary[(i + 1) % len(boundary)]
            corner_by_out_dart[out_dart] = cid

        vertices = [
            Vertex(fid, "red", tuple(red_rotations[fid])) for fid in self.red
        ]
        for w in g.colour_classes[corner_colour]:
            rotation = tuple(
                f"{corner_by_out_dart[d]}:c" for d in g.vertices[w].rotation
            )
            vertices.append(Vertex(w, corner_colour, rotation))
        edges = [
            Edge(self.corner_id(fid, i), (f"{self.corner_id(fid, i)}:r", f"{self.corner_id(fid, i)}:c"))
            for fid, i, _ in corners
        ]
        return RotationGraph(vertices, edges)

    def graph_index(self, colour):
        """``trees.GraphIndex`` of the colour graph (memoised), for its spanning
        checks and for the Kirchhoff cap check of both hypergraphs it hosts."""
        if colour not in self._indexes:
            self._indexes[colour] = trees.GraphIndex(getattr(self, f"{colour}_graph"))
        return self._indexes[colour]

    # -- directed duals ------------------------------------------------------

    def directed_dual(self, colour):
        """The colour graph's planar dual, arcs directed black to white (memoised)."""
        dual = self._duals.get(colour)
        if dual is None:
            dual = self._duals[colour] = self._build_directed_dual(colour)
        return dual

    def _build_directed_dual(self, colour):
        # each arc crosses one edge of the colour graph, from that colour's
        # corner of the black flanking triangle to its corner of the white one
        g = self.graph
        of_dart = {x.dart: x for x in self.triangles}
        if colour == "red":
            # the triangles of the edge's two darts
            flanks = [(eid, *map(of_dart.__getitem__, edge.darts)) for eid, edge in g.edges.items()]
            vertices = self.red
        elif colour in ("violet", "emerald"):
            # the triangles of the darts entering and leaving the corner
            corner_colour = "emerald" if colour == "violet" else "violet"
            flanks = []
            for fid, i, _w in self.corners[corner_colour]:
                boundary = g.faces[fid].boundary
                d_in, d_out = boundary[i], boundary[(i + 1) % len(boundary)]
                flanks.append((self.corner_id(fid, i), of_dart[d_in], of_dart[d_out]))
            vertices = g.colour_classes[colour]
        else:
            raise InputError(f"unknown colour {colour!r}")
        # arc ids are the colour graph's edge ids, unique, so sorting gives its edge order
        flanks.sort()
        position = {v: x for x, v in enumerate(vertices)}
        tail, head = [], []
        for _id, x, y in flanks:
            black, white = (x, y) if x.shade == BLACK else (y, x)
            tail.append(position[getattr(black, colour)])
            head.append(position[getattr(white, colour)])
        return DirectedDual(colour, vertices, tail, head)

    # -- hypertrees and the magic number ---------------------------------------

    def hypertree_set(self, label):
        """The hypertrees of hypergraph ``label``, sorted value tuples in its ``ids``
        order (memoised); a failed search's ``ModelFailure`` is memoised, raised again."""
        found = self._hypertrees.get(label)
        if found is None:
            hypergraph = hypertrees.trinity_hypergraph(self, label)
            try:
                found = hypertrees.enumerate_hypertrees(hypergraph, self.cap)
            except ModelFailure as failure:
                found = failure
            self._hypertrees[label] = found
        if isinstance(found, ModelFailure):
            raise found
        return found

    @cached_property
    def magic_report(self):
        """``trees.magic_number`` of this trinity."""
        return trees.magic_number(self)

    # -- dividing-set bookkeeping ----------------------------------------------

    @cached_property
    def charts(self):
        """Face id -> the violet-graph edge position of the emerald corner
        under each boundary arc, -1 under a positive arc.

        An arc is negative exactly when it ends at an emerald corner.
        """
        edge_index = self.graph_index("violet").edge_index
        charts = {fid: [-1] * (2 * k) for fid, k in self.n_r.items()}
        for fid, i, _w in self.corners["emerald"]:
            charts[fid][i] = edge_index[self.corner_id(fid, i)]
        return {fid: tuple(charts[fid]) for fid in self.red}

    @cached_property
    def signs(self):
        """Face id -> each boundary arc's sign, +1 when positive, -1 when negative."""
        return {fid: tuple(1 if c < 0 else -1 for c in chart) for fid, chart in self.charts.items()}

    @cached_property
    def offset(self):
        """Face id -> global index of its boundary point 0, faces in sorted order."""
        offset = {}
        start = 0
        for fid in self.red:
            offset[fid] = start
            start += 2 * self.n_r[fid]
        return offset

    @cached_property
    def glue(self):
        """Point glued to each boundary point across its edge, by global index."""
        g = self.graph
        glue = [0] * (2 * self.n)
        for edge in g.edges.values():
            a, b = (self.offset[f] + i for f, i in map(g.position_of, edge.darts))
            glue[a] = b
            glue[b] = a
        return glue

    # -- census ---------------------------------------------------------------

    def census(self):
        """Colour class, face and edge counts. V + E + R = n + 2 and the n_r
        sum to n by construction: ``RotationGraph`` enforces V - E + F = 2,
        and every face of a bipartite map has even length."""
        return {
            "V": len(self.violet),
            "E": len(self.emerald),
            "R": len(self.red),
            "n": self.n,
            "n_r": dict(sorted(self.n_r.items())),
        }


def build_trinity(graph, cap=DEFAULT_CAP):
    """Construct the trinity of a validated plane bipartite graph."""
    return Trinity(graph, cap)
