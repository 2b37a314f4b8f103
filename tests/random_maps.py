"""Random connected plane bipartite maps, as graph documents.

A map grows from the single edge by three moves, each of which keeps the
rotation system on the sphere and the colouring proper:

- split an edge into three: the path u-x-y-v replaces the edge u-v;
- add an odd-length path across a face, between two of its corners of
  opposite colour. A path of length one may add a parallel edge;
- add a pendant edge: a new vertex joined to any corner. Only this move
  makes a vertex of degree one, so without it no map has more than two
  leaves.

Corners follow the face-tracing convention of ``plane_graph``: arriving
at w along dart d, the face leaves along the rotation predecessor of d's
reverse, so a dart inserted right after that predecessor in w's rotation
opens a new edge into this face's corner at w.
"""

from hypothesis import strategies as st

from trinities import plane_graph

OTHER = {"violet": "emerald", "emerald": "violet"}


class Map:
    """Mutable rotation system: colours, rotations and edges in insertion order."""

    def __init__(self):
        self.colour = {}
        self.rotation = {}
        self.edges = {}
        self.darts = 0
        u = self._vertex("violet")
        v = self._vertex("emerald")
        a, b = self._edge()
        self.rotation[u].append(a)
        self.rotation[v].append(b)

    def document(self):
        return {
            "vertices": [
                {"id": v, "colour": c, "rotation": list(self.rotation[v])}
                for v, c in self.colour.items()
            ],
            "edges": [{"id": e, "darts": list(d)} for e, d in self.edges.items()],
        }

    def _vertex(self, colour):
        v = f"u{len(self.colour)}"
        self.colour[v] = colour
        self.rotation[v] = []
        return v

    def _dart(self):
        self.darts += 1
        return f"d{self.darts}"

    def _edge(self, second=None):
        darts = (self._dart(), second or self._dart())
        self.edges[f"a{len(self.edges)}"] = darts
        return darts

    def _owner(self, dart):
        return next(v for v, rot in self.rotation.items() if dart in rot)

    def split_edge(self, eid):
        """Replace the edge u-v by the path u-x-y-v, keeping u's and v's darts."""
        a, b = self.edges[eid]
        u = self._owner(a)
        x = self._vertex(OTHER[self.colour[u]])
        y = self._vertex(self.colour[u])
        at_x = self._dart()
        self.edges[eid] = (a, at_x)
        middle = self._edge()
        last = self._edge(second=b)
        self.rotation[x] = [at_x, middle[0]]
        self.rotation[y] = [middle[1], last[0]]

    def add_pendant(self, corner):
        """Join a new vertex, of the other colour, to the corner left by the dart ``corner``."""
        u = self._owner(corner)
        x = self._vertex(OTHER[self.colour[u]])
        at_u, at_x = self._edge()
        rot = self.rotation[u]
        rot.insert(rot.index(corner) + 1, at_u)
        self.rotation[x] = [at_x]

    def add_path(self, corner_u, corner_w, length):
        """Join two corners of one face by a new path of odd length.

        A corner is given by the dart leaving it along the face; the new
        dart at each end goes right after it in the rotation.
        """
        u, w = self._owner(corner_u), self._owner(corner_w)
        assert self.colour[u] != self.colour[w] and length % 2 == 1
        path = [u]
        for step in range(1, length):
            path.append(self._vertex(self.colour[u] if step % 2 == 0 else self.colour[w]))
        path.append(w)
        darts = [self._edge() for _ in range(length)]
        for v, corner, dart in ((u, corner_u, darts[0][0]), (w, corner_w, darts[-1][1])):
            rot = self.rotation[v]
            rot.insert(rot.index(corner) + 1, dart)
        for k in range(1, length):
            self.rotation[path[k]] = [darts[k - 1][1], darts[k][0]]


@st.composite
def plane_bipartite_maps(draw, max_edges=14):
    """A connected plane bipartite map document with at most ``max_edges`` edges.

    Each step draws its move in at most two choices from lists that no
    other step offers: first a site, an edge to split, a face to cross or
    a corner to hang a pendant edge at, then for a face the two corners
    and the path length together.
    Hypothesis labels a ``sampled_from`` draw by its elements, so its
    mutator finds no two draws of one label to copy between; a copied
    ``booleans()`` draw would switch one step's move and misread every
    later choice.
    """
    target = draw(st.integers(min_value=1, max_value=max_edges))
    grown = Map()
    while len(grown.edges) < target:
        room = target - len(grown.edges)
        graph = plane_graph.parse_graph(grown.document())
        sites = [("split", eid) for eid in sorted(grown.edges) if room >= 2]
        sites += [("cross", fid) for fid in sorted(graph.faces)]
        sites += [("pendant", d) for fid in sorted(graph.faces) for d in graph.faces[fid].boundary]
        move, site = draw(st.sampled_from(sites))
        if move == "split":
            grown.split_edge(site)
            continue
        if move == "pendant":
            grown.add_pendant(site)
            continue
        boundary = graph.faces[site].boundary
        colour = {d: graph.colour_of(graph.origin(d)) for d in boundary}
        paths = [
            (corner_u, corner_w, length)
            for corner_u in boundary
            for corner_w in boundary
            if colour[corner_w] != colour[corner_u]
            for length in (1, 3, 5)
            if length <= room
        ]
        grown.add_path(*draw(st.sampled_from(paths)))
    return grown.document()
