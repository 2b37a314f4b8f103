"""Combinatorial verification engine for trinities of plane bipartite graphs.

Builds the trinity of a connected plane bipartite graph and verifies, by
several independent routes, that one number answers many questions: the
arborescence counts of the three directed duals, the hypertree counts of
all six hypergraphs, the number of components of the tight configuration
graph on the face discs, and the state count of an associated knot-shadow
universe.
"""

__version__ = "0.1.0"
