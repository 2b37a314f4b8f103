"""Combinatorial verification engine for trinities of plane bipartite graphs.

Builds the trinity of a connected plane bipartite graph and verifies, by
several independent routes, that one number answers many questions: the
arborescence counts of the three directed duals, the hypertree counts of
all six hypergraphs, the number of components of the tight configuration
graph on the face discs, and the state count of an associated knot-shadow
universe.
"""

from .limits import DEFAULT_CAP, CapExceeded, InputError, ModelFailure
from .plane_graph import (
    RotationGraph,
    SchemaError,
    NotConnected,
    NotPlanarConsistent,
    canonical_form,
    parse_graph,
    planar_dual,
    validate_bipartite_plane,
)
from .trinity import Trinity, build_trinity
from .trees import (
    count_arborescences,
    enumerate_arborescences,
    enumerate_spanning_trees,
    magic_number,
)
from .hypertrees import enumerate_hypertrees, hypertree_of, translate_offset, trinity_hypergraph
from .dividing import (
    ChordDiagram,
    Configuration,
    enumerate_chord_diagrams,
    is_tight,
    is_tree_hugging,
    tree_hugging,
)
from .transitions import (
    build_configuration_graph,
    classify_components,
)
from .fkt import (
    Universe,
    clock_graph,
    enumerate_states,
    parse_universe,
    states_vs_configurations,
    transpositions,
    universe_dual_graph,
)

__version__ = "0.1.0"
