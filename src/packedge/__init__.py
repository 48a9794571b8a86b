"""Packing edge-colorings of claw-free cubic graphs.

A connected claw-free cubic graph always admits a partition of its edges
into three matchings plus one class whose edges are pairwise at edge
distance at least four.  This package builds such colorings constructively
(recognize -> decompose -> color -> verify) and ships an independent
exhaustive oracle for cross-checking on small graphs.
"""

from .coloring import (ColoringFailed, apply_permutation, color_component,
                       color_graph, COLOR_1A, COLOR_1B, COLOR_1C, COLOR_3A)
from .graph import (EdgeId, GraphError, INFINITE, MultiGraph, VertexId,
                    are_isomorphic_small, build_graph)
from .matching import TwoFactor, perfect_matching_avoiding, two_factor_containing
from .oracle import (BUDGET_EXCEEDED, DEFAULT_BUDGET, FEASIBLE, INFEASIBLE,
                     OracleResult, oracle_color)
from .recognize import (ClawWitness, find_bridges, find_claw, is_cubic,
                        is_two_edge_connected)
from .structure import (BridgeDecomposition, ComponentBoundary, Diamond,
                        DiamondString, OumDecomposition, bridge_decompose,
                        component_boundary, find_diamonds, oum_decompose)
from .verify import PackingSpec, Violation, verify

__version__ = "0.1.0"
