"""Coined discrete-time quantum walks on regular graphs via rotation maps.

The pipeline: build or load a d-regular graph, give it a rotation map
(greedy extraction, a hand-written file, or a solver), turn the map into
a shift operator, measure the operator's unitarity defect exactly, and
evolve walk states under coin+shift steps.  The central fact the package
operationalizes: the shift operator is unitary exactly when every
rotation-map column is a permutation of the vertices.
"""

import importlib

# Each public name, grouped under the module it is imported from.  A name
# is imported on first access (PEP 562), so that importing the package,
# or one command of the CLI, loads only the layers that are used.
_EXPORTS = {
    "version": ("__version__", "REPORT_VERSION"),
    "errors": (
        "RotwalkError",
        "FormatError",
        "GraphStructureError",
        "RegularityError",
        "ValidationError",
        "GenerationError",
        "ConfigError",
    ),
    "graphs": (
        "RegularGraph",
        "FAMILIES",
        "generate_graph",
        "parse_graph",
        "serialize_graph",
        "cycle_graph",
        "complete_graph",
        "complete_bipartite_graph",
        "hypercube_graph",
        "torus_graph",
        "circulant_graph",
        "random_regular_graph",
    ),
    "rotmap": (
        "RotationMap",
        "ConsistencyReport",
        "WITNESS_FIELDS",
        "greedy_rotation",
        "cycle_rotation",
        "check_permutation_consistent",
        "check_involution_consistent",
        "validate_against_graph",
        "parse_rotation",
        "serialize_rotation",
    ),
    "operators": (
        "ShiftOperator",
        "CoinOperator",
        "UnitarityReport",
        "build_shift",
        "build_coin",
        "unitarity_defect",
        "UNITARY_TOL",
        "PRODUCT_DIM_LIMIT",
        "COIN_KINDS",
    ),
    "walk": (
        "WalkState",
        "WalkTrajectory",
        "TrajectoryRecord",
        "init_state",
        "uniform_state",
        "step",
        "run",
        "stream_records",
        "distribution",
    ),
    "solvers": (
        "SolverConfig",
        "SolverStats",
        "SolverOutcome",
        "CRITERIA",
        "METHODS",
        "solve",
        "solve_permutation",
        "exhaustive_search",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
