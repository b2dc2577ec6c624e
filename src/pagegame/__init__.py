"""Cost-sharing game engine for responsive page construction over DOM forests.

A page build is modeled as a directed acyclic multigraph of document
objects. Each player (a device routing one required component) picks a
root-leaf path; edge costs are split equally among users and an optional
cooperative term charges every player a ``delta``-weighted copy of the
whole page cost. The package computes best responses by exact reweighting,
runs improvement dynamics to pure equilibria, and cross-checks everything
against brute-force enumeration at desk scale.
"""

from .dom import (
    CostModel,
    DeviceProfile,
    DomForest,
    DomNode,
    build_game,
    default_cost_model,
    parse_document,
    serialize_document,
)
from .dynamics import (
    DynamicsTrace,
    Schedule,
    Step,
    best_response,
    is_nash,
    reweight,
    run_dynamics,
)
from .game import (
    TOLERANCE,
    CostReport,
    Edge,
    GameGraph,
    GameInstance,
    Node,
    Player,
    StrategyProfile,
    build_graph,
    cost_report,
    page_cost,
    player_cost,
    potential,
    shapley_share,
    validate_players,
    validate_profile,
)
from .oracle import (
    EquilibriumCatalog,
    EquilibriumEntry,
    analyze,
    brute_force_equilibria,
    enumerate_paths,
    social_optimum,
    union_is_forest,
)
from .rng import SplitMix64

__all__ = [
    "CostModel",
    "CostReport",
    "DeviceProfile",
    "DomForest",
    "DomNode",
    "DynamicsTrace",
    "Edge",
    "EquilibriumCatalog",
    "EquilibriumEntry",
    "GameGraph",
    "GameInstance",
    "Node",
    "Player",
    "Schedule",
    "SplitMix64",
    "Step",
    "StrategyProfile",
    "TOLERANCE",
    "analyze",
    "best_response",
    "brute_force_equilibria",
    "build_game",
    "build_graph",
    "cost_report",
    "default_cost_model",
    "enumerate_paths",
    "is_nash",
    "page_cost",
    "parse_document",
    "player_cost",
    "potential",
    "reweight",
    "run_dynamics",
    "serialize_document",
    "shapley_share",
    "social_optimum",
    "union_is_forest",
    "validate_players",
    "validate_profile",
]
