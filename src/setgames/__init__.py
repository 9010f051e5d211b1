"""Exact solver for two-player security games with set-function utilities.

Benefits and costs may depend on the exact combination of targets rather
than summing over them. The library represents such games through the
interaction coefficients of their utility functions, solves for equilibrium
mixed strategies by constraint generation over compact coordinates, and
applies the machinery to network security games with a separable
approximation step.
"""

from .setfunctions import (
    GroundSet,
    SetFunction,
    moebius,
    zeta,
)
from .games import (
    GameSpec,
    MixedStrategy,
    expand_normal_form,
    verify_ne_equivalence,
)
from .compact import (
    CompactGame,
    build_compact_game,
    caratheodory_decompose,
    compact_value,
    coordinates,
    marginal_attacker,
    marginal_defender,
    vertex_to_strategy,
)
from .lp import GameSolution, solve_matrix_game
from .oracles import (
    PseudoBooleanProblem,
    SupportSet,
    attacker_oracle,
    defender_oracle,
    partition_support,
    solve_separable,
    to_pseudo_boolean,
)
from .equilibrium import (
    EquilibriumReport,
    SolverConfig,
    best_response_gap,
    solve_bruteforce,
    solve_compact,
)
from .network import (
    ApproxResult,
    FailureOperator,
    Network,
    ValueFunction,
    induce_benefit,
    network_from_text,
    separable_approximation,
    solve_network_game,
)
from . import errors

__all__ = [
    "ApproxResult",
    "CompactGame",
    "EquilibriumReport",
    "FailureOperator",
    "GameSolution",
    "GameSpec",
    "GroundSet",
    "MixedStrategy",
    "Network",
    "PseudoBooleanProblem",
    "SetFunction",
    "SolverConfig",
    "SupportSet",
    "ValueFunction",
    "attacker_oracle",
    "best_response_gap",
    "build_compact_game",
    "caratheodory_decompose",
    "compact_value",
    "coordinates",
    "defender_oracle",
    "errors",
    "expand_normal_form",
    "induce_benefit",
    "marginal_attacker",
    "marginal_defender",
    "moebius",
    "network_from_text",
    "partition_support",
    "separable_approximation",
    "solve_bruteforce",
    "solve_compact",
    "solve_matrix_game",
    "solve_network_game",
    "solve_separable",
    "to_pseudo_boolean",
    "verify_ne_equivalence",
    "vertex_to_strategy",
    "zeta",
]
