"""Workbench for finite two-player zero-sum stochastic games with perfect
information: exact game model, payoff catalog, strategy constructions, and
the theorem-checking harness."""

from .arena import (
    P1, P2, Arena, ArenaError, FinitePlay, LassoPlay,
    parse_arena, print_arena, random_arena, sample_play,
)
from .chain import (
    InducedChain, RecurrentClassSummary,
    absorption, bottom_sccs, discounted_values, induce_chain,
)
from .payoff import (
    ColourToken, Lasso, PayoffError, PayoffSpec, ShufflePattern,
    check_shift_invariance, check_submixing, class_value, evaluate_lasso,
    parse_payoff_spec, shuffle,
)
from .solve import (
    ActionClassification, ValueVector,
    best_response_min, brute_force_value, classify_actions, expected_payoff,
    martingale_check, product_values, stopped_value_mc, weakness_set,
)
from .strategy import (
    FiniteMemoryStrategy, PartitionAtState, PureStationaryStrategy,
    WeaknessSet, project, reset_strategy, trigger_strategy,
)
from .verify import (
    VerificationReport, doob_suite, reproduce_counterexample,
    search_shift_invariance_violation, search_submixing_violation,
    verify_halfpos, verify_subgame_perfect,
)

__all__ = [name for name in dir() if not name.startswith("_")]
