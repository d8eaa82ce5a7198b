"""balset: exact machinery for balancing sets over F_2^n.

A set C balances F_2^n when every word lies at Hamming distance exactly
n/2 from some element of C (within n/2 +- lam in the relaxed version).
The package computes the uncovered fraction exactly by several
interchangeable algorithms, builds explicit and greedy balancing bases,
runs randomized-ensemble experiments, encodes/decodes through a balanced
error-correcting codec, and realizes the matching reduction that makes
the general decision problem hard.
"""

from .gf2 import (
    CapExceededError,
    LinearCode,
    Word,
    distance,
    enumerate_span,
    load_generator_matrix,
    parse_generator_matrix,
    row_reduce,
    save_generator_matrix,
    span_array,
    weight,
    weight_words,
)
from .balancing import (
    BalanceSpec,
    BinomialBounds,
    CoverageProfile,
    QReport,
    binomial_exact,
    bounds_check,
    coverage_profile,
    is_balancing_set,
    pair_distance_count,
    q_exact,
    sphere_intersection_size,
)
from .constructions import (
    DimensionBounds,
    FixtureCode,
    GreedyResult,
    KnuthSet,
    binary_entropy,
    dimension_bounds,
    figure1_fixture,
    greedy_balancing,
    griesmer_sum,
    knuth_balance,
    knuth_set,
    min_distance,
    repeated_simplex,
    repeated_simplex_tolerance,
    simplex_extended,
    verify_sum_of_squares,
)
from .ensemble import (
    ConcentrationReport,
    EnsembleConfig,
    EnsembleReport,
    estimate_balancing_probability,
    lemma1_identity_check,
    sample_random_subspace,
    trial_rng,
    weight_concentration_check,
    wilson_interval,
)
from .codec import (
    BalancingSearchError,
    BoundReport,
    Codec,
    DecodeResult,
    balanced_subcode_min_distance,
    bounds,
    build_codec,
    decode,
    encode,
    hamming_volume,
    load_codec,
    save_codec,
)
from .reduction import (
    ReductionReport,
    TripartiteHypergraph,
    build_H,
    build_Hprime,
    column_sum_reachable,
    every_coset_has_balanced_word,
    find_matching,
    parse_hypergraph,
    verify_reduction,
)

__version__ = "0.1.0"
