"""Sample-based utility learning and approximate equilibria in auctions."""

from .auction import (
    ALLPAY_NONE,
    ALLPAY_RANDOM,
    FPA_NONE,
    FPA_RANDOM,
    AuctionRule,
    CandidateBid,
    Format,
    Tie,
    best_response,
    ex_post_utility,
    push_forward,
)
from .da import (
    DAOutcome,
    DAPureStrategy,
    PipelineReport,
    da_welfare,
    empirical_pipeline,
    ex_ante_utility_da,
    lambda_map,
    simulate_da,
)
from .dist import (
    DiscreteDistribution,
    ProductDistribution,
    SampleMatrix,
    empirical_marginals,
    make_discrete,
    product_of,
    sample_matrix,
    truncate_at,
    uniform_on,
)
from .equilibrium import BNECertificate, solve_bne, verify_bne
from .estimate import (
    ErrorReport,
    emp_estimate,
    label_vector_count,
    shade_family,
    sup_error,
    sup_error_sweep,
)
from .lowerbound import distinguisher_trials
from .pandora import (
    IndexPolicy,
    SearchInstance,
    opt_welfare,
    pandora_from_samples,
    policy_payoff_exact,
    weitzman_index,
    weitzman_indices,
)
from .strategy import MonotoneStrategy, StrategyProfile, shade
