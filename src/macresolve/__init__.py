"""MAC resolvability codes from black-box source resolvability codes,
two-universal hashing, and block-Markov randomness recycling."""

from .probcore import (
    Alphabet,
    BudgetError,
    Dist,
    InfeasibleTargetError,
    JointDist,
    MacChannel,
    conditional_entropy,
    entropy,
    make_rng,
    min_entropy_conditional,
    mutual_information,
    target_output_dist,
    transmit,
    variational_distance,
)
from .polar import ResolvabilityCode, compute_profile, polar_transform
from .hashing import ToeplitzHash, hashed_joint_dist_exact, sample_hash
from .ratesplit import SplitPoint, solve_eps, split_dists, split_rates
from .encoder import (
    BatchTranscript,
    LengthPlan,
    MacCode,
    achieved_rates,
    build_mac_code,
    make_plan,
    run_trials,
)
from .evaluator import (
    MetricRow,
    RegionSpec,
    assemble_mc_metrics,
    exact_report,
    lhl_bound_check,
    mc_chunk_features,
    region_2user,
    region_multi,
    transcript_features,
    tv_exhaustive,
)

__version__ = "0.1.0"
