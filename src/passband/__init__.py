"""Pass-rate control and prefix replay for grouped binary-reward rollouts.

The package models the training-signal side of verifier-reward rollout
collection: groups of N binary-reward rollouts, their signal quantities,
bucket routing of skewed groups, bidirectional prefix replay with loss
masking, and a per-bucket feedback controller that steers rerollout pass
rates toward one half, all closed over a synthetic environment.

The imports below are the package's top-level names.
"""

from .advantages import (
    TokenTrajectory,
    ToyPolicy,
    loss_gradient,
    masked_grpo_loss,
    mean_centered_advantages,
    rloo_advantages,
)
from .config import (
    Arm,
    ExperimentConfig,
    LossOptions,
    load_config,
    parse_config,
)
from .controller import (
    BucketControllerState,
    ControllerParams,
    PrefixOutcome,
    PrefixPool,
    PrefixRecord,
    initial_controller_state,
    prefix_pool_memory_bound,
    replay_boundary,
    select_prefix,
    update_controller,
)
from .env import (
    GroupSample,
    PopulationSpec,
    TaskColumns,
    conditioned_pass_probability,
    make_task_population,
    sample_fresh_group,
    sample_rerollout_group,
)
from .errors import ConfigError, ContractError, DomainError, PassbandError
from .groups import (
    BucketKind,
    GroupOrigin,
    bucket_label,
    classify_bucket,
    controlled_buckets,
)
from .harness import (
    RunResult,
    StepMetrics,
    compare_arms,
    compute_step_metrics,
    compute_transition_matrix,
    emit_traces,
    run_experiment,
)
from .signals import (
    SignalReport,
    contrastive_pair_count,
    expected_pair_count,
    group_survival_probability,
    mean_centered_advantage_variance,
    reward_entropy,
    rloo_advantage_energy,
    signal_report,
)

__version__ = "0.1.0"
