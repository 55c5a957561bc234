"""Two-timescale hybrid federated learning: simulator, certificates, adaptive control."""

from .bounds import (
    Prop1Params,
    Thm2Constants,
    diversity_fit,
    dispersion_sample,
    lambda_plus,
    prop1_bound,
    sigma_plus,
    thm1_rhs,
    thm2_constants,
)
from .consensus import (
    OutagePolicy,
    consensus_error,
    divergence_estimate,
    divergence_exact,
    lemma1_bound,
    run_consensus,
)
from .control import (
    AdaptiveConfig,
    ControlState,
    estimate_sigma,
    feasibility_check,
    fit_predictor,
    gamma_rounds,
    phi_max,
    run_adaptive,
    select_alpha,
    solve_P,
)
from .costs import CostParams
from .data import LabeledDataset, PartitionPlan, gen_synthetic, load_csv, partition
from .experiment import (
    ConfigError,
    ExperimentConfig,
    HorizonMismatchError,
    accumulate_cost,
    build_task,
    compare_runs,
    load_config,
    run_experiment,
    run_single,
)
from .losses import (
    BatchSampler,
    DeviceData,
    DevicePartition,
    LossModel,
    global_loss,
    grad_full,
    grad_sgd,
    smoothness_constants,
    solve_optimum,
)
from .schedules import GammaPlan, StepSchedule, TrainingSchedule
from .topology import (
    ChannelParams,
    ClusterSpec,
    build_graph,
    build_network,
    consensus_matrix,
    expected_snr,
    outage_prob,
    spectral_radius,
)
from .trainer import D2DEpochs, MetricsTrace, TrainTask, make_task, run_baseline, run_tthf

__version__ = "0.1.0"
