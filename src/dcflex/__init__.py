"""dcflex: grid flexibility and cost-of-flexibility estimation for HPC data centers."""

from .model import (
    ActivationPlan,
    BaselineProfile,
    DataCenterSpec,
    EconParams,
    JobTable,
    ScheduleSolution,
    ServiceSpec,
    SolveStats,
    TimeGrid,
    activations_per_window,
    duration_to_steps,
    round_half_away,
)
from .ingest import (
    CloudOption,
    CloudOptionTable,
    IngestError,
    PriceSeries,
    RawJobTable,
    parse_cloud_pricing,
    parse_job_trace,
    parse_price_series,
    select_window,
    write_job_trace,
    write_price_series,
)
from .preprocess import (
    aggregate_daily,
    baseline_profile,
    discretize,
    partition_to_horizon,
    read_job_table,
    utilization_stats,
    write_job_table,
    zero_queue,
)
from .problem import (
    NO_DQ,
    DqParams,
    ModelBuildError,
    ModelInstance,
    available_window,
    build_costmin,
    build_flexmax,
    tightening_bound,
)
from .solve import DEFAULT_BACKEND, SolverBackend, solve, write_model
from .campaign import (
    CampaignResult,
    CellKey,
    CellResult,
    derive_seed,
    horizon_count,
    run_campaign,
    run_costmin_campaign,
    run_flexmax_campaign,
    sample_activations,
    service_grid,
)
from .scaling import (
    CsfSample,
    cost_scaling_factor,
    dedup_same_machine,
    estimate_csf_samples,
    percentile,
    scale_acof,
    scale_acof_dq,
    scale_flex_kw,
    scale_flex_norm,
    write_csf_samples,
)
from .market import (
    format_profitability_text,
    price_percentile_table,
    profitability_report,
)
from .report import heatmap_export, load_grid_csv, write_grid_csv
from .synth import generate_synthetic_trace

__version__ = "0.1.0"
