"""Swarm-based clustering toolkit: subtractive density seeding, a
boundary-restricted adaptive particle swarm engine, five baseline pipelines,
and a reproducible benchmark harness."""

__version__ = "0.1.0"

from .core import (
    Assignment,
    ContractViolation,
    Dataset,
    DegenerateInput,
    Rng,
    derive_seed,
)
from .data import (
    REGISTRY,
    CsvSource,
    DatasetSpec,
    LoadError,
    NormalizationRecord,
    SyntheticSource,
    denormalize,
    load_csv,
    load_dataset,
    make_blobs,
    normalize_minmax,
    registry_spec,
)
from .metrics import (
    UnsupportedEvaluation,
    convergence_stats,
    error_rate,
    evaluation_report,
    sicd,
)
from .pipelines import (
    ClusteringOutcome,
    assign_nearest,
    recompute_centroids,
    run_brapso,
    run_kmeans,
    run_kmeans_pso,
    run_pso,
    run_sc_br_apso,
    run_subtractive_pso,
)
from .subtractive import (
    DensityRatio,
    FixedK,
    SeedingResult,
    SubtractiveConfig,
    density_initial,
    density_revise,
    select_centers,
)
from .swarm import (
    Inertia,
    PsoConfig,
    SwarmStack,
    decode,
    encode,
    exponential_literal,
    exponential_normalized,
    inertia_weight,
    init_swarm,
    linear,
)
