"""pairsim: annotation-pool bias simulation and population-aligned replication.

Simulates annotation pools whose annotator composition is biased,
rebalances them toward a target population by post-stratified
deterministic replication, and measures the downstream effect on
classifier calibration (mean absolute calibration bias) and accuracy
(F1) with a fast stand-in text classifier.
"""

__version__ = "0.1.0"

from .adjust import (
    PopulationBenchmark,
    WeightTable,
    apply_pair,
    pair_weights,
    pool_shares,
)
from .metrics import (
    AggregateReport,
    acb,
    aggregate,
    f1,
    positive_proportion,
)
from .simulation import (
    Annotation,
    BiasSpec,
    Dataset,
    DatasetMeta,
    GoldEntry,
    GoldTable,
    PoolComposition,
    Rare,
    Suite,
    TextColumn,
    Uniform,
    build_suite,
    derive_gold,
    filter_difficult,
    sample_pool,
    shift_probability,
    synth_gold,
    synth_text,
)
from .trainer import (
    Features,
    Model,
    TrainConfig,
    featurize,
    predict,
    proportion_oracle,
    train,
)
from .experiments import (
    ExperimentConfig,
    ResultRow,
    SweepResult,
    SyntheticGold,
    ingest_external,
    run_cell,
    split_items,
    sweep,
)
