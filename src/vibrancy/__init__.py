"""App-usage signature analysis for urban grids.

Builds per-cell usage signatures from mobile traffic, normalizes them by
relative risk, clusters them with multidimensional k-means (silhouette-
selected k, size-ordered labels), derives third-place count and diversity
covariates from POIs, and fits an L2-regularized multinomial logistic
regression predicting cluster membership.
"""

__version__ = "0.1.0"

from .grid import (
    CellId,
    CityRegion,
    GridSpec,
    RegionCheck,
    cell_polygon,
    check_region_consistency,
    load_region,
    point_to_cell,
    save_region,
)
from .ingest import (
    ParseReport,
    PoiRecord,
    Taxonomy,
    TrafficTable,
    load_taxonomy,
    parse_pois,
    read_traffic,
)
from .signatures import (
    SignatureTensor,
    bin_of,
    build_signatures,
    concat_tensors,
    day_type_of,
    drop_silent_cells,
    minmax_scale,
    read_tensor,
    relative_risk,
    write_tensor,
)
from .clustering import (
    ClusterModel,
    KSelectionReport,
    adjusted_rand_index,
    assign,
    distance,
    kmeans,
    read_model,
    relabel_by_size,
    select_k,
    silhouette,
    write_model,
)
from .features import (
    FEATURE_COLUMNS,
    THIRD_PLACE_CATEGORIES,
    FeatureTable,
    build_features,
    filter_rare_labels,
    load_third_place_taxonomy,
    shannon_diversity,
    standardize,
)
from .logit import (
    MetricsReport,
    MultinomialLogit,
    coefficient_table,
    evaluate,
    fit,
    gradient_check,
    predict,
    predict_proba,
)
from .config import CityConfig, PipelineConfig, parse_config
from .pipeline import run_from_manifest, run_pipeline

_SYNTH_NAMES = ("SynthSpec", "SynthTruth", "generate", "write_city")


def __getattr__(name):
    # synth is imported on first use, so that a run does not compile it
    if name in _SYNTH_NAMES:
        from . import synth

        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
