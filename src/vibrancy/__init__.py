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
    ServiceTaxonomy,
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
    ThirdPlaceTaxonomy,
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
from .synth import (
    SynthSpec,
    SynthTruth,
    adjusted_rand_index,
    generate,
    write_city,
)
from .config import CityConfig, PipelineConfig, parse_config
from .pipeline import run_from_manifest, run_pipeline
