"""Visible-surface overlap ground truth, box embeddings and retrieval."""

from .boxes import (
    HARD,
    BoxEmbedding,
    SmoothingConfig,
    nbo,
    overlap,
    sigma,
)
from .geometry import (
    CameraIntrinsics,
    CameraView,
    NSOConfig,
    OverlapRecord,
    Pose,
    SurfelCloud,
    backproject,
    compute_nso,
    overlap_count_brute,
    subsample,
)
from .retrieval import BoxIndex, QueryResult, classify_relation, estimate_scale
from .training import (
    EmbeddingTable,
    PairDataset,
    TrainConfig,
    evaluate,
    loss_box,
    predict,
    train,
)

__version__ = "0.1.0"
