"""Object-centric recognition of activities of daily living from egocentric
object/hand-interaction detection records.

Pipeline: per-frame detection records are grouped into labeled one-minute
segments, objects are marked active by overlap with hand-interaction boxes,
segments become row-scaled Bag-of-Objects feature vectors, and from-scratch
classifiers are scored with leave-one-subject-out cross-validation. A seeded
synthetic corpus generator stands in for the private source data.
"""

__version__ = "0.1.0"

from .features import FeatureConfig, FeatureVector, featurize
from .interaction import iou, mark_active
from .models import TrainConfig, TrainedModel, load_model, save_model
from .records import Box2D, FrameObservation, Segment, load_corpus, parse_records
from .synthgen import GenSpec, clean_genspec, distractor_genspec, generate
from .taxonomy import (
    ADL_LABELS,
    CategoryTable,
    default_category_table,
    load_category_table,
    paper_class_counts,
)

__all__ = [
    "ADL_LABELS",
    "Box2D",
    "CategoryTable",
    "FeatureConfig",
    "FeatureVector",
    "FrameObservation",
    "GenSpec",
    "Segment",
    "TrainConfig",
    "TrainedModel",
    "__version__",
    "clean_genspec",
    "default_category_table",
    "distractor_genspec",
    "featurize",
    "generate",
    "iou",
    "load_category_table",
    "load_corpus",
    "load_model",
    "mark_active",
    "paper_class_counts",
    "parse_records",
    "save_model",
]
