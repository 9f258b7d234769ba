"""Influential-features PCA: KS feature screening with empirical-null
correction, Higher-Criticism thresholding, and post-selection spectral
clustering, plus baselines and a synthetic-model generator."""

from . import acm, cluster, hc, matrix, pipeline, screen  # noqa: F401
from .acm import A0, AcmConfig, DistributionSpec, NoiseModel, generate
from .cluster import hamming_error, hierarchical_complete, kmeans
from .hc import hc_threshold
from .matrix import entrywise_truncate, standardize_columns, truncated_left_svd
from .pipeline import Instance, PipelineOptions, RunReport, run_pipeline
from .screen import (build_null_table, ks_of_standardized, ks_scores,
                     load_null_table, normalize_scores, pvalues,
                     save_null_table, select_features)

__all__ = [
    "A0", "AcmConfig", "DistributionSpec", "Instance", "NoiseModel",
    "PipelineOptions", "RunReport", "build_null_table", "entrywise_truncate",
    "generate", "hamming_error", "hc_threshold", "hierarchical_complete", "kmeans",
    "ks_of_standardized", "ks_scores", "load_null_table",
    "normalize_scores", "pvalues", "run_pipeline", "save_null_table",
    "select_features", "standardize_columns", "truncated_left_svd",
]

__version__ = "0.1.0"
