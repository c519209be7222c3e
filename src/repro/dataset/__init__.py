"""Configuration-space and performance-dataset substrate.

This package reconstructs the data side of the paper's experiments: the
Polybench/C ``syr2k`` loop-nest configuration space (2 x 2 x 2 x 11^3 =
10,648 configurations), an analytical performance model standing in for the
paper's empirical measurements (see DESIGN.md, substitutions), dataset
generation and CSV I/O, and the sampling utilities the experiment grid
needs (train/test splits, disjoint ICL example sets, minimal-edit-distance
curated neighbourhoods).
"""

from repro.dataset.parameters import (
    BooleanParameter,
    CategoricalParameter,
    OrdinalParameter,
    Parameter,
)
from repro.dataset.space import ConfigSpace, Configuration
from repro.dataset.syr2k import (
    SIZE_DIMENSIONS,
    SIZE_NAMES,
    TILE_SIZES,
    Syr2kTask,
    syr2k_space,
)
from repro.dataset.perfmodel import PerfModelParams, Syr2kPerformanceModel
from repro.dataset.gemm import GEMM_DIMENSIONS, GemmTask, gemm_space
from repro.dataset.generate import PerformanceDataset, generate_dataset
from repro.dataset.splits import (
    curated_neighborhood,
    disjoint_example_sets,
    train_test_split,
)
from repro.dataset.io import load_dataset_csv, save_dataset_csv

__all__ = [
    "Parameter",
    "BooleanParameter",
    "CategoricalParameter",
    "OrdinalParameter",
    "ConfigSpace",
    "Configuration",
    "SIZE_NAMES",
    "SIZE_DIMENSIONS",
    "TILE_SIZES",
    "Syr2kTask",
    "syr2k_space",
    "PerfModelParams",
    "Syr2kPerformanceModel",
    "GEMM_DIMENSIONS",
    "GemmTask",
    "gemm_space",
    "PerformanceDataset",
    "generate_dataset",
    "train_test_split",
    "disjoint_example_sets",
    "curated_neighborhood",
    "load_dataset_csv",
    "save_dataset_csv",
]
