"""Benchmark/experiment support: adapters, protocol runners, error metrics."""

from .harness import (
    ALGORITHM_KEYS,
    ALL_KEYS,
    StaticRerunAdapter,
    SEQUENTIAL_KEYS,
    BatchMeasurement,
    DynamicKCoreAdapter,
    ExperimentResult,
    make_adapter,
    run_protocol,
)
from .metrics import ErrorStats, error_percentiles, error_stats

__all__ = [
    "ALGORITHM_KEYS",
    "ALL_KEYS",
    "StaticRerunAdapter",
    "SEQUENTIAL_KEYS",
    "BatchMeasurement",
    "DynamicKCoreAdapter",
    "ExperimentResult",
    "make_adapter",
    "run_protocol",
    "ErrorStats",
    "error_stats",
    "error_percentiles",
]
