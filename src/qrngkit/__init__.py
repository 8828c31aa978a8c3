"""Toolkit for an entangled-photon-pair random number generator.

The package splits into five layers: exact output laws (`exact`), a seeded
Monte Carlo source with its imperfection models (`simulate`), bitstring
post-processing (`extractors`), statistical tests (`stats`), and file-based
plumbing with a CLI (`fileio`, `cli`). `bitstring`, `config` and `streams`
hold the shared value types.
"""

from .bitstring import BitString, hamming_distance
from .config import DETECTOR_NAMES, DriftSpec, QrngConfig
from .errors import InputFormatError, ResourceBudgetError, UsageError
from .exact import (
    DENSE_LAW_CAP,
    ENUMERATION_CAP,
    BiasParams,
    ExactDistribution,
    joint_distribution,
    l1_distance,
    marginal_bias,
    pair_prob,
    pair_prob_table,
    taylor_gap,
    tv_distance,
    xor_bias,
    xor_distribution,
    xor_distribution_closed_form,
    xor_distribution_transfer,
    xor_expectation_classical,
    xor_expectation_quantum,
)
from .fileio import (
    atomic_write_bytes,
    read_bits,
    read_stream_ndjson,
    write_bits,
    write_deviation_csv,
    write_distribution_csv,
    write_json,
    write_reports_csv,
    write_stream_ndjson,
    write_sweep_csv,
)
from .extractors import (
    ExtractionOutput,
    PairVonNeumannExtractor,
    PeresExtractor,
    VonNeumannExtractor,
    XorOffsetExtractor,
    pair_von_neumann,
    peres,
    von_neumann,
    xor_offset,
)
from .simulate import (
    SimulationResult,
    apply_double_counting,
    dead_time_filter,
    demon_filter,
    demon_modulus,
    run_pipeline,
    sample_pairs,
    sample_pairs_physical,
)
from .stats import (
    TestReport,
    ThetaEstimate,
    borel_normality,
    chi2_uniformity,
    correlation_estimate,
    empirical_distribution,
    estimate_theta,
    exor_rate,
)
from .streams import PairRecord, PairStream

__version__ = "0.1.0"

__all__ = [
    "BitString",
    "hamming_distance",
    "DETECTOR_NAMES",
    "DriftSpec",
    "QrngConfig",
    "UsageError",
    "ResourceBudgetError",
    "InputFormatError",
    "DENSE_LAW_CAP",
    "ENUMERATION_CAP",
    "BiasParams",
    "ExactDistribution",
    "pair_prob",
    "pair_prob_table",
    "joint_distribution",
    "marginal_bias",
    "xor_bias",
    "xor_distribution",
    "xor_distribution_closed_form",
    "xor_distribution_transfer",
    "tv_distance",
    "l1_distance",
    "xor_expectation_quantum",
    "xor_expectation_classical",
    "taylor_gap",
    "ExtractionOutput",
    "xor_offset",
    "von_neumann",
    "peres",
    "pair_von_neumann",
    "XorOffsetExtractor",
    "VonNeumannExtractor",
    "PeresExtractor",
    "PairVonNeumannExtractor",
    "SimulationResult",
    "sample_pairs",
    "sample_pairs_physical",
    "apply_double_counting",
    "dead_time_filter",
    "demon_modulus",
    "demon_filter",
    "run_pipeline",
    "TestReport",
    "ThetaEstimate",
    "chi2_uniformity",
    "borel_normality",
    "correlation_estimate",
    "exor_rate",
    "estimate_theta",
    "empirical_distribution",
    "PairRecord",
    "PairStream",
    "atomic_write_bytes",
    "write_bits",
    "read_bits",
    "write_stream_ndjson",
    "read_stream_ndjson",
    "write_json",
    "write_distribution_csv",
    "write_deviation_csv",
    "write_reports_csv",
    "write_sweep_csv",
    "__version__",
]
