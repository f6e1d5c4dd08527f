"""Exact density-matrix simulation and benchmarking of spin-bath reservoirs."""

from .errors import ConfigError, DivergenceError, NumericalError
from .linalg import (
    MAX_QUBITS,
    DensityMatrix,
    HermitianEigen,
    hermitian_eig,
    partial_trace,
    pseudoinverse,
    trace_norm,
)
from .hamiltonian import (
    CouplingSet,
    HamiltonianRealization,
    ReservoirParams,
    build_hamiltonian,
    export_couplings,
    import_couplings,
    sample_couplings,
)
from .reservoir import FeatureMatrix, ReservoirConfig, run_trajectory
from .readout import squared_correlation
from .tasks import (
    SplitSpec,
    gen_uniform_inputs,
    narma_series,
    scale_inputs,
    stm_targets,
)
from .esp import EspRecord, backflow_count, dual_trajectory, window_stats
from .harness import (
    ExperimentConfig,
    EspRunResult,
    RegimeSpec,
    SweepResult,
    aggregate,
    load_config,
    run_esp,
    run_narma,
    run_stm,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DivergenceError",
    "NumericalError",
    "MAX_QUBITS",
    "DensityMatrix",
    "HermitianEigen",
    "hermitian_eig",
    "partial_trace",
    "pseudoinverse",
    "trace_norm",
    "CouplingSet",
    "HamiltonianRealization",
    "ReservoirParams",
    "build_hamiltonian",
    "export_couplings",
    "import_couplings",
    "sample_couplings",
    "FeatureMatrix",
    "ReservoirConfig",
    "run_trajectory",
    "squared_correlation",
    "SplitSpec",
    "gen_uniform_inputs",
    "narma_series",
    "scale_inputs",
    "stm_targets",
    "EspRecord",
    "backflow_count",
    "dual_trajectory",
    "window_stats",
    "ExperimentConfig",
    "EspRunResult",
    "RegimeSpec",
    "SweepResult",
    "aggregate",
    "load_config",
    "run_esp",
    "run_narma",
    "run_stm",
    "__version__",
]
