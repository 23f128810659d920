"""Joint sparsity pattern recovery over distributed networks.

Greedy single- and multi-vector support recovery (OMP, simultaneous OMP),
collaborative decentralized variants with per-round fusion, sum-channel
aggregation with its recovery-bound calculators, and a deterministic
Monte Carlo experiment harness.

Importing jspr pins BLAS and OpenMP to one thread per process unless the
caller has set OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS.
Every LAPACK/BLAS call here is tiny, so a second BLAS thread only spins
and competes with sweep pool workers. The pin must run before numpy is
first imported, so it comes before every submodule import.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .algorithms import table1_expected
from .config import ExperimentConfig, load_config, parse_config
from .decentralized import (
    FusionRound,
    RecoveryResult,
    dcomp1,
    dcomp2,
    domp_majority,
    index_fusion_full,
    index_fusion_neighborhood,
)
from .ensembles import (
    JointSparseEnsemble,
    MeasurementEnsemble,
    ObservationSet,
    gen_measurements,
    gen_orthoprojector,
    gen_signals,
    gen_support,
    mac_aggregate,
    measure,
)
from .errors import (ConfigError, EnumerationTooLargeError, SingularProjectionError,
                     TrialError)
from .greedy import correlate, ls_residual, omp, somp
from .harness import exhaustive_oracle, run_sweep
from .macbounds import (
    block_rip_measurement_bound,
    fano_pe_lower,
    gamma_c_min,
    gauss_necessary_bound,
    mac_omp,
    sbar_min,
    xi_average,
)
from .metrics import (
    AggregateStats,
    TrialRecord,
    aggregate,
    exact_recovery,
    support_fraction,
)
from .network import MessageLedger, Topology, build_topology, complete_topology

__version__ = "0.1.0"

__all__ = [
    "AggregateStats",
    "ConfigError",
    "EnumerationTooLargeError",
    "ExperimentConfig",
    "FusionRound",
    "JointSparseEnsemble",
    "MeasurementEnsemble",
    "MessageLedger",
    "ObservationSet",
    "RecoveryResult",
    "SingularProjectionError",
    "Topology",
    "TrialError",
    "TrialRecord",
    "aggregate",
    "block_rip_measurement_bound",
    "build_topology",
    "complete_topology",
    "correlate",
    "dcomp1",
    "dcomp2",
    "domp_majority",
    "exact_recovery",
    "exhaustive_oracle",
    "fano_pe_lower",
    "gamma_c_min",
    "gauss_necessary_bound",
    "gen_measurements",
    "gen_orthoprojector",
    "gen_signals",
    "gen_support",
    "index_fusion_full",
    "index_fusion_neighborhood",
    "load_config",
    "ls_residual",
    "mac_aggregate",
    "mac_omp",
    "measure",
    "omp",
    "parse_config",
    "run_sweep",
    "sbar_min",
    "somp",
    "support_fraction",
    "table1_expected",
    "xi_average",
]
