"""Sparse Kronecker-sum precision estimation for tensor-valued data.

The precision matrix of a K-way tensor variable is modeled as a Kronecker
sum of small per-mode factors and estimated by iterative soft thresholding
restricted to that subspace, so the full p x p matrix is never formed.
"""

from .data import (
    DataTensorSet,
    GramSet,
    ar1_factor,
    center_gram,
    er_factor,
    gram_factors,
    grid_factor,
    matricize,
    read_ktns,
    sample_ksum_gaussian,
    tensorize,
    write_ktns,
)
from .ksum import (
    Dims,
    FactorSet,
    NotPositiveDefiniteError,
    SpectrumSet,
    kron_sum_dense,
    ksum_eigensystem,
    ksum_frobenius,
    ksum_inner,
    ksum_logdet,
    offdiag_l1,
    proj_inverse_spectrum,
    proj_ksum_dense,
)
from .metrics import (
    EdgeSupport,
    ExperimentSpec,
    edge_support,
    effective_sample_size,
    estimation_errors,
    mcc,
    precision_recall,
)
from .solver import (
    SolverConfig,
    SolverReport,
    kkt_residual,
    objective,
    solve,
    subspace_gradient,
)

__version__ = "0.1.0"
