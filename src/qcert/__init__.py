"""Instance-optimal quantum state certification: simulation and validation tools."""

from .certify import CertifyConfig, Verdict, basic_certify, certify
from .classical import l2_two_sample_test, l23_functional
from .haar_oracle import (
    WeingartenTable,
    exact_transcript_divergence,
    haar_moment,
    ingster_bound,
    verify_moments_basic,
    weingarten_table,
)
from .instances import (
    OffDiagInstance,
    PaninskiInstance,
    build_corner,
    build_offdiag,
    plan_offdiag,
    sample_paninski,
    tune_paninski,
)
from .linalg import (
    DensityMatrix,
    fidelity_mm,
    hermitian_eig,
    trace_distance,
)
from .measurement import Basis, CopySource, outcome_distribution, phi_table
from .rng import RngHandle, block_haar, haar_isometry, haar_unitary
from .spectrum import (
    BucketDecomposition,
    Spectrum,
    bucketize,
    predicted_bounds,
    remove_mass_adaptive,
    remove_mass_lower_nonadaptive,
    remove_mass_upper,
)

__version__ = "0.1.0"
