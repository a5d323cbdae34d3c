"""Tools for low-rank sigmoid output layers: feasibility certification of
label assignments, exact and sampled region counting, and spectral (DFT)
weight construction with slack columns."""

from .labelspace import (
    FamilyKind,
    FamilySpec,
    LabelAssignment,
    act,
    alt,
    count_family,
    cover_count,
    enumerate_family,
)
from .linalg import (
    BoundaryError,
    GrStatus,
    GrVerdict,
    Provenance,
    WeightMatrix,
    gr_plus_status,
    is_general_position,
    maximal_minors,
    sign_vector,
)
from .dftlayer import (
    DftSpec,
    augment_slack,
    bias_init,
    build_dft_matrix,
    build_layer,
    logits_direct,
    logits_fft,
)
from .verifier import (
    LpConfig,
    VerifyResult,
    VerifyStatus,
    chebyshev_verify,
    radius_report,
    verify_batch,
)
from .oracle import (
    RegionSet,
    cross_check,
    enumerate_regions_2d,
    enumerate_regions_sampled,
)
from .metrics import (
    StackedRecords,
    metrics_at_k,
    micro_macro_f1,
    ndcg_at_k,
    prec_rec_f1_at_k,
)

__version__ = "0.1.0"
