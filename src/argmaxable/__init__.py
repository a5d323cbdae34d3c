"""Tools for low-rank sigmoid output layers: feasibility certification of
label assignments, exact and sampled region counting, and spectral (DFT)
weight construction with slack columns.

Importing the package loads none of its modules: each public name below
is imported from its module on first access (PEP 562), so a command-line
run loads only what its subcommand calls.
"""

from importlib import import_module

__version__ = "0.1.0"

# The defaults the command line shows in --help.  They live here, where
# the parser reads them without loading a module; labelspace, linalg,
# oracle and verifier import them and export them under these names.
DEFAULT_ENUMERATION_BUDGET = 10**6
DEFAULT_TAU_DET = 1e-10
DEFAULT_MINOR_BUDGET = 10**6
DEFAULT_SAMPLE_BUDGET = 10**7
DEFAULT_PERCENTILES = (1.0, 5.0, 25.0, 50.0, 100.0)
DEFAULT_BOX_BOUND = 1e4
DEFAULT_EPS_FLOOR = 1e-8

_EXPORTS = {
    "labelspace": (
        "FamilyKind",
        "FamilySpec",
        "LabelAssignment",
        "act",
        "alt",
        "count_family",
        "cover_count",
        "enumerate_family",
    ),
    "linalg": (
        "BoundaryError",
        "GrStatus",
        "GrVerdict",
        "Provenance",
        "WeightMatrix",
        "gr_plus_status",
        "is_general_position",
        "sign_vector",
    ),
    "dftlayer": (
        "DftSpec",
        "augment_slack",
        "bias_init",
        "build_dft_matrix",
        "build_layer",
        "logits_direct",
        "logits_fft",
    ),
    "verifier": (
        "LpConfig",
        "VerifyResult",
        "VerifyStatus",
        "chebyshev_verify",
        "radius_report",
        "verify_batch",
    ),
    "oracle": ("RegionSet", "enumerate_regions_sampled"),
    "metrics": (
        "StackedRecords",
        "metrics_at_k",
        "micro_macro_f1",
        "ndcg_at_k",
        "prec_rec_f1_at_k",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
