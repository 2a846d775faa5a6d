"""quadcone: quadratic cones in C^n, their normal forms, and extension verdicts.

Importing the package loads no numpy: the array constants E_HERM and CHOFVAR
are built when first looked up.
"""

from .quadform import (
    ConeError,
    HermitianSignature,
    InsufficientSamples,
    NonHomogeneous,
    NonReal,
    QuadraticCone,
    RealSignature,
    canonical_sign,
    decompose_poly,
    decompose_real_form,
    evaluate,
    evaluate_many,
    hermitian_signature,
    real_form_matrix,
    real_signature,
    sample_points,
)
from .reduction import (
    TakagiFactorization,
    factor_preserver,
    sl2_reduce_sym,
    so11_zero_diag,
    takagi2,
)
from .normalform import (
    DegeneracyReport,
    NormalFormResult,
    NormalFormType,
    apply_change,
    classify2,
    normalize_hermitian,
    render_cone,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in ("E_HERM", "CHOFVAR"):
        from . import normalform, reduction

        return getattr(reduction if name == "E_HERM" else normalform, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
