"""quadcone: quadratic cones in C^n, their normal forms, and extension verdicts.

Importing the package loads no numpy.
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
    evaluate_many,
    hermitian_signature,
    real_signature,
    sample_points,
)
from .reduction import (
    TakagiFactorization,
    sl2_reduce_sym,
    so11_zero_diag,
    takagi2,
)
from .normalform import (
    DegeneracyReport,
    NormalFormResult,
    NormalFormType,
    classify2,
    normalize_hermitian,
    render_cone,
)

__version__ = "0.1.0"
