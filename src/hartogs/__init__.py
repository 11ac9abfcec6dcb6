"""Exact Bergman kernel computations on rational Hartogs triangles.

The domain H = {|z1|^(m/n) < |z2| < 1} (coprime m > n >= 1) has a rational
Bergman kernel whose integer numerator this package constructs two
independent ways, restricts to a palindromic diagonal polynomial, localizes
the roots of exactly (inside / on / outside the unit circle, over the
rationals), lifts interior roots to explicit kernel-zero witnesses, and
scans a non-vanishing conjecture across coprime pairs.
"""

from .arith import (
    CoprimePair,
    ceil_div,
    level,
    numerator_coeff,
    tent,
    tent_arg,
    tent_partner,
)
from .domain import in_domain, interior_margin
from .errors import (
    ConvergenceFailure,
    DegenerateInput,
    DenominatorVanishes,
    HartogsError,
    InternalMismatch,
    NoInteriorRoot,
    NotPalindromic,
    OutsideDomain,
    ValidationError,
)
from .kernel import (
    KernelFormula,
    eval_kernel,
    kernel_formula,
    numerator_effective,
    numerator_oracle,
    series_kernel,
    series_tail_estimate,
)
from .poly import BiPoly, UniPoly
from .qpoly import DiagonalPoly, diagonal_poly
from .roots import (
    RootCensus,
    chebyshev_reduce,
    classify_float_roots,
    interior_float_roots,
    interior_root_count,
    numeric_roots,
    poly_gcd,
    root_residuals,
    spectral_certificate,
    squarefree_decomposition,
    squarefree_part,
    sturm_count,
)
from .zeros import (
    ScanRow,
    ZeroWitness,
    coprime_pairs,
    scan,
    witness_candidates,
    zero_witness,
)

__version__ = "0.1.0"
