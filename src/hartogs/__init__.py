"""Exact Bergman kernel computations on rational Hartogs triangles.

The domain H = {|z1|^(m/n) < |z2| < 1} (coprime m > n >= 1) has a rational
Bergman kernel whose integer numerator this package constructs two
independent ways, restricts to a palindromic diagonal polynomial, localizes
the roots of exactly (inside / on / outside the unit circle, over the
rationals), lifts interior roots to explicit kernel-zero witnesses, and
scans a non-vanishing conjecture across coprime pairs.
"""

import os

# numpy's BLAS on one thread unless the user set a count, before numpy
# loads: the float census is many small products, which threads only
# oversubscribe, and ``scan --workers`` already runs a process per core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

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
from .floatroots import (
    classify_float_roots,
    interior_float_roots,
    numeric_roots,
    root_residuals,
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
    census,
    chebyshev_reduce,
    interior_root_count,
    poly_gcd,
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
