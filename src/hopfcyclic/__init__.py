"""Exact-rational Hopf algebras of the general pseudogroup and their
bounded-weight Hopf cyclic cohomology.

Public surface: the H_n presentation (hopf), jet calculus (jets), the
jet-coordinate Hopf algebra F(N) with the matched pair and bicrossed product
(faa), the standard cocyclic module of H_1 (cyclic), the weight-graded
bicomplex engine (bicomplex), Chern cocycles (chern), exact sparse linear
algebra (linalg), and the CLI (cli).
"""

from .bicomplex import (
    Engine,
    engine,
    engine_invariants,
    goncarova_check,
    hochschild_dims,
    total_cohomology,
)
from .chern import (
    build_C,
    conjugacy_classes,
    partitions,
    sign_invariance_report,
    theta_basis,
    theta_span_report,
    verify_relative_classes,
)
from .cyclic import (
    MixedComplex,
    StandardModule,
    b_B_matrices,
    check_cocyclic_identities,
    check_mixed_complex,
    gv_cocycle_report,
    standard_h1_module,
)
from .faa import (
    FContext,
    bicrossed_crosscheck,
    check_matched_pair,
    context,
    moda_check,
    two_route_coproduct_check,
)
from .hopf import (
    HopfAlgebra,
    algebra,
    bianchi_check,
    confluence_smoke_test,
    verify_hopf_axioms,
)
from .jets import (
    AffineMap,
    Jet,
    affine_apply,
    compose,
    infinitesimal_action,
    invert,
    kac_factorize,
    right_action,
)
from .linalg import (
    Quotient,
    Rational,
    SparseMatrix,
    membership,
    rank,
    rank_and_kernel,
)
from .symbols import LinComb, lc_sum, tensor, tensor_many, wedge_normalize

__version__ = "0.1.0"
