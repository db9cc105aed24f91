"""Exact computation and verification for bi-periodic Jacobsthal sequences.

Scalar and 2x2-matrix sequence terms by independent methods (definitional
recurrence, scalar closed form, characteristic-root evaluation over a formal
quadratic extension, log-time doubling), a rational generating function with
formal series expansion, and an identity verifier that confirms or refutes
each stated closed form with exact counterexamples.  All arithmetic is
arbitrary-precision rational; there is no floating point anywhere.
"""

from .exact import Mat2, QuadNum, format_rational, parity, parse_rational
from .genfunc import RationalOGF, build_ogf, component_form, series_coeffs
from .matrixseq import (
    DegenerateDiscriminantError,
    char_roots,
    det_closed,
    generator_matrix,
    iter_terms,
    term_binet,
    term_closed,
    term_fast,
    term_recurrence,
)
from .report import IdentityReport, reports_to_csv
from .scalar import (
    BiParams,
    SeqKind,
    classical_jacobsthal,
    classical_jacobsthal_lucas,
    scalar_term,
    scalar_term_fast,
    verify_lucas_relations,
)
from .verifier import (
    ALL_IDENTITIES,
    GridSpec,
    default_grid,
    root_claim_beta_shift_holds,
    run_grid,
    sum_closed_form,
    sum_direct,
    verify_cassini,
    verify_cross_method,
    verify_det,
    verify_doubling,
    verify_root_identities,
    verify_series_match,
    verify_sum_t5,
    verify_weighted_sum_t6,
    weighted_sum_corrected_form,
    weighted_sum_direct,
    weighted_sum_printed_form,
)

__version__ = "0.1.0"
