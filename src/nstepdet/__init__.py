"""Exact determinant machinery and identity verification for n-step
Fibonacci numbers: arbitrary-precision linear algebra, sequence engines,
banded-matrix constructions, and the generalized Cassini, d'Ocagne, Vajda
and Catalan identity checks."""

__version__ = "0.1.0"

from .exact_linalg import (
    IntMatrix,
    det_bareiss,
    det_laplace,
    transpose,
    reverse_columns,
    select_columns,
    parse_matrix,
    format_matrix,
)
from .nstep_seq import (
    CLASSIC,
    PAPER_POWERS,
    Convention,
    custom,
    term,
    term_fast,
    terms_range,
)
from .construction import (
    build_P,
    build_Q,
    check_prop1,
    check_prop1_all,
    extend_columns,
    minor_by_deletion,
    q_fib_det,
    sign_from_deleted,
    sign_from_kept,
)
from .identities import (
    convention_probe,
    generalized_docagne,
    ratio_invariance,
    verify_cassini,
    verify_catalan,
    verify_docagne,
    verify_vajda,
)
