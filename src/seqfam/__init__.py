"""Sequence-family construction and verification toolkit.

Builds M-ary Sidelnikov sequences over GF(q) and GF(q**d), derives the
period-(q-1) column-sequence family from the array structure of the long
sequence, verifies its correlation bound and cyclic inequivalence
exhaustively, and counts the family size exactly and asymptotically.
"""

from .columns import (
    ColumnPolynomial,
    CyclotomicCoset,
    column_from_long_sequence,
    column_polynomial,
    column_sequence,
    coset,
)
from .correlation import (
    CorrelationReport,
    correlation_via_character_sum,
    cross_correlation,
    cyclic_inequivalence,
    empirical_character_sum,
    max_correlation,
    weil_bound,
)
from .counting import (
    CountReport,
    a_f_set,
    asymptotic_size,
    constant_term_counts,
    count_report,
    cyclotomic_factors,
    lambda_size,
    yucas_count,
)
from .errors import InternalCheckError, ParameterError, SeqfamError, TableLimitError
from .family import (
    RestrictionReport,
    SequenceFamily,
    build_family,
    check_restrictions,
    coset_representatives,
    distinct_shift_check,
)
from .fields import ExtensionContext, FieldContext, build_extension, build_field
from .sequences import (
    Character,
    MSequence,
    read_sequences,
    sidelnikov_sequence,
    sidelnikov_sequence_ext,
    write_sequences,
)
from .verify import run_verification

__version__ = "0.1.0"

__all__ = [
    "Character",
    "ColumnPolynomial",
    "CorrelationReport",
    "CountReport",
    "CyclotomicCoset",
    "ExtensionContext",
    "FieldContext",
    "InternalCheckError",
    "MSequence",
    "ParameterError",
    "RestrictionReport",
    "SeqfamError",
    "SequenceFamily",
    "TableLimitError",
    "a_f_set",
    "asymptotic_size",
    "build_extension",
    "build_family",
    "build_field",
    "check_restrictions",
    "column_from_long_sequence",
    "column_polynomial",
    "column_sequence",
    "constant_term_counts",
    "correlation_via_character_sum",
    "coset",
    "coset_representatives",
    "count_report",
    "cross_correlation",
    "cyclic_inequivalence",
    "cyclotomic_factors",
    "distinct_shift_check",
    "empirical_character_sum",
    "lambda_size",
    "max_correlation",
    "read_sequences",
    "run_verification",
    "sidelnikov_sequence",
    "sidelnikov_sequence_ext",
    "weil_bound",
    "write_sequences",
    "yucas_count",
    "__version__",
]
