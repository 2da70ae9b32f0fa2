"""Bad input to the library functions ends in an exception that names the fault."""

import dataclasses
import re
from types import SimpleNamespace

import numpy as np
import pytest

from seqfam import polys
from seqfam.columns import column_from_long_sequence, column_polynomial
from seqfam.correlation import cross_correlation, cyclic_inequivalence, empirical_character_sum, max_correlation
from seqfam.counting import a_f_set, lambda_size_with_ctx
from seqfam.errors import ParameterError
from seqfam.family import coset_representatives, distinct_shift_check
from seqfam.intmath import factorize
from seqfam.sequences import MSequence, sidelnikov_sequence_ext

_SYMBOLS = np.array([0, 1, 1, 0, 1])

# (call on a namespace of fixtures, exception type, exact message); GF(256) has 17 columns over GF(16).
CASES = {
    "cross-correlation-alphabet": (
        lambda f: cross_correlation(MSequence(_SYMBOLS, 2, 5), MSequence(_SYMBOLS, 4, 5), 0),
        ParameterError, "alphabet mismatch",
    ),
    "max-correlation-empty": (
        lambda f: max_correlation(dataclasses.replace(f.fam16_m5, sequences=())),
        ParameterError, "family is empty",
    ),
    "character-sum-alphabet": (
        lambda f: empirical_character_sum(f.gf16, 4, []), ParameterError, "M must divide q-1",
    ),
    "coset-representatives-degree": (
        lambda f: coset_representatives(16, 1), ParameterError, "d must be >= 2",
    ),
    "distinct-shift-column": (
        lambda f: distinct_shift_check(f.gf256, 1, 17, 0),
        ParameterError, "column indices must be nonzero and below the column count",
    ),
    "distinct-shift-tau": (
        lambda f: distinct_shift_check(f.gf256, 1, 2, 15), ParameterError, "shift must lie in [0, q-2]",
    ),
    "column-from-long-sequence-index": (
        lambda f: column_from_long_sequence(f.gf256, 17, 5, sidelnikov_sequence_ext(f.gf256, 5)),
        ParameterError, "column index 17 out of range [0, 17)",
    ),
    "column-polynomial-index": (
        lambda f: column_polynomial(f.gf256, -1), ParameterError, "column index must be nonnegative",
    ),
    "a-f-set-degree": (lambda f: a_f_set(16, 0), ParameterError, "f must be >= 1"),
    "lambda-size-degree": (lambda f: lambda_size_with_ctx(f.gf16, 1), ParameterError, "d must be >= 2"),
    "factorize-zero": (lambda f: factorize(0), ValueError, "factorize expects a positive integer"),
    "polynomial-division-by-zero": (
        lambda f: polys.divmod_(f.gf16, (1, 1), (0,)), ZeroDivisionError, "polynomial division by zero",
    ),
    "order-of-zero": (lambda f: f.gf16.order(0), ZeroDivisionError, "order of 0"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_bad_input_is_refused_with_a_message(case, gf16, gf256, fam16_m5):
    call, error, message = CASES[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(SimpleNamespace(gf16=gf16, gf256=gf256, fam16_m5=fam16_m5))


def test_no_sequences_are_cyclically_inequivalent():
    assert cyclic_inequivalence([]) == (True, None)
