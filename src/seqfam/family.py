"""Construction of the period-(q-1) sequence family from column sequences.

The family collects the constant multiples c*v_l for 1 <= c <= M-1 with l
running over the nonzero coset representatives mod (q**d-1)/(q-1). Two
divisibility/size restrictions on d gate the correlation (and
inequivalence) guarantees; the relaxed-d2 policy implements the known
d=2 weakening for odd q, dropping the self-paired column (q+1)/2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .columns import column_polynomial, column_symbols, coset, coset_minima, shifted_column_polynomial
from .errors import ParameterError
from .fields import ExtensionContext
from .sequences import MSequence, _check_alphabet

POLICIES = ("strict", "relaxed-d2")


def coset_representatives(q: int, d: int) -> list[int]:
    """Smallest member of every q-cyclotomic coset mod (q**d-1)/(q-1), sorted."""
    if d < 2:
        raise ParameterError("d must be >= 2")
    return np.unique(coset_minima((q**d - 1) // (q - 1), q)).tolist()


@dataclass(frozen=True)
class RestrictionReport:
    """Outcome of the two conditions gating the family guarantees."""

    q: int
    d: int
    gcd_value: int
    gcd_ok: bool
    bound_rhs: float
    bound_ok: bool
    relaxation_available: bool
    dropped_column: int | None

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "d": self.d,
            "gcd_d_qminus1": self.gcd_value,
            "gcd_ok": self.gcd_ok,
            "bound_rhs": self.bound_rhs,
            "bound_ok": self.bound_ok,
            "relaxation_available": self.relaxation_available,
            "dropped_column": self.dropped_column,
        }


def check_restrictions(q: int, d: int) -> RestrictionReport:
    """Check gcd(d, q-1) = 1 and d < (sqrt(q) - 2/sqrt(q) + 1)/2 separately."""
    g = math.gcd(d, q - 1)
    rhs = (math.sqrt(q) - 2.0 / math.sqrt(q) + 1.0) / 2.0
    relax = d == 2 and q % 2 == 1
    return RestrictionReport(
        q=q,
        d=d,
        gcd_value=g,
        gcd_ok=g == 1,
        bound_rhs=rhs,
        bound_ok=d < rhs,
        relaxation_available=relax,
        dropped_column=(q + 1) // 2 if relax else None,
    )


@dataclass(frozen=True, eq=False)
class SequenceFamily:
    """The built family plus everything needed to audit it.

    lambda_reps includes the representative 0 (excluded from the family
    itself); used_columns is the l-range actually instantiated. coset_sizes
    maps each used column to the size of its coset mod q**d-1, which is the
    degree of the irreducible polynomial driving that column's correlation
    bound.
    """

    q: int
    d: int
    M: int
    policy: str
    lambda_reps: tuple[int, ...]
    used_columns: tuple[int, ...]
    coset_sizes: dict[int, int]
    sequences: tuple[MSequence, ...]
    restrictions: RestrictionReport

    @property
    def size(self) -> int:
        return len(self.sequences)

    @property
    def period(self) -> int:
        return self.q - 1

    def labels(self) -> list[tuple[int, int]]:
        return [(s.c, s.l) for s in self.sequences]

    def symbols_matrix(self) -> np.ndarray:
        return np.vstack([s.symbols for s in self.sequences])

    def degree_per_sequence(self) -> np.ndarray:
        return np.array([self.coset_sizes[s.l] for s in self.sequences], dtype=np.int64)

    def manifest(self) -> dict:
        return {
            "q": self.q,
            "d": self.d,
            "M": self.M,
            "policy": self.policy,
            "lambda": list(self.lambda_reps),
            "size": self.size,
            "restriction_report": self.restrictions.to_dict(),
        }


def build_family(ext: ExtensionContext, M: int, policy: str = "strict") -> SequenceFamily:
    """Materialize all (M-1) * #columns sequences (c * v_l mod M).

    Under the strict policy both restrictions must hold; relaxed-d2 (d=2,
    q odd only) waives the gcd condition and additionally drops column
    (q+1)/2, which restores the distinct-polynomial property.
    """
    q, d = ext.q, ext.d
    _check_alphabet(q, M)
    if policy not in POLICIES:
        raise ParameterError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    report = check_restrictions(q, d)
    if policy == "strict":
        if not report.gcd_ok:
            raise ParameterError(
                f"strict policy violated: gcd(d, q-1) = {report.gcd_value} != 1"
            )
        if not report.bound_ok:
            raise ParameterError(
                f"strict policy violated: d = {d} >= {report.bound_rhs:.4f}"
            )
    else:
        if not report.relaxation_available:
            raise ParameterError("relaxed-d2 policy requires d = 2 and q odd")
        if not report.bound_ok:
            raise ParameterError(
                f"relaxed-d2 still needs d = {d} < {report.bound_rhs:.4f}"
            )

    reps = coset_representatives(q, d)
    used = [l for l in reps if l != 0]
    if policy == "relaxed-d2":
        used = [l for l in used if l != (q + 1) // 2]

    coset_sizes = {l: coset(l, q**d - 1, q).size for l in used}
    base_columns = {l: column_symbols(ext, l, M) for l in used}
    sequences = []
    for c in range(1, M):
        for l in used:
            sequences.append(
                MSequence(
                    (c * base_columns[l]) % M, q - 1, M, "family", q, d, l, c
                )
            )
    return SequenceFamily(
        q=q,
        d=d,
        M=M,
        policy=policy,
        lambda_reps=tuple(reps),
        used_columns=tuple(used),
        coset_sizes=coset_sizes,
        sequences=tuple(sequences),
        restrictions=report,
    )


def distinct_shift_check(ext: ExtensionContext, l1: int, l2: int, tau: int) -> bool:
    """Whether the column-l1 irreducible differs from the shifted column-l2 one.

    The second polynomial is rebuilt from its root set (each root of the
    l2 polynomial scaled by beta**-tau); equality should occur only for
    l1 = l2 with tau = 0.
    """
    m = ext.norm_ratio
    if not (1 <= l1 < m and 1 <= l2 < m):
        raise ParameterError("column indices must be nonzero and below the column count")
    if not 0 <= tau <= ext.q - 2:
        raise ParameterError("shift must lie in [0, q-2]")
    return column_polynomial(ext, l1).min_poly != shifted_column_polynomial(ext, l2, tau)
