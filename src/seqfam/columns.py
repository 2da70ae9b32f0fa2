"""Array structure of the long sequence: columns, cosets, column polynomials.

The period-(q**d-1) sequence listed row-wise as a (q-1) x ((q**d-1)/(q-1))
array has columns that are themselves period-(q-1) sequences. Each column
l carries a degree-d polynomial (the norm form of alpha**l x + 1) whose
irreducible part is controlled by the q-cyclotomic coset of l.
"""

from dataclasses import dataclass

import numpy as np

from . import polys
from .errors import InternalCheckError, ParameterError
from .fields import ExtensionContext
from .sequences import MSequence, _check_alphabet, sidelnikov_sequence_ext


@dataclass(frozen=True)
class CyclotomicCoset:
    """Orbit of l under multiplication by q modulo the given modulus."""

    modulus: int
    representative: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def coset(l: int, modulus: int, q: int) -> CyclotomicCoset:
    """q-cyclotomic coset of l mod modulus, members in orbit order from l."""
    if not 0 <= l < modulus:
        raise ParameterError(f"coset index {l} out of range [0, {modulus})")
    members = [l]
    cur = (l * q) % modulus
    while cur != l:
        members.append(cur)
        cur = (cur * q) % modulus
    return CyclotomicCoset(modulus, min(members), tuple(members))


def coset_minima(modulus: int, q: int) -> np.ndarray:
    """Smallest member of the q-cyclotomic coset of each index mod modulus."""
    idx = np.arange(modulus, dtype=np.int64)
    reps, cur = idx.copy(), (idx * q) % modulus
    while not np.array_equal(cur, idx):
        np.minimum(reps, cur, out=reps)
        cur = (cur * q) % modulus
    return reps


def column_symbols(ext: ExtensionContext, l: int, M: int) -> np.ndarray:
    """Symbols of column l from its closed form log(N(alpha**l beta**t + 1)) mod M.

    Accepts any l >= 0; the array-column interpretation additionally
    requires l below the column count (enforced by column_sequence).
    """
    _check_alphabet(ext.q, M)
    if l < 0:
        raise ParameterError("column index must be nonnegative")
    q, size = ext.q, ext.size
    alpha_l = int(ext.exp[l % (size - 1)])
    beta_pows = ext.exp[(np.arange(q - 1, dtype=np.int64) * ext.norm_ratio) % (size - 1)]
    vals = ext.add_arr(ext.mul_arr(np.int64(alpha_l), beta_pows), 1)
    return ext.base.log[ext.norm_arr(vals)] % M


def column_sequence(ext: ExtensionContext, l: int, M: int) -> MSequence:
    """Column l of the array listing, as a period-(q-1) sequence."""
    if not 0 <= l < ext.norm_ratio:
        raise ParameterError(f"column index {l} out of range [0, {ext.norm_ratio})")
    return MSequence(column_symbols(ext, l, M), ext.q - 1, M, "column", ext.q, ext.d, l, 1)


def column_from_long_sequence(
    ext: ExtensionContext, l: int, M: int, long_seq: MSequence | None = None
) -> MSequence:
    """Column l extracted by strided indexing of the long sequence.

    Independent of the closed-form route in column_symbols; the two must
    agree symbol for symbol.
    """
    if not 0 <= l < ext.norm_ratio:
        raise ParameterError(f"column index {l} out of range [0, {ext.norm_ratio})")
    if long_seq is None:
        long_seq = sidelnikov_sequence_ext(ext, M)
    idx = (np.arange(ext.q - 1, dtype=np.int64) * ext.norm_ratio + l) % (ext.size - 1)
    return MSequence(long_seq.symbols[idx], ext.q - 1, M, "column", ext.q, ext.d, l, 1)


def _root_product(ext: ExtensionContext, exponents, scale: int = 1) -> tuple:
    """Monic product of (x + alpha**(-j) * scale) over the given exponents."""
    out = (1,)
    for j in exponents:
        out = polys.mul_linear(ext, out, ext.mul(int(ext.exp[(-j) % (ext.size - 1)]), scale))
    return out


def shifted_column_polynomial(ext: ExtensionContext, l: int, tau: int) -> tuple:
    """Product of (x + alpha**(-j) * beta**(-tau)) over the coset of l mod q**d-1.

    This is min_poly of column l with its roots scaled by beta**-tau, a
    base-field polynomial for every tau.
    """
    members = coset(l, ext.size - 1, ext.q).members
    shifted = _root_product(ext, members, ext.base.pow_(ext.base.beta, -tau))
    if any(c >= ext.q for c in shifted):
        raise InternalCheckError("shifted column polynomial left the base field")
    return shifted


def frobenius_poly(ext: ExtensionContext, poly, k: int = 1) -> tuple:
    """Apply the base-field Frobenius x -> x**q k times to each coefficient."""
    return polys.trim([ext.frobenius(c, k) for c in poly])


@dataclass(frozen=True)
class ColumnPolynomial:
    """Polynomial data attached to column l.

    norm_poly is the degree-d polynomial with leading coefficient
    beta**l, linear coefficient trace(alpha**l) and constant term 1.
    min_poly is its monic irreducible part (the minimal polynomial of
    -alpha**(-l)), repeated d/d_l times; orbit_poly is the subproduct
    over the coset reduced mod the column count. Coefficient encodings
    are over the base field for norm_poly and min_poly.
    """

    l: int
    norm_poly: tuple[int, ...]
    min_poly: tuple[int, ...]
    orbit_poly: tuple[int, ...]
    full_coset: CyclotomicCoset
    reduced_coset: CyclotomicCoset

    @property
    def min_poly_degree(self) -> int:
        return self.full_coset.size


def column_polynomial(ext: ExtensionContext, l: int) -> ColumnPolynomial:
    """Build and cross-verify the polynomials attached to column l.

    Raises InternalCheckError if the product of conjugate linear factors
    does not factor as beta**l times a power of the irreducible part;
    that identity failing means broken field arithmetic, not bad input.
    """
    if l < 0:
        raise ParameterError("column index must be nonnegative")
    d, size = ext.d, ext.size

    norm_poly = (1,)
    for j in range(d):
        a_j = int(ext.exp[(l * pow(ext.q, j, size - 1)) % (size - 1)]) if l else 1
        norm_poly = polys.mul(ext, norm_poly, (1, a_j))

    full = coset(l % (size - 1), size - 1, ext.q)
    reduced = coset(l % ext.norm_ratio, ext.norm_ratio, ext.q)
    min_poly = _root_product(ext, full.members)
    # The orbit subproduct needs actual exponents mod q**d-1, not the mod-m
    # residues that index the reduced coset (alpha powers are only defined
    # mod q**d-1); take the first |reduced| conjugate exponents of l.
    orbit_poly = _root_product(ext, full.members[: reduced.size])

    if d % full.size != 0:
        raise InternalCheckError("coset size does not divide the extension degree")
    if full.size % reduced.size != 0:
        raise InternalCheckError("reduced coset size does not divide the full coset size")
    beta_l = ext.base.pow_(ext.base.beta, l)
    expected = polys.scale(ext, polys.pow_(ext, min_poly, d // full.size), beta_l)
    if expected != norm_poly:
        raise InternalCheckError(f"column polynomial identity failed at l={l}")
    for name, poly in (("norm_poly", norm_poly), ("min_poly", min_poly)):
        if any(c >= ext.q for c in poly):
            raise InternalCheckError(f"{name} has coefficients outside the base field")

    return ColumnPolynomial(l, norm_poly, min_poly, orbit_poly, full, reduced)
