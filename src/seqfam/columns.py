"""Array structure of the long sequence: columns, cosets, column polynomials.

The period-(q**d-1) sequence listed row-wise as a (q-1) x ((q**d-1)/(q-1))
array has columns that are themselves period-(q-1) sequences. Each column
l carries a degree-d polynomial (the norm form of alpha**l x + 1) whose
irreducible part is controlled by the q-cyclotomic coset of l.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import polys
from .errors import InternalCheckError, ParameterError
from .fields import ExtensionContext
from .kernels import CHUNK, run_chunks
from .sequences import MSequence, check_alphabet


@dataclass(frozen=True)
class CyclotomicCoset:
    """Orbit of l under multiplication by q modulo the given modulus."""

    modulus: int
    representative: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def _unit_order(q: int, modulus: int) -> int:
    """Multiplicative order of q mod modulus, refused unless q is a unit there: no orbit walk would end."""
    if math.gcd(q, modulus) != 1:
        raise ParameterError(f"q = {q} is not a unit mod {modulus}")
    order, power = 1, q % modulus
    while power != 1 % modulus:
        order, power = order + 1, power * q % modulus
    return order


def _orbit_sizes(ls: np.ndarray, q: int, modulus: int) -> np.ndarray:
    """Size of the q-orbit of each l mod modulus: the order of q mod modulus / gcd(l, modulus)."""
    cofactors, at = np.unique(modulus // np.gcd(ls, modulus), return_inverse=True)
    return np.array([_unit_order(q, c) for c in cofactors.tolist()], dtype=np.int64)[at]


def coset(l: int, modulus: int, q: int) -> CyclotomicCoset:
    """q-cyclotomic coset of l mod modulus, members in orbit order from l."""
    if not 0 <= l < modulus:
        raise ParameterError(f"coset index {l} out of range [0, {modulus})")
    size = _unit_order(q, modulus // math.gcd(l, modulus))  # as in _orbit_sizes
    members = tuple(l * pow(q, i, modulus) % modulus for i in range(size))
    return CyclotomicCoset(modulus, min(members), members)


def coset_leaders(modulus: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Representatives of the q-cyclotomic cosets mod modulus, ascending, and the coset sizes.

    Candidate elimination, one chunk of indices at a time: each pass
    multiplies the surviving indices' images by q once more and keeps an
    index only while its image is not smaller, so after ord(q) - 1 passes
    only the orbit minima are left, and the passes shrink as they go; then
    _orbit_sizes gives each leader its coset size. Works in int32 while
    every product image * q stays below 2**31, which the default table cap
    guarantees, and in int64 above that. The chunks run through
    kernels.run_chunks.
    """
    order = _unit_order(q, modulus)
    dtype = np.int32 if modulus * q < 1 << 31 else np.int64

    def chunk(lo):
        leaders = np.arange(lo, min(lo + CHUNK, modulus), dtype=dtype)
        image = leaders.copy()
        for _ in range(order - 1):
            image *= q
            image %= modulus
            keep = image >= leaders
            leaders, image = leaders[keep], image[keep]
        return leaders, _orbit_sizes(leaders, q, modulus)

    leaders, sizes = zip(*run_chunks(chunk, modulus, CHUNK))
    return np.concatenate(leaders).astype(np.int64), np.concatenate(sizes)


def column_symbols(ext: ExtensionContext, l, M: int) -> np.ndarray:
    """Symbols of column l from its closed form log(N(alpha**l beta**t + 1)) mod M.

    Accepts any l >= 0; the array-column interpretation additionally
    requires l below the column count (enforced by column_sequence). An
    array of indices gives one row per index, in one pass over all of them.
    """
    check_alphabet(ext.q, M)
    l = np.asarray(l, dtype=np.int64)
    if np.any(l < 0):
        raise ParameterError("column index must be nonnegative")
    q, size = ext.q, ext.size
    alpha_l = ext.exp[l % (size - 1)][..., None]
    beta_pows = ext.exp[(np.arange(q - 1, dtype=np.int64) * ext.norm_ratio) % (size - 1)]
    vals = ext.add_arr(ext.mul_arr(alpha_l, beta_pows), 1)
    return ext.base.log[ext.norm_arr(vals)] % M


def column_sequence(ext: ExtensionContext, l: int, M: int) -> MSequence:
    """Column l of the array listing, as a period-(q-1) sequence."""
    if not 0 <= l < ext.norm_ratio:
        raise ParameterError(f"column index {l} out of range [0, {ext.norm_ratio})")
    return MSequence(column_symbols(ext, l, M), M, ext.q, ext.d, l)


def column_from_long_sequence(ext: ExtensionContext, l: int, M: int, long_seq: MSequence) -> MSequence:
    """Column l extracted by strided indexing of long_seq, the period-(q**d-1) sequence.

    Independent of the closed-form route in column_symbols; the two must
    agree symbol for symbol.
    """
    if not 0 <= l < ext.norm_ratio:
        raise ParameterError(f"column index {l} out of range [0, {ext.norm_ratio})")
    idx = (np.arange(ext.q - 1, dtype=np.int64) * ext.norm_ratio + l) % (ext.size - 1)
    return MSequence(long_seq.symbols[idx], M, ext.q, ext.d, l)


_ROWS = 4096  # rows of root_products multiplied out together
_ORBIT_ROWS = 1 << 14  # orbit rows formed together, four row chunks of root_products


def root_products(ext: ExtensionContext, exponents) -> np.ndarray:
    """Row i: the coefficients of prod_k (x + alpha**e[i, k]), constant term first.

    exponents is (rows, s) and the result (rows, s + 1). The rows are
    multiplied out in chunks, coefficient-major, so every pass runs over
    contiguous memory. Each step multiplies every row by its next linear
    factor: c * alpha**e is read as exp[log(c) + e], and the coefficients
    shift up by one. The exponents are kept in [-n, 0), n = q**d - 1, so
    the index lies in [-n, n) and a negative one reads exp from the end,
    which is the wrap mod n; each chunk reduces its own rows. The chunks
    run through kernels.run_chunks, each writing its own rows of the result.
    """
    n = ext.size - 1
    exponents = np.asarray(exponents, dtype=np.int64)
    rows, s = exponents.shape
    out = np.empty((rows, s + 1), dtype=np.int64)

    def chunk(lo):
        e = np.ascontiguousarray(exponents[lo : lo + _ROWS].T)
        e %= n
        e -= n
        coeff = np.zeros((s + 1, e.shape[1]), dtype=np.int64)  # row j: the coefficients of x**j
        coeff[0] = 1
        for k in range(s):
            low = coeff[: k + 1]
            index = ext.log[low]
            index += e[k]
            scaled = ext.exp[index]
            scaled[low == 0] = 0
            coeff[1 : k + 1] = ext.add(scaled[1:], low[:-1])
            coeff[0] = scaled[0]
            coeff[k + 1] = 1  # the product stays monic
        out[lo : lo + _ROWS] = coeff.T

    run_chunks(chunk, rows, _ROWS)
    return out


def orbit_products(ext: ExtensionContext, ls, modulus: int, scale: int, offsets):
    """Yield (rows, coeff), coeff[i] = prod (x + alpha**(scale*e + offset)) over the q-orbit e of l.

    l is ls[rows[i]], its orbit taken mod modulus, and offset is
    offsets[rows[i]], or offsets itself when it is one exponent for all.
    The rows come grouped by orbit size s, ascending, _ORBIT_ROWS at a
    time; each chunk's orbits are formed and multiplied out by one
    root_products call into s + 1 coefficients, constant term first. A
    full Frobenius orbit of roots gives a monic product over the base
    field when scale * modulus and (q - 1) * offset are multiples of
    q**d - 1; each chunk is checked for both.
    """
    q = ext.q
    ls = np.asarray(ls, dtype=np.int64) % modulus
    offsets = np.broadcast_to(np.asarray(offsets, dtype=np.int64), ls.shape)
    sizes = _orbit_sizes(ls, q, modulus)
    for s in np.unique(sizes).tolist():
        powers = np.array([pow(q, i, modulus) for i in range(s)], dtype=np.int64)
        sel = np.flatnonzero(sizes == s)
        for lo in range(0, sel.size, _ORBIT_ROWS):
            rows = sel[lo : lo + _ORBIT_ROWS]
            exponents = ls[rows, None] * powers % modulus  # l * q**i mod modulus, every product below modulus**2
            exponents *= scale
            exponents += offsets[rows, None]
            coeff = root_products(ext, exponents)
            if np.any(coeff[:, s] != 1):
                raise InternalCheckError("orbit factor is not monic")
            if coeff.max() >= q:
                raise InternalCheckError("orbit factor has coefficients outside the base field")
            yield rows, coeff


def shifted_column_polynomial(ext: ExtensionContext, l: int, tau: int) -> tuple:
    """Product of (x + alpha**(-j) * beta**(-tau)) over the coset of l mod q**d-1.

    This is min_poly of column l with its roots scaled by beta**-tau, a
    base-field polynomial for every tau. beta = alpha**m, m the column count.
    """
    ((_, coeff),) = orbit_products(ext, [l], ext.size - 1, -1, -tau * ext.norm_ratio)
    return tuple(coeff[0].tolist())


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
    exponents = [-j for j in full.members]  # the factors x + alpha**(-j)
    min_poly = tuple(root_products(ext, [exponents])[0].tolist())
    # The orbit subproduct needs actual exponents mod q**d-1, not the mod-m
    # residues that index the reduced coset (alpha powers are only defined
    # mod q**d-1); take the first |reduced| conjugate exponents of l.
    orbit_poly = tuple(root_products(ext, [exponents[: reduced.size]])[0].tolist())

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
