"""Exhaustive periodic correlation analysis of a sequence family.

The scan covers every unordered pair of family members (autocorrelations
included once) at every shift, excluding only the trivial same-sequence
zero-shift case. It tracks the family-wide maximum with argmax witnesses,
a histogram of magnitudes, and per-pair bounds that use the actual
irreducible-part degrees of the two columns involved.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import polys
from .columns import column_polynomial, shifted_column_polynomial
from .errors import InternalCheckError, ParameterError
from .family import SequenceFamily
from .fields import ExtensionContext, FieldContext
from .kernels import PairScanner
from .sequences import MSequence

TOLERANCE = 1e-6
WITNESS_CAP = 100
_MATCH_TOL = 1e-9

# Histograms bin |R| rounded to 6 decimals. Large alphabets can make nearly
# every correlation value distinct at that resolution, so once the exact
# histogram passes this many entries the scan degrades deterministically to
# fixed 1e-3-wide bins and records the resolution in the report.
HISTOGRAM_EXACT_LIMIT = 1 << 20
_FINE_SCALE = 10**6
_COARSE_SCALE = 10**3


def cross_correlation(a: MSequence, b: MSequence, tau: int) -> complex:
    """R(tau) = sum_t w**(a(t) - b(t+tau)) as a complex double."""
    if a.period != b.period:
        raise ParameterError("period mismatch")
    if a.M != b.M:
        raise ParameterError("alphabet mismatch")
    if not 0 <= tau < a.period:
        raise ParameterError("shift out of range")
    diff = a.symbols - np.roll(b.symbols, -tau)
    return complex(np.exp(2j * np.pi * (diff % a.M) / a.M).sum())


@dataclass(frozen=True)
class WeilBoundInput:
    """Degrees and GF(q)-root counts of the distinct monic irreducible arguments."""

    terms: tuple[tuple[int, int], ...]
    q: int


def weil_bound(inp: WeilBoundInput) -> float:
    """(sum of degrees - 1) * sqrt(q) + total root count."""
    if len(inp.terms) < 1:
        raise ParameterError("at least one polynomial term is required")
    degs = sum(t[0] for t in inp.terms)
    roots = sum(t[1] for t in inp.terms)
    return (degs - 1) * math.sqrt(inp.q) + roots


@dataclass
class CorrelationReport:
    """Everything the scan produced, JSON/CSV serializable."""

    q: int
    d: int
    M: int
    policy: str
    family_size: int
    delta_max: float
    bound: float
    bound_ok: bool
    argmax: list[dict]
    histogram: dict[float, int]
    histogram_resolution: float
    pair_bound_ok: bool
    pair_bound_violations: list[dict]
    same_column_bound_ok: bool
    backend: str
    elapsed: float

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "d": self.d,
            "M": self.M,
            "policy": self.policy,
            "family_size": self.family_size,
            "delta_max": self.delta_max,
            "bound": self.bound,
            "bound_ok": self.bound_ok,
            "pair_bound_ok": self.pair_bound_ok,
            "pair_bound_violations": self.pair_bound_violations,
            "same_column_bound_ok": self.same_column_bound_ok,
            "argmax": self.argmax,
            "histogram": {f"{k:.6f}": v for k, v in sorted(self.histogram.items())},
            "histogram_resolution": self.histogram_resolution,
            "backend": self.backend,
            "elapsed": self.elapsed,
        }

    def histogram_csv(self) -> str:
        lines = ["abs_correlation,count"]
        lines += [f"{k:.6f},{v}" for k, v in sorted(self.histogram.items())]
        return "\n".join(lines) + "\n"


class _HistogramAccumulator:
    """Counts quantized magnitudes, degrading to coarse bins if they explode.

    Every value is binned through its 1e-6 key rint(v * 1e6), also after
    the switch to 1e-3 bins, where the bin is (key + 500) // 1000. A value
    therefore lands in the same bin whenever it is scanned, and the result
    does not depend on the order of the members or of the tiles.

    Each tile's (key, count) pairs wait in a batch that is merged into the
    sorted histogram once it holds as many keys as the histogram and at
    least HISTOGRAM_EXACT_LIMIT, so the histogram is not re-sorted for
    every tile. The switch is decided at a merge: it happens exactly when
    the whole scan has more than HISTOGRAM_EXACT_LIMIT distinct keys.
    """

    def __init__(self, period: int):
        self.scale = _FINE_SCALE
        # Keys reach rint(period * 1e6); int32 sorts faster where it fits.
        self._dtype = np.int32 if (period + 2) * _FINE_SCALE < 2**31 else np.int64
        self.keys = np.empty(0, dtype=self._dtype)
        self.counts = np.empty(0, dtype=np.int64)
        self._batch: list[tuple[np.ndarray, np.ndarray]] = []
        self._batch_keys = 0
        self._coarse_len = (period + 2) * _COARSE_SCALE
        self._dense = None

    def add(self, values: np.ndarray) -> None:
        """Count values; a contiguous array is overwritten, to spare a copy."""
        scaled = values.reshape(-1)
        scaled *= _FINE_SCALE
        keys = np.rint(scaled, out=scaled).astype(self._dtype)
        if self._dense is not None:
            self._dense += np.bincount(_coarse_keys(keys), minlength=self._coarse_len)
            return
        keys.sort()
        starts = _run_starts(keys)
        self._batch.append((keys[starts], np.diff(starts, append=keys.size)))
        self._batch_keys += starts.size
        if self._batch_keys >= max(self.keys.size, HISTOGRAM_EXACT_LIMIT):
            self._merge()

    def _merge(self) -> None:
        cat = np.concatenate([self.keys] + [k for k, _ in self._batch])
        cnt = np.concatenate([self.counts] + [c for _, c in self._batch])
        self._batch, self._batch_keys = [], 0
        order = np.argsort(cat, kind="stable")
        cat, cnt = cat[order], cnt[order]
        starts = _run_starts(cat)
        self.keys, self.counts = cat[starts], np.add.reduceat(cnt, starts)
        if self.keys.size > HISTOGRAM_EXACT_LIMIT:
            self.scale = _COARSE_SCALE
            self._dense = np.zeros(self._coarse_len, dtype=np.int64)
            np.add.at(self._dense, _coarse_keys(self.keys), self.counts)
            self.keys = self.counts = None

    def result(self) -> dict[float, int]:
        if self._dense is None:
            self._merge()
        if self._dense is not None:
            nz = np.flatnonzero(self._dense)
            return {int(k) / self.scale: int(self._dense[k]) for k in nz}
        return {k / self.scale: int(v) for k, v in zip(self.keys.tolist(), self.counts.tolist())}


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal keys."""
    return np.flatnonzero(np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1])))


def _coarse_keys(fine_keys: np.ndarray) -> np.ndarray:
    """1e-6 keys to 1e-3 keys, rounding half up."""
    ratio = _FINE_SCALE // _COARSE_SCALE
    return (fine_keys + ratio // 2) // ratio


def _first(entries: list[tuple]) -> list[tuple]:
    """The WITNESS_CAP entries that come first in (i, j, tau) order."""
    return sorted(entries)[:WITNESS_CAP]


def _mask_diagonal_tile(vals: np.ndarray, period: int) -> None:
    """On a tile whose rows are its columns, drop pairs j < i and each trivial shift.

    Dropped entries are set to -1, below every magnitude.
    """
    diag = np.arange(vals.shape[0])
    if np.any(np.abs(vals[diag, diag, 0] - period) > TOLERANCE):
        raise InternalCheckError("trivial correlation does not equal the period")
    vals[diag, diag, 0] = -1.0
    vals[np.tril_indices(vals.shape[0], -1)] = -1.0


def max_correlation(
    family: SequenceFamily,
    backend: str | None = "auto",
    jobs: int | None = None,
) -> CorrelationReport:
    """Exhaustive scan of all nontrivial auto- and cross-correlations.

    Deduplicates by conjugate symmetry: only ordered pairs with
    (c1, l1) <= (c2, l2) are scanned, autocorrelations once. The scan runs
    over (row tile x column tile) blocks of the upper triangle. The argmax
    and pair_bound_violations lists are deterministic (lexicographic on
    (c1, l1, c2, l2, tau)) and each capped at WITNESS_CAP entries.
    """
    if family.size < 1:
        raise ParameterError("family is empty")
    start = time.perf_counter()
    symbols = family.symbols_matrix()
    n, period = symbols.shape
    scanner = PairScanner(symbols, family.M, backend=backend, jobs=jobs)
    sqrt_q = math.sqrt(family.q)
    degs = family.degree_per_sequence()
    c_arr = np.array([s.c for s in family.sequences], dtype=np.int64)
    l_arr = np.array([s.l for s in family.sequences], dtype=np.int64)

    delta_max = -1.0
    witnesses: list[tuple] = []  # (i, j, tau, value)
    violations: list[tuple] = []  # (i, j, tau, value, pair bound)
    histogram = _HistogramAccumulator(period)
    same_col_ok = True
    tile = scanner.tile

    for j0 in range(0, n, tile):
        cols = np.arange(j0, min(j0 + tile, n))
        for i0 in range(0, j0 + 1, tile):
            rows = np.arange(i0, min(i0 + tile, n))
            vals = scanner.correlations_abs(rows, cols)
            diagonal = i0 == j0
            if diagonal:
                _mask_diagonal_tile(vals, period)
            tile_max = float(vals.max())

            pair_bound = (degs[rows][:, None] + degs[cols] - 1) * sqrt_q + 1.0
            if tile_max > pair_bound.min() + TOLERANCE:
                hits = np.argwhere(vals > (pair_bound + TOLERANCE)[:, :, None])[:WITNESS_CAP]
                violations = _first(violations + [
                    (int(rows[a]), int(cols[b]), int(tau), float(vals[a, b, tau]), float(pair_bound[a, b]))
                    for a, b, tau in hits
                ])

            same_col = (l_arr[rows][:, None] == l_arr[cols]) & (c_arr[rows][:, None] != c_arr[cols])
            if same_col_ok and same_col.any():
                sharp = (degs[rows] - 1) * sqrt_q + 1.0
                same_col_ok = not np.any(same_col & (vals[:, :, 0] > sharp[:, None] + TOLERANCE))

            delta_max = max(delta_max, tile_max)
            threshold = delta_max - _MATCH_TOL
            if tile_max >= threshold:
                new = [
                    (int(rows[a]), int(cols[b]), int(tau), float(vals[a, b, tau]))
                    for a, b, tau in np.argwhere(vals >= threshold)[:WITNESS_CAP]
                ]
                witnesses = _first([w for w in witnesses if w[3] >= threshold] + new)

            histogram.add(vals[vals >= 0.0] if diagonal else vals)  # last use: overwrites vals

    def labelled(i: int, j: int, tau: int, value: float) -> dict:
        return {
            "c1": int(c_arr[i]),
            "l1": int(l_arr[i]),
            "c2": int(c_arr[j]),
            "l2": int(l_arr[j]),
            "tau": tau,
            "value": value,
        }

    bound = (2 * family.d - 1) * sqrt_q + 1.0
    counts = histogram.result()  # the last merge decides the resolution
    return CorrelationReport(
        q=family.q,
        d=family.d,
        M=family.M,
        policy=family.policy,
        family_size=family.size,
        delta_max=delta_max,
        bound=bound,
        bound_ok=delta_max <= bound + TOLERANCE,
        argmax=[labelled(*w) for w in witnesses],
        histogram=counts,
        histogram_resolution=1.0 / histogram.scale,
        pair_bound_ok=not violations,
        pair_bound_violations=[{**labelled(*v[:4]), "pair_bound": v[4]} for v in violations],
        same_column_bound_ok=same_col_ok,
        backend=scanner.backend,
        elapsed=time.perf_counter() - start,
    )


def _least_rotation(symbols: list) -> int:
    """Start of the lexicographically least rotation, in O(P) comparisons.

    Two-pointer minimum-expression scan (the bound of Booth 1980): at the
    first mismatch after a common prefix of length k, the larger of the
    candidates i, j is ruled out with every start inside its prefix.
    """
    n, s = len(symbols), symbols * 2
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = s[i + k], s[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    return min(i, j)


def _canonical_rotation(symbols: np.ndarray) -> bytes:
    return np.roll(symbols, -_least_rotation(symbols.tolist())).tobytes()


def cyclic_inequivalence(family) -> tuple[bool, dict | None]:
    """True iff no two distinct members are cyclic shifts of one another.

    Works by exact symbol comparison (canonical-rotation bucketing plus a
    direct shift search on collisions), independent of the correlation
    machinery.
    """
    sequences = family.sequences if isinstance(family, SequenceFamily) else tuple(family)
    buckets: dict[bytes, int] = {}
    for idx, seq in enumerate(sequences):
        key = _canonical_rotation(np.asarray(seq.symbols, dtype=np.int64))
        if key not in buckets:
            buckets[key] = idx
            continue
        first = buckets[key]
        ref = sequences[first].symbols
        for tau in range(seq.period):
            if np.array_equal(ref, np.roll(seq.symbols, -tau)):
                return False, {
                    "index1": first,
                    "c1": sequences[first].c,
                    "l1": sequences[first].l,
                    "index2": idx,
                    "c2": seq.c,
                    "l2": seq.l,
                    "tau": tau,
                }
        raise InternalCheckError("canonical rotations collided without a shift match")
    return True, None


def empirical_character_sum(ctx: FieldContext, M: int, terms) -> complex:
    """Direct sum over all field elements of a product of character values.

    terms is an iterable of (poly, power, coeff): each factor is the
    order-M character raised to `power`, evaluated at coeff * poly(x),
    under the value-1-at-zero convention.
    """
    if (ctx.q - 1) % M != 0:
        raise ParameterError("M must divide q-1")
    xs = np.arange(ctx.q, dtype=np.int64)
    total = np.zeros(ctx.q, dtype=np.int64)
    for poly, power, coeff in terms:
        if power % M == 0:
            raise ParameterError("characters must be nontrivial")
        if coeff == 0:
            raise ParameterError("polynomial coefficients must be nonzero")
        vals = ctx.mul_arr(np.int64(coeff), polys.eval_arr(ctx, poly, xs))
        total += (power % M) * ctx.log[vals]
    return complex(np.exp(2j * np.pi * (total % M) / M).sum())


def correlation_via_character_sum(
    ext: ExtensionContext, M: int, c1: int, l1: int, c2: int, l2: int, tau: int
) -> complex:
    """R(tau) recomputed through the character-sum identity.

    Expresses the correlation of c1*v_l1 against c2*v_l2 as a constant
    phase times a two-factor character sum over the whole base field,
    minus the zero-term bookkeeping contribution. Must match the direct
    symbol-domain computation to floating-point accuracy.
    """
    base, d, q = ext.base, ext.d, ext.q
    cp1 = column_polynomial(ext, l1)
    shifted = shifted_column_polynomial(ext, l2, tau)

    k1 = (c1 * (d // cp1.min_poly_degree)) % M
    k2 = (-c2 * (d // (len(shifted) - 1))) % M
    phase0 = (c1 * l1 - c2 * l2 - c2 * d * tau) % M
    xs = np.arange(q, dtype=np.int64)
    logs1 = base.log[polys.eval_arr(base, cp1.min_poly, xs)]
    logs2 = base.log[polys.eval_arr(base, shifted, xs)]
    total = phase0 + k1 * logs1 + k2 * logs2
    inner = np.exp(2j * np.pi * (total % M) / M).sum()
    return complex(inner - 1.0)
