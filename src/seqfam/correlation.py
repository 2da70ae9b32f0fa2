"""Exhaustive periodic correlation analysis of a sequence family.

The scan covers every unordered pair of family members (autocorrelations
included once) at every shift, excluding only the trivial same-sequence
zero-shift case. It tracks the family-wide maximum with argmax witnesses,
a histogram of magnitudes, and per-pair bounds that use the actual
irreducible-part degrees of the two columns involved.

|R| is the same on every orbit of the group generated by decimation
t -> p*t and negation c -> -c, so only one member per orbit is scanned
as a row; each value is weighted by what it stands for, and each witness
is expanded through its orbit. The group is found from the symbols; a
family without symmetry, or with two members that are shifts of one
another, gets the trivial group, whose scan is the plain upper triangle.
"""

import math
import time
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from . import polys
from .columns import column_polynomial, shifted_column_polynomial
from .errors import InternalCheckError, ParameterError
from .family import SequenceFamily
from .fields import ExtensionContext, FieldContext
from .intmath import prime_factors
from .kernels import PairScanner, in_order, scan_blas_threads
from .sequences import MSequence

TOLERANCE = 1e-6
WITNESS_CAP = 100
_MATCH_TOL = 1e-9
_SPOT_CHECKS = 16  # seeded (i, j, tau) samples per symmetry generator
_SPOT_CHECK_SEED = 2010
_EXPAND_CHUNK = 1 << 16  # hits expanded through their orbits at a time

# Histograms bin |R| rounded to 6 decimals. Large alphabets can make nearly
# every correlation value distinct at that resolution, so once the exact
# histogram passes this many entries the scan degrades deterministically to
# fixed 1e-3-wide bins and records the resolution in the report.
HISTOGRAM_EXACT_LIMIT = 1 << 20
_FINE_SCALE = 10**6
_COARSE_SCALE = 10**3
# The histogram's batch buffer starts at 2**22 words (32 MiB), twice what a
# merge fills at the default limit; only the pages written take memory.
# glibc maps a block this large on its own and does not, when it is freed,
# raise the size from which it maps blocks. A 16 MiB buffer did, which kept
# later temporaries resident: verify at q=256 d=2 M=15 peaked 18 MB higher.
_BATCH_WORDS = 1 << 22
_CHUNK_WORDS = 1 << 16  # packed words unpacked at a time


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


def weil_bound(degree_sum, q: int):
    """(degree_sum - 1) * sqrt(q) + 1, elementwise: Weil's bound (Lidl and Niederreiter, Thm 5.41) on |R|.

    Every bound the scan reports: the family's at 2d, a pair's at its columns' degrees summed, a column's
    own at its degree. The 1 is the character sum's x = 0 term, which R leaves out.
    """
    if np.any(np.less(degree_sum, 1)):
        raise ParameterError("degree sums must be at least 1")
    return (degree_sum - 1) * math.sqrt(q) + 1.0


@dataclass
class CorrelationReport:
    """Everything the scan produced, JSON/CSV serializable; the fields are in JSON key order."""

    q: int
    d: int
    M: int
    policy: str
    family_size: int
    delta_max: float
    bound: float
    bound_ok: bool
    pair_bound_ok: bool
    pair_bound_violations: list[dict]
    same_column_bound_ok: bool
    argmax: list[dict]
    histogram: dict[float, int]
    histogram_resolution: float
    backend: str
    scan: dict
    elapsed: float
    cyclically_inequivalent: bool
    equivalence_witness: dict | None

    def to_dict(self) -> dict:
        # vars, not asdict: asdict would deep-copy a histogram of up to 2**20 bins only to replace it.
        return {**vars(self), "histogram": {f"{k:.6f}": v for k, v in sorted(self.histogram.items())}}

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

    Each tile's (key, count) pairs come packed, one uint64 word each with
    the key above the count, and wait in one buffer that is merged into the
    sorted histogram once it holds as many keys as the histogram and at
    least HISTOGRAM_EXACT_LIMIT, so the histogram is not re-sorted for
    every tile. A merge packs the histogram into the buffer too and sorts
    it: equal keys fall together with their counts. The switch is decided
    at a merge: it happens exactly when the whole scan has more than
    HISTOGRAM_EXACT_LIMIT distinct keys.
    """

    def __init__(self, period: int):
        self.scale = _FINE_SCALE
        top = (period + 2) * _FINE_SCALE  # keys reach rint(period * 1e6)
        # int32 keys sort faster where they fit; a word holds a key in its top bits, a count in the rest.
        self._dtype = np.int32 if top < 2**31 else np.int64
        self._shift = 64 - top.bit_length()
        self.keys = np.empty(0, dtype=self._dtype)
        self.counts = np.empty(0, dtype=np.int64)
        self._words = np.empty(0, dtype=np.uint64)  # the batch is its first _size words
        self._size = 0
        self._wide: list[tuple[np.ndarray, np.ndarray]] = []  # (keys, count bits above the word's)
        self._coarse_len = (period + 2) * _COARSE_SCALE
        self._dense = None

    def bins(self, values: np.ndarray, weight: int = 1) -> tuple:
        """Each value counted `weight` times, for add_bins; leaves this histogram as it is.

        While the bins are fine this is (words, wide) from _pack, one word
        per distinct key, in key order. Once they are coarse it is (None,
        counts), per coarse bin up to the largest of these values.
        Overwrites a contiguous array.
        """
        scaled = values.reshape(-1)
        scaled *= _FINE_SCALE
        keys = np.rint(scaled, out=scaled).astype(self._dtype)
        if self._dense is not None:
            counts = np.bincount(_coarse_keys(keys))
            return None, counts if weight == 1 else counts * weight
        keys.sort()
        starts = _run_starts(keys)
        words = np.empty(starts.size, dtype=np.uint64)
        return words, self._pack(keys[starts], np.diff(starts, append=keys.size) * weight, words)

    def _pack(self, keys, counts, out) -> tuple | None:
        """out = key << shift | count; the (keys, bits above) of counts too wide for that, or None."""
        wide = None
        if counts.size and int(counts.max()) >> self._shift:
            big = np.flatnonzero(counts >> self._shift)
            wide = keys[big], counts[big] >> self._shift << self._shift
            counts = counts & ((1 << self._shift) - 1)
        out[...] = keys  # keys are never negative
        out <<= np.uint64(self._shift)
        out |= counts.view(np.uint64)
        return wide

    def _add_coarse(self, words, wide) -> None:
        """Count packed words and (keys, extra) pairs in the coarse bins; overwrites the words.

        The words go a chunk at a time, so that no array holds all their keys.
        """
        for lo in range(0, words.size, _CHUNK_WORDS):
            chunk = words[lo : lo + _CHUNK_WORDS]
            keys = (chunk >> np.uint64(self._shift)).astype(self._dtype)
            chunk &= np.uint64((1 << self._shift) - 1)
            np.add.at(self._dense, _coarse_keys(keys), chunk.view(np.int64))
        for keys, extra in wide:
            np.add.at(self._dense, _coarse_keys(keys), extra)

    def add_bins(self, bins: tuple) -> None:
        """Count what bins() returned, also if the bins turned coarse in between."""
        words, rest = bins
        if words is None:
            self._dense[: rest.size] += rest
        elif self._dense is not None:
            self._add_coarse(words, [rest] if rest else [])
        else:
            if rest:
                self._wide.append(rest)
            end = self._size + words.size
            self._reserve(end)
            self._words[self._size : end] = words
            self._size = end
            if end >= max(self.keys.size, HISTOGRAM_EXACT_LIMIT):
                self._merge()

    def _reserve(self, size: int) -> None:
        """Room for `size` words in the buffer, which keeps what it holds."""
        if size > self._words.size:
            grown = np.empty(max(size, 2 * self._words.size, _BATCH_WORDS), dtype=np.uint64)
            grown[: self._size] = self._words[: self._size]
            self._words = grown

    def _merge(self) -> None:
        """Fold the batch into the histogram by one sort of the buffer, the histogram packed into it.

        The sorted words are read a chunk at a time, so that beside the
        buffer the merge holds one flag per word and the new histogram.
        """
        size = self._size + self.keys.size
        self._reserve(size)
        words = self._words[:size]
        wide = self._pack(self.keys, self.counts, words[self._size :])
        if wide:
            self._wide.append(wide)
        self._size, self.keys, self.counts = 0, None, None
        words.sort()
        first = np.empty(size, dtype=bool)  # where each key's run of words starts
        first[:1] = True
        for lo in range(0, size, _CHUNK_WORDS):  # a chunk's keys at a time
            keys = words[lo : lo + _CHUNK_WORDS + 1] >> np.uint64(self._shift)
            np.not_equal(keys[1:], keys[:-1], out=first[lo + 1 : lo + keys.size])
        distinct = int(np.count_nonzero(first))
        if distinct > HISTOGRAM_EXACT_LIMIT:
            del first
            self.scale = _COARSE_SCALE
            self._dense = np.zeros(self._coarse_len, dtype=np.int64)
            self._add_coarse(words, self._wide)
            self._words, self._wide = None, []
            return
        self.keys = np.empty(distinct, dtype=self._dtype)
        self.counts = np.empty(distinct, dtype=np.int64)
        runs = 0  # key runs that start before the chunk
        for lo in range(0, size, _CHUNK_WORDS):
            chunk = words[lo : lo + _CHUNK_WORDS]
            starts = np.flatnonzero(first[lo : lo + _CHUNK_WORDS])
            end = runs + starts.size
            self.keys[runs:end] = chunk[starts] >> np.uint64(self._shift)
            chunk &= np.uint64((1 << self._shift) - 1)
            counts = chunk.view(np.int64)
            if starts.size:
                self.counts[runs:end] = np.add.reduceat(counts, starts)
            if not first[lo]:  # the chunk opens inside the last chunk's last run
                self.counts[runs - 1] += counts[: starts[0] if starts.size else None].sum()
            runs = end
        for k, extra in self._wide:
            self.counts[np.searchsorted(self.keys, k)] += extra
        self._wide = []

    def result(self) -> dict[float, int]:
        if self._dense is None:
            self._merge()
        if self._dense is not None:
            nz = np.flatnonzero(self._dense)
            return {k / self.scale: v for k, v in zip(nz.tolist(), self._dense[nz].tolist())}
        return {k / self.scale: int(v) for k, v in zip(self.keys.tolist(), self.counts.tolist())}


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal keys."""
    return np.flatnonzero(np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1])))


def _bit_reversed(count: int) -> list[int]:
    """0, ..., count - 1 in van der Corput order: the bit reversals of 0, 1, 2, ... in as many bits as count - 1 has."""
    width = (count - 1).bit_length()
    return [k for k in (int(f"{i:0{width}b}"[::-1], 2) for i in range(1 << width)) if k < count]


def _coarse_keys(fine_keys: np.ndarray) -> np.ndarray:
    """1e-6 keys to 1e-3 keys, rounding half up, in place."""
    ratio = _FINE_SCALE // _COARSE_SCALE
    fine_keys += ratio // 2
    return np.floor_divide(fine_keys, ratio, out=fine_keys)


@dataclass(frozen=True, eq=False)
class _TripleMap:
    """(i, j, tau) -> (perm[i], perm[j], mult*tau + offset[j] - offset[i] mod P), keeping |R|.

    Built from a member map y_i(t) = x_perm[i](t + offset[i]). For a
    decimation y_i(t) = x_i(k*t), substituting t -> k*t gives
    R_ij(tau) = R_{perm i, perm j}(tau/k + offset[j] - offset[i]), so
    mult = 1/k mod P. For the negation y_i = -x_i, mult = 1 and R is
    conjugated, which keeps |R|.
    """

    perm: np.ndarray
    mult: int
    offset: np.ndarray

    def apply(self, i, j, tau, period: int):
        return self.perm[i], self.perm[j], (self.mult * tau + self.offset[j] - self.offset[i]) % period

    def then(self, other: "_TripleMap", period: int) -> "_TripleMap":
        """This map followed by `other`."""
        return _TripleMap(
            other.perm[self.perm],
            other.mult * self.mult % period,
            (other.mult * self.offset + other.offset[self.perm]) % period,
        )

    def key(self, period: int) -> tuple:
        # Only offset differences act, so offsets are compared up to a constant.
        return self.perm.tobytes(), self.mult, ((self.offset - self.offset[0]) % period).tobytes()


def _find_generators(symbols: np.ndarray, M: int, degs: np.ndarray, p: int,
                     index: dict[bytes, int], starts: np.ndarray) -> list[_TripleMap]:
    """Decimation t -> p*t and negation c -> -c, each kept if it maps the family onto itself.

    Each member's image is looked up by its least-rotation key in `index`,
    and the rotation starts give the shift offset. A generator is kept only
    if every image is a shift of a member with the same pair-bound degree.
    The lookup needs members that are not shifts of one another.
    """
    period = symbols.shape[1]
    candidates = []
    if p % period != 1:  # for prime q the decimation is the identity
        candidates.append((symbols[:, p * np.arange(period) % period], pow(p, -1, period)))
    if M > 2:  # for M = 2 the negation is the identity
        candidates.append(((-symbols) % M, 1))
    generators = []
    for images, mult in candidates:
        image_keys, image_starts = _rotation_keys(images)
        perm = np.array([index.get(key, -1) for key in image_keys], dtype=np.int64)
        if perm.min() >= 0 and np.array_equal(degs[perm], degs):
            generators.append(_TripleMap(perm, mult, (starts[perm] - image_starts) % period))
    return generators


def _spot_check(sequences, generators: list[_TripleMap], period: int) -> None:
    """Recompute both sides of every generator's symmetry on seeded (i, j, tau) samples."""
    rng = np.random.default_rng(_SPOT_CHECK_SEED)
    n = len(sequences)
    for g in generators:
        for i, j, tau in rng.integers(0, [n, n, period], size=(_SPOT_CHECKS, 3)).tolist():
            a, b, t = (int(x) for x in g.apply(i, j, tau, period))
            lhs = abs(cross_correlation(sequences[i], sequences[j], tau))
            rhs = abs(cross_correlation(sequences[a], sequences[b], t))
            if abs(lhs - rhs) > TOLERANCE:
                raise InternalCheckError(
                    f"symmetry check failed: |R({i}, {j}, {tau})| = {lhs:.6f} "
                    f"but |R({a}, {b}, {t})| = {rhs:.6f}"
                )


def _group(generators: list[_TripleMap], n: int, period: int) -> list[_TripleMap]:
    """Every product of the generators, identity first.

    <decimation, negation> has at most 2 * ord_P(p) < 2 * P elements; maps
    that do not close within that fall back to the identity alone.
    """
    identity = _TripleMap(np.arange(n), 1, np.zeros(n, dtype=np.int64))
    elements, seen, frontier = [identity], {identity.key(period)}, [identity]
    while frontier:
        new = []
        for g in frontier:
            for h in generators:
                product = g.then(h, period)
                if product.key(period) not in seen:
                    seen.add(product.key(period))
                    new.append(product)
        elements += new
        if len(elements) > 2 * period:
            return [identity]
        frontier = new
    return elements


class _OrbitScan:
    """Block source of the scan: one row per member orbit of a symmetry group.

    The members are ordered orbit by orbit, each orbit led by its smallest
    member, its representative r. Row r is scanned against every member of
    its own orbit and of the orbits after it. Each value carries a weight:
    |O_r| in a later orbit or in r's own column (the trivial shift
    excluded). Columns h*r and h^-1*r of r's own orbit hold the same values
    (apply h^-1, then swap the pair), so the first of such mates counts
    |O_r| and the second 0; a member that is its own mate counts |O_r|/2,
    as h then has order 2 on the orbit, whose size is even. Since
    |G r| * |Stab r| = |G| and |R_ij(tau)| = |R_ji(-tau)|, the weighted
    values are the multiset of the upper-triangle scan, and no count rests
    on two separately computed values rounding alike. With the trivial
    group the blocks are the upper triangle's, all of weight 1.
    """

    def __init__(self, generators: list[_TripleMap], n: int, period: int):
        self.period = period
        self.elements = _group(generators, n, period)
        rep = np.min([g.perm for g in self.elements], axis=0)  # smallest member of each orbit
        reps, sizes = np.unique(rep, return_counts=True)
        # Largest orbits first: the fewest pairs, and the rows of a band mostly share a weight.
        by_size = np.argsort(-sizes, kind="stable")
        self.reps, self.sizes = reps[by_size], sizes[by_size]
        rank = np.empty(n, dtype=np.int64)
        rank[self.reps] = np.arange(self.reps.size)
        self.order = np.argsort(rank[rep], kind="stable")  # orbit by orbit, representative first
        self.starts = np.cumsum(self.sizes) - self.sizes  # position of each orbit in self.order
        position = np.empty(n, dtype=np.int64)
        position[self.order] = np.arange(n)
        mate = np.empty(n, dtype=np.int64)  # h*r -> h^-1*r; the member action is abelian
        for g in self.elements:
            mate[g.perm[self.reps]] = np.argsort(g.perm)[self.reps]
        # Per position, twice the share of |O_r| an own-orbit column counts: 2 first mate, 0 second, 1 own mate,
        # 2 the representative's own column (its trivial shift is skipped in _ScanReducer.prepare).
        self.halves = (np.sign(position[mate] - position) + 1)[self.order]
        self.halves[self.starts] = 2
        self.blocks_scanned = self.pairs_scanned = 0

    def blocks(self, shape: tuple[int, int]):
        """(rows, cols, weights): representatives, members and each pair's weight (0: skip).

        shape = (band, tile): column tiles of `tile` members, each met by
        its rows in even bands of at most `band` representatives. No band
        has one row unless the tile meets one, even if a band of 2 must
        then take 3: numpy hands a one-row product to GEMV, whose sums can
        differ from GEMM's in the last bit.
        Column tiles come in bit-reversed order, each with its row bands in
        a row and one `cols` array, so that one column operand serves all of
        a tile's blocks.
        The member order runs by orbit size, and so by column type; in
        bit-reversed order every prefix of the scan samples all of it, so
        the histogram meets its distinct values early, while settling its
        resolution is still cheap (see _HistogramAccumulator).
        """
        band_rows, tile = shape
        n = self.order.size
        for k in _bit_reversed(-(-n // tile)):
            j0, j1 = k * tile, min(k * tile + tile, n)
            position, cols = np.arange(j0, j1), self.order[j0:j1]  # one cols array for the tile's bands
            reached = int(np.searchsorted(self.starts, j1))  # orbits that start before j1
            parts = max(1, min(-(-reached // band_rows), reached // 2))
            for part in range(parts):
                band = slice(reached * part // parts, reached * (part + 1) // parts)
                start, size = self.starts[band, None], self.sizes[band, None]
                weights = size * np.where(
                    position < start, 0, np.where(position >= start + size, 2, self.halves[position])
                ) // 2
                rows = self.reps[band]
                self.blocks_scanned += 1
                self.pairs_scanned += rows.size * cols.size
                yield rows, cols, weights

    def expand(self, i, j, tau, value) -> tuple[np.ndarray, ...]:
        """(i, j, tau, value): the first WITNESS_CAP triples with i <= j in the orbits of the given ones.

        Sorted on (i, j, tau), each triple once with the least value among
        the given triples whose orbits hold it. Two scanned triples can lie
        in one orbit, so a triple can arrive from several blocks, its values
        differing in the last bits.
        """
        parts = []
        for g in self.elements:
            a, b, t = g.apply(i, j, tau, self.period)
            parts += [(a, b, t, value), (b, a, -t % self.period, value)]
        a, b, t, v = (np.concatenate(column) for column in zip(*parts))
        keep = a <= b
        a, b, t, v = a[keep], b[keep], t[keep], v[keep]
        order = np.lexsort((v, t, b, a))
        a, b, t, v = a[order], b[order], t[order], v[order]
        first = np.flatnonzero(np.concatenate(([True], (a[1:] != a[:-1]) | (b[1:] != b[:-1]) | (t[1:] != t[:-1]))))
        first = first[:WITNESS_CAP]
        return a[first], b[first], t[first], v[first]


class _ScanReducer:
    """Folds weighted blocks into delta_max, witnesses, pair-bound hits and the histogram.

    Each block is fold(prepare(block, vals)). prepare leaves the reducer as
    it is and runs on pool threads, several blocks at once; fold merges its
    result on the caller, in scan order.
    """

    def __init__(self, scan: _OrbitScan, degs: np.ndarray, q: int):
        self.scan = scan
        self.degs = degs
        self.q = q
        self.delta_max = -1.0
        no_hits = (np.empty(0, dtype=np.int64),) * 3 + (np.empty(0),)
        self.witnesses = self.violations = no_hits  # (i, j, tau, value) arrays, as from _OrbitScan.expand
        self.histogram = _HistogramAccumulator(scan.period)

    def prepare(self, rows, cols, weights, vals) -> tuple:
        """One block's tile max, hits and histogram bins, for fold; overwrites vals.

        vals[a, b, tau] = |R(rows[a], cols[b], tau)| counts weights[a, b] times.
        Skipped pairs and each trivial shift are set to -1, below every magnitude.
        Only representatives meet their own column, so the kernel's trivial
        shift is checked on one member per orbit. The witness candidates are
        the values that fold could keep: delta_max only grows until then.
        """
        own_a, own_b = np.nonzero(rows[:, None] == cols)
        if np.any(np.abs(vals[own_a, own_b, 0] - self.scan.period) > TOLERANCE):
            raise InternalCheckError("trivial correlation does not equal the period")
        vals[own_a, own_b, 0] = -1.0
        vals[weights == 0] = -1.0
        tile_max = float(vals.max())

        violations = candidates = None
        pair_bound = weil_bound(self.degs[rows][:, None] + self.degs[cols], self.q)
        if tile_max > pair_bound.min() + TOLERANCE:
            violations = _hits(rows, cols, vals, vals > (pair_bound + TOLERANCE)[:, :, None])
        threshold = max(self.delta_max, tile_max) - _MATCH_TOL
        if tile_max >= threshold:
            candidates = _hits(rows, cols, vals, vals >= threshold)

        positive = (np.flatnonzero(np.bincount(weights.ravel())[1:]) + 1).tolist()  # the weights above 0
        if len(positive) == 1 and not own_a.size and weights.all():
            # Spares the masked copy: about 10% of the reducer's time at q=41 M=8.
            bins = [self.histogram.bins(vals, positive[0])]  # last use: overwrites vals
        else:
            bins = []
            for weight in positive:
                picked = vals[weights == weight]
                bins.append(self.histogram.bins(picked[picked >= 0.0] if own_a.size else picked, weight))
        return tile_max, violations, candidates, bins

    def fold(self, prepared: tuple) -> None:
        """Merge what prepare returned for the next block in scan order."""
        tile_max, violations, candidates, bins = prepared
        if violations is not None:
            self.violations = self._merged(self.violations, violations)
        self.delta_max = max(self.delta_max, tile_max)
        threshold = self.delta_max - _MATCH_TOL
        if tile_max >= threshold:
            keep, new = self.witnesses[3] >= threshold, candidates[3] >= threshold
            self.witnesses = self._merged(tuple(w[keep] for w in self.witnesses), tuple(c[new] for c in candidates))
        for part in bins:
            self.histogram.add_bins(part)

    def _merged(self, kept, hits) -> tuple[np.ndarray, ...]:
        """The kept entries merged with the orbits of the (i, j, tau, value) hits, through _OrbitScan.expand."""
        for lo in range(0, hits[0].size, _EXPAND_CHUNK):
            new = (h[lo:lo + _EXPAND_CHUNK] for h in hits)
            kept = self.scan.expand(*(np.concatenate(pair) for pair in zip(kept, new)))
        return kept


def _hits(rows, cols, vals, mask) -> tuple[np.ndarray, ...]:
    """(i, j, tau, value) of the block's values where mask is set."""
    a, b, tau = np.nonzero(mask)
    return rows[a], cols[b], tau, vals[a, b, tau]


def _parallel_scan(blocks, scanner: PairScanner, reducer: _ScanReducer) -> None:
    """reducer.fold(reducer.prepare(*block, kernel of block)) for each block, on scanner.threads threads.

    This thread takes the blocks in scan order, each with its column tile's
    operand, built once per tile: a tile's blocks are adjacent and share one
    `cols` array. kernels.in_order runs the kernel and reducer.prepare on
    scanner.threads threads, one per usable CPU, and this thread folds
    their results in block order, so the report is the serial pass's
    whatever the timing. An error in any stage, the fold's included, stops
    the pool before it comes out.
    """
    def prepared(rows, cols, weights, operand) -> tuple:
        return reducer.prepare(rows, cols, weights, scanner.correlations_abs(rows, cols, operand))

    def with_operands():
        cols = operand = None
        for block in blocks:
            if block[1] is not cols:
                cols, operand = block[1], scanner.operand(block[1])
            yield *block, operand

    with closing(in_order(prepared, with_operands(), scanner.threads)) as results:
        for result in results:
            reducer.fold(result)


def _same_column_ok(family: SequenceFamily, phases: np.ndarray, degs: np.ndarray) -> bool:
    """Shift-0 correlation of every two members of one column, by one dot product each.

    phases holds w**symbols, one row per member (the scanner's). Members
    c*v_l and c'*v_l (c != c') reduce to a single polynomial, so the bound
    is weil_bound(d_l, q), (d_l - 1) * sqrt(q) + 1.
    """
    c_arr = np.array([s.c for s in family.sequences], dtype=np.int64)
    l_arr = np.array([s.l for s in family.sequences], dtype=np.int64)
    by_column = np.argsort(l_arr, kind="stable")
    starts = _run_starts(l_arr[by_column])
    for members in np.split(by_column, starts[1:]):
        if members.size < 2:
            continue
        rows = phases[members]
        dots = np.abs(rows @ rows.conj().T)
        sharp = weil_bound(degs[members[0]], family.q)
        if np.any((c_arr[members][:, None] != c_arr[members]) & (dots > sharp + TOLERANCE)):
            return False
    return True


def max_correlation(family: SequenceFamily) -> CorrelationReport:
    """Exhaustive scan of all nontrivial auto- and cross-correlations.

    Covers every unordered pair (autocorrelations once) at every shift, but
    computes one member per orbit of the family's symmetry group (see
    _OrbitScan) and weights its values. The argmax and
    pair_bound_violations lists are the full scan's: each hit is expanded
    through its orbit before the lists are sorted lexicographically on
    (c1, l1, c2, l2, tau) in member order and capped at WITNESS_CAP entries.
    The members' least-rotation keys serve both the symmetry search and the
    cyclic-inequivalence verdict, which equals cyclic_inequivalence(family).
    The histogram's counts must add up to P * N(N+1)/2 - N, at either
    resolution, or InternalCheckError is raised.
    """
    if family.size < 1:
        raise ParameterError("family is empty")
    start = time.perf_counter()
    symbols = family.symbols_matrix()
    n, period = symbols.shape
    scanner = PairScanner(symbols, family.M)
    degs = family.degree_per_sequence()
    keys, starts = _rotation_keys(symbols)
    index, shared = _key_index(keys)
    generators = [] if shared else _find_generators(symbols, family.M, degs, prime_factors(family.q)[0], index, starts)
    _spot_check(family.sequences, generators, period)
    scan = _OrbitScan(generators, n, period)
    reducer = _ScanReducer(scan, degs, family.q)
    with scan_blas_threads() as blas_threads:
        _parallel_scan(scan.blocks((scanner.band, scanner.tile)), scanner, reducer)

    def labelled(i: int, j: int, tau: int, value: float) -> dict:
        a, b = family.sequences[i], family.sequences[j]
        return {"c1": int(a.c), "l1": int(a.l), "c2": int(b.c), "l2": int(b.l), "tau": tau, "value": value}

    bound = weil_bound(2 * family.d, family.q)
    inequivalent, witness = _shift_witness(family.sequences, shared)
    counts = reducer.histogram.result()  # the last merge decides the resolution
    if sum(counts.values()) != period * n * (n + 1) // 2 - n:  # every pair at every shift, less the n trivial ones
        raise InternalCheckError("histogram total is not P * N(N+1)/2 - N")
    delta_max = reducer.delta_max
    # The group keeps degrees and the pair swap keeps their sum: the bound of the scanned hit.
    i, j, tau, value = reducer.violations
    violations = zip(*(c.tolist() for c in (i, j, tau, value, weil_bound(degs[i] + degs[j], family.q))))
    return CorrelationReport(
        q=family.q,
        d=family.d,
        M=family.M,
        policy=family.policy,
        family_size=family.size,
        delta_max=delta_max,
        bound=bound,
        bound_ok=delta_max <= bound + TOLERANCE,
        argmax=[labelled(*w) for w in zip(*(c.tolist() for c in reducer.witnesses))],
        histogram=counts,
        histogram_resolution=1.0 / reducer.histogram.scale,
        pair_bound_ok=not i.size,
        pair_bound_violations=[{**labelled(*v[:4]), "pair_bound": v[4]} for v in violations],
        same_column_bound_ok=_same_column_ok(family, scanner._phases, degs),
        backend=scanner.backend,
        scan={
            "symmetry_order": len(scan.elements),
            "member_orbits": int(scan.reps.size),
            "pairs_scanned": scan.pairs_scanned,
            "pairs_represented": n * (n + 1) // 2,
            "blocks": scan.blocks_scanned,
            "blas_threads": blas_threads,
            "threads": scanner.threads,
        },
        elapsed=time.perf_counter() - start,
        cyclically_inequivalent=inequivalent,
        equivalence_witness=witness,
    )


def _least_rotations(rows: np.ndarray) -> np.ndarray:
    """Start of the lexicographically least rotation of every row, the smallest on ties.

    Every start is a candidate at first. Each round keeps the candidates
    whose next symbol is their row's least, then drops each candidate that
    lies within the matched length of an earlier one: if starts
    i < j <= i + matched both match the least prefix and R_j < R_i, their
    first mismatch lies past j - i, so R_(2j-i) < R_j (Booth's skip) and j
    is not least either. The smallest least start therefore survives,
    candidates lie more than the matched length apart, and every row is
    done within P rounds.
    """
    count, n = rows.shape
    if not rows.size:
        return np.zeros(count, dtype=np.int64)
    row, start = np.nonzero(rows == rows.min(axis=1, keepdims=True))
    matched = 1
    while True:
        keep = np.concatenate(([True], (row[1:] != row[:-1]) | (start[1:] - start[:-1] > matched)))
        row, start = row[keep], start[keep]
        if row.size == count:
            return start
        vals = rows[row, (start + matched) % n]
        first = _run_starts(row)
        least = np.minimum.reduceat(vals, first)
        keep = vals == np.repeat(least, np.diff(first, append=row.size))
        row, start = row[keep], start[keep]
        matched += 1


def _rotation_keys(rows: np.ndarray) -> tuple[list[bytes], np.ndarray]:
    """Each row's least rotation as bytes, equal for exactly the shifts of a row, and its start."""
    starts = _least_rotations(rows)
    period = rows.shape[1]
    canonical = np.take_along_axis(rows, (starts[:, None] + np.arange(period)) % period, axis=1)
    return [row.tobytes() for row in canonical], starts


def _key_index(keys: list[bytes]) -> tuple[dict[bytes, int], tuple[int, int] | None]:
    """Each key's first row, and the first pair of rows with one key; the index is complete if there is none."""
    index: dict[bytes, int] = {}
    for i, key in enumerate(keys):
        first = index.setdefault(key, i)
        if first != i:
            return index, (first, i)
    return index, None


def _shift_witness(sequences, pair: tuple[int, int] | None) -> tuple[bool, dict | None]:
    """The inequivalence verdict for the pair from _key_index, with the smallest shift that matches it."""
    if pair is None:
        return True, None
    first, idx = pair
    a, b = sequences[first], sequences[idx]
    for tau in range(b.period):
        if np.array_equal(a.symbols, np.roll(b.symbols, -tau)):
            return False, {"index1": first, "c1": a.c, "l1": a.l, "index2": idx, "c2": b.c, "l2": b.l, "tau": tau}
    raise InternalCheckError("canonical rotations collided without a shift match")


def cyclic_inequivalence(family) -> tuple[bool, dict | None]:
    """True iff no two distinct members are cyclic shifts of one another.

    Works by exact symbol comparison (canonical-rotation bucketing plus a
    direct shift search on collisions), independent of the correlation
    machinery; max_correlation reports the same verdict from the same
    two steps. Raises ParameterError when the sequences differ in period
    or in M.
    """
    sequences = family.sequences if isinstance(family, SequenceFamily) else tuple(family)
    if not sequences:
        return True, None
    if len({s.period for s in sequences}) > 1:
        raise ParameterError("period mismatch")
    if len({s.M for s in sequences}) > 1:
        raise ParameterError("alphabet mismatch")
    keys, _ = _rotation_keys(np.vstack([np.asarray(s.symbols, dtype=np.int64) for s in sequences]))
    return _shift_witness(sequences, _key_index(keys)[1])


def empirical_character_sum(ctx: FieldContext, M: int, terms) -> complex:
    """Direct sum over all field elements of a product of character values.

    terms is an iterable of (poly, power, coeff): each factor is the
    order-M character raised to `power`, evaluated at coeff * poly(x),
    under the value-1-at-zero convention.
    """
    if (ctx.q - 1) % M != 0:
        raise ParameterError("M must divide q-1")
    terms = list(terms)
    for _, power, coeff in terms:
        if power % M == 0:
            raise ParameterError("characters must be nontrivial")
        if coeff == 0:
            raise ParameterError("polynomial coefficients must be nonzero")
    return _character_sum(ctx, M, 0, [(poly, power % M, coeff) for poly, power, coeff in terms])


def _character_sum(ctx: FieldContext, M: int, phase: int, terms) -> complex:
    """Sum over x in ctx of w**(phase + the sum of power * log(coeff * poly(x))), w = exp(2j*pi/M).

    terms holds (poly, power, coeff) with 0 <= power < M; log(0) = 0. The
    exponents are summed in int64: power * log, with the log read from the
    int32 table, passes 2**31 once M * q does (M = 65535 at q = 2**16).
    """
    xs = np.arange(ctx.q, dtype=np.int64)
    total = np.full(ctx.q, phase, dtype=np.int64)
    for poly, power, coeff in terms:
        vals = ctx.mul_arr(np.int64(coeff), polys.eval_arr(ctx, poly, xs))
        total += power * ctx.log[vals].astype(np.int64)
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
    base, d = ext.base, ext.d
    cp1 = column_polynomial(ext, l1)
    shifted = shifted_column_polynomial(ext, l2, tau)

    k1 = (c1 * (d // cp1.min_poly_degree)) % M
    k2 = (-c2 * (d // (len(shifted) - 1))) % M
    phase0 = (c1 * l1 - c2 * l2 - c2 * d * tau) % M
    return _character_sum(base, M, phase0, [(cp1.min_poly, k1, 1), (shifted, k2, 1)]) - 1.0
