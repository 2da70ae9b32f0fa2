"""M-ary Sidelnikov sequences and order-M multiplicative characters.

Symbols are computed from the field log tables with the log(0) = 0
convention, so the character value at zero is 1 and the symbol at the
index where the generator power hits -1 is 0.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .fields import ExtensionContext, FieldContext


@dataclass(frozen=True, eq=False)
class MSequence:
    """An M-ary sequence of period len(symbols), with the (q, d, l, c) it was built under.

    l is the array column it comes from, -1 for a sequence tied to no
    single column, and c the multiple of that column.
    """

    symbols: np.ndarray
    M: int
    q: int
    d: int = 1
    l: int = -1
    c: int = 1

    def __post_init__(self):
        sym = np.asarray(self.symbols, dtype=np.int64)
        sym.setflags(write=False)
        object.__setattr__(self, "symbols", sym)
        if sym.ndim != 1:
            raise ParameterError("symbols must be a 1-D array")
        if sym.size and (sym.min() < 0 or sym.max() >= self.M):
            raise ParameterError("symbols must lie in [0, M)")

    @property
    def period(self) -> int:
        return self.symbols.size

    def shifted(self, tau: int) -> "MSequence":
        """Cyclic shift: result(t) = self(t + tau)."""
        return MSequence(np.roll(self.symbols, -tau), self.M, self.q, self.d, self.l, self.c)

    def header(self) -> str:
        return f"# q={self.q} d={self.d} M={self.M} l={self.l} c={self.c}"


def check_alphabet(q: int, M: int) -> None:
    if M < 2:
        raise ParameterError("M must be >= 2")
    if (q - 1) % M != 0:
        raise ParameterError(f"M must divide q-1 (q={q}, M={M})")


def sidelnikov_sequence(ctx: FieldContext, M: int) -> MSequence:
    """Base sequence of period q-1: s(t) = log(beta**t + 1) mod M."""
    check_alphabet(ctx.q, M)
    shifted = ctx.add_arr(ctx.exp, 1)
    symbols = ctx.log[shifted] % M
    return MSequence(symbols, M, ctx.q, l=0)


def sidelnikov_sequence_via_cosets(ctx: FieldContext, M: int) -> MSequence:
    """Same sequence built from the coset-membership definition.

    Classifies beta**t by which set {beta**(M*j+k) - 1} it falls in;
    kept as an independent route for identity testing against the log
    formula.
    """
    check_alphabet(ctx.q, M)
    q = ctx.q
    klass = np.zeros(q, dtype=np.int64)
    minus_one = ctx.neg(1)
    members = ctx.add_arr(ctx.exp, np.full(q - 1, minus_one, dtype=np.int64))
    klass[members] = np.arange(q - 1) % M
    symbols = klass[ctx.exp].copy()
    symbols[ctx.exp == minus_one] = 0
    return MSequence(symbols, M, q, l=0)


def sidelnikov_sequence_ext(ext: ExtensionContext, M: int) -> MSequence:
    """Period q**d-1 sequence, computed through the norm to the base field.

    Deliberately routes through log(N(alpha**t + 1)) rather than the
    extension log so the direct-definition route stays available as an
    independent cross-check.
    """
    check_alphabet(ext.q, M)
    shifted = ext.add_arr(ext.exp, 1)
    norms = ext.norm_arr(shifted)
    symbols = ext.base.log[norms] % M
    return MSequence(symbols, M, ext.q, ext.d)


def sidelnikov_sequence_ext_direct(ext: ExtensionContext, M: int) -> MSequence:
    """Direct definition over the big field: s(t) = log_alpha(alpha**t + 1) mod M."""
    check_alphabet(ext.q, M)
    shifted = ext.add_arr(ext.exp, 1)
    symbols = ext.log[shifted] % M
    return MSequence(symbols, M, ext.q, ext.d)


@dataclass(frozen=True)
class Character:
    """Multiplicative character of order M with the value-1-at-zero convention."""

    M: int
    field: FieldContext = field(repr=False)

    def __post_init__(self):
        check_alphabet(self.field.size, self.M)

    def value(self, x: int) -> complex:
        return complex(np.exp(2j * np.pi * (self.field.dlog(x) % self.M) / self.M))


_FORMAT_CHUNK = 1 << 16  # symbols per joined piece: one str per symbol of a 2**24-symbol line takes about 1 GB


def format_sequence(seq: MSequence) -> str:
    sym = seq.symbols
    pieces = (",".join(map(str, sym[lo : lo + _FORMAT_CHUNK].tolist())) for lo in range(0, sym.size, _FORMAT_CHUNK))
    return seq.header() + "\n" + ",".join(pieces)


def write_sequences(fp, sequences) -> None:
    """Export format: a header line then a comma-separated symbol line per sequence."""
    for seq in sequences:
        fp.write(format_sequence(seq) + "\n")


def _ints(tokens: list[str], what: str) -> list[int]:
    try:
        return [int(tok) for tok in tokens]
    except ValueError as exc:  # its message names the bad token
        raise ParameterError(f"non-integer {what}: {exc}") from None


def _parse_header(line: str) -> dict[str, int]:
    keys, values = [], []
    for token in line[1:].split():
        key, eq, value = token.partition("=")
        if not eq:
            raise ParameterError(f"header token {token!r} is not key=value")
        keys.append(key)
        values.append(value)
    header = dict(zip(keys, _ints(values, "header value")))
    missing = [key for key in ("q", "d", "M", "l", "c") if key not in header]
    if missing:
        raise ParameterError(f"header lacks {', '.join(missing)}: {line}")
    return header


def read_sequences(fp) -> list[MSequence]:
    """Parse the export format back into MSequence values.

    Malformed input (a header token without '=', a missing or
    non-integer header value, a non-integer symbol, a symbol line with
    no header or a header with no symbol line) raises ParameterError.
    """
    out = []
    header = None
    for line in fp:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if header is not None:
                raise ParameterError("header without a symbol line")
            header = _parse_header(line)
            continue
        if header is None:
            raise ParameterError("symbol line without a preceding header")
        symbols = np.array(_ints(line.split(","), "symbol"), dtype=np.int64)
        out.append(MSequence(symbols, header["M"], header["q"], header["d"], header["l"], header["c"]))
        header = None
    if header is not None:
        raise ParameterError("header without a symbol line")
    return out
