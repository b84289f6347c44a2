"""Core sequence types: ±1 defining rows, skew/symmetric construction,
3-compression, and the row formats: ±-strings for defining rows,
comma-separated integers for compressed rows; write_file writes every output file.

A circulant matrix is determined by its first ("defining") row, so the whole
search works on rows.  A quad (A, B, C, D) of defining rows is the search
object: A generates a skew circulant (a_0 = 1, a_i = -a_{n-i}) and B, C, D
generate symmetric circulants (x_i = x_{n-i}).  For odd n every such row is
determined by its d = floor(n/2) free entries at indices 1..d, which is what
the generators below take as input.

3-compression maps a length-n row (3 | n) to the length-m row, m = n/3, whose
k-th entry is x_k + x_{k+m} + x_{k+2m} in {-3, -1, +1, +3}.  Rowsums are
preserved, and skewness/symmetry descend to the compressed row.

Index arithmetic is always modulo n with representatives in {0, ..., n-1}.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

from .errors import InvalidInputError, ParseError

Row = tuple[int, ...]

PLUS, MINUS = 1, -1
_GLYPHS = {"+": PLUS, "-": MINUS, "−": MINUS}  # accept typographic minus


class DefiningQuad(NamedTuple):
    """Defining rows (A, B, C, D) of four circulant ±1 matrices."""

    a: Row
    b: Row
    c: Row
    d: Row

    @property
    def n(self) -> int:
        return len(self.a)

    def rows(self) -> tuple[Row, Row, Row, Row]:
        return (self.a, self.b, self.c, self.d)


class CompressedQuad(NamedTuple):
    """3-compressions (Ac, Bc, Cc, Dc) of a quad's defining rows."""

    ac: Row
    bc: Row
    cc: Row
    dc: Row

    @property
    def m(self) -> int:
        return len(self.ac)

    def rows(self) -> tuple[Row, Row, Row, Row]:
        return (self.ac, self.bc, self.cc, self.dc)


# ── validation ──────────────────────────────────────────────────────────────

def validate_pm(row: Sequence[int]) -> Row:
    """Check a ±1 sequence of length ≥ 1 and return it as a tuple."""
    out = tuple(row)
    if len(out) < 1:
        raise InvalidInputError("row must be nonempty")
    if any(e not in (PLUS, MINUS) for e in out):
        raise InvalidInputError(f"row entries must be +1 or -1: {out!r}")
    return out


def is_skew(row: Sequence[int]) -> bool:
    """True iff row[0] = 1 and row[i] = -row[n-i] for 1 <= i < n."""
    n = len(row)
    return row[0] == PLUS and all(row[i] == -row[n - i] for i in range(1, n))


def is_symmetric(row: Sequence[int]) -> bool:
    """True iff row[i] = row[n-i] for 1 <= i < n (first entry unconstrained)."""
    n = len(row)
    return all(row[i] == row[n - i] for i in range(1, n))


def validate_quad(quad: DefiningQuad) -> DefiningQuad:
    """Check the structural invariants of a defining quad."""
    n = quad.n
    if n % 2 == 0:
        raise InvalidInputError(f"quad order must be odd, got {n}")
    for label, row in zip("ABCD", quad.rows()):
        validate_pm(row)
        if len(row) != n:
            raise InvalidInputError(f"row {label} has length {len(row)} != {n}")
        if row[0] != PLUS:
            raise InvalidInputError(f"row {label} must start with +1")
    if not is_skew(quad.a):
        raise InvalidInputError("row A is not skew")
    for label, row in zip("BCD", quad.rows()[1:]):
        if not is_symmetric(row):
            raise InvalidInputError(f"row {label} is not symmetric")
    return quad


# ── construction ────────────────────────────────────────────────────────────

def make_skew(half: Sequence[int], n: int) -> Row:
    """Build the skew row (1, x_1..x_d, -x_d..-x_1) from its d free entries."""
    half = _free_entries(half, n)
    return (PLUS,) + half + tuple(-e for e in reversed(half))


def make_symmetric(half: Sequence[int], n: int) -> Row:
    """Build the symmetric row (1, x_1..x_d, x_d..x_1) from its d free entries."""
    half = _free_entries(half, n)
    return (PLUS,) + half + tuple(reversed(half))


def _free_entries(half: Sequence[int], n: int) -> Row:
    """Check the d = ⌊n/2⌋ free ±1 entries of a mirror row of odd order n."""
    if n < 1 or n % 2 == 0:
        raise InvalidInputError(f"order must be odd and positive, got {n}")
    half = tuple(half)
    if len(half) != n // 2:
        raise InvalidInputError(f"need {n // 2} free entries for n={n}, got {len(half)}")
    if any(e not in (PLUS, MINUS) for e in half):
        raise InvalidInputError("free entries must be +1 or -1")
    return half


def compress3(x: Sequence[int]) -> Row:
    """3-compression: entry k is x_k + x_{k+m} + x_{k+2m} with m = n/3."""
    n = len(x)
    if n % 3 != 0:
        raise InvalidInputError(f"length must be divisible by 3, got {n}")
    m = n // 3
    return tuple(x[k] + x[k + m] + x[k + 2 * m] for k in range(m))


# ── ±-string format ─────────────────────────────────────────────────────────

def parse_row(text: str) -> Row:
    """Parse a ±-string ('+' → +1, '-' or '−' → -1) into a row."""
    out = []
    for pos, ch in enumerate(text.strip()):
        try:
            out.append(_GLYPHS[ch])
        except KeyError:
            raise ParseError(
                f"invalid character {ch!r} in row string (at position {pos})"
            ) from None
    if not out:
        raise ParseError("empty row string")
    return tuple(out)


def format_row(x: Sequence[int]) -> str:
    """Render a row as an ASCII ±-string."""
    for e in x:
        if e not in (PLUS, MINUS):
            raise InvalidInputError(f"cannot format entry {e!r}; expected +1 or -1")
    return "".join("+" if e == PLUS else "-" for e in x)


def format_int_row(x: Sequence[int]) -> str:
    """Render a row as comma-separated integers: the format of compressed
    rows in s_sk.txt, s_sy.txt and s_q.txt."""
    return ",".join(map(str, x))


def write_quads(fp: TextIO, quads: Iterable[Sequence[Row]], fmt: Callable = format_row) -> None:
    """The one writer of the blank-line block format: each quad as four
    consecutive lines A, B, C, D and a blank line (any block of rows, such
    as a matrix, the same way); fmt renders one row (±-strings by default).
    Row files, solution digests and instance fingerprints all come from it."""
    for quad in quads:
        for row in quad:
            fp.write(fmt(row) + "\n")
        fp.write("\n")


def write_file(path: Path, write: Callable[[TextIO], object]) -> None:
    """The one writer of output files: write(fp) fills `.<name>.partial` beside
    path, which then replaces path, so no partial file ever bears path's name.
    If write raises, the partial file is removed and path left as it was."""
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f".{path.name}.partial")
    try:
        with open(partial, "w") as fp:
            write(fp)
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)  # left only if write raised


def read_quads(fp: TextIO, validate: bool = True) -> list[DefiningQuad]:
    """Parse the blank-line separated four-row blocks that write_quads writes.

    A line that is not a ±-string, a block of another size or one that mixes
    row lengths raises ParseError.  validate=False defers invariant checking
    to callers (used by `verify`, where a malformed quad is a verification
    failure, not a parse error).
    """
    blocks: list[list[Row]] = [[]]
    for lineno, line in enumerate(fp, start=1):
        line = line.strip()
        if line:
            try:
                blocks[-1].append(parse_row(line))
            except ParseError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
        elif blocks[-1]:
            blocks.append([])
    quads = []
    for number, block in enumerate(filter(None, blocks), start=1):
        if len(block) != 4:
            raise ParseError(f"block {number} has {len(block)} rows, expected 4")
        if len({len(row) for row in block}) != 1:
            raise ParseError(f"block {number} mixes row lengths")
        quads.append(validate_quad(DefiningQuad(*block)) if validate else DefiningQuad(*block))
    return quads


def iter_halves(d: int) -> Iterator[Row]:
    """All 2^d free-entry assignments, in plain binary counting order.

    Bit i of the counter gives entry i: 0 → +1, 1 → -1.
    """
    for bits in range(1 << d):
        yield tuple(MINUS if (bits >> i) & 1 else PLUS for i in range(d))
