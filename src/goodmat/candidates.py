"""Candidate row generation: a compressed sweep with PSD and rowsum screens.

A compressed row X′ of length m = n/3 is the 3-compression of a skew row
A = (1, X, −rev X) or a symmetric row B = (1, X, rev X): entry k is
x_k + x_{k+m} + x_{k+2m} (Đoković and Kotsireas, Des. Codes Cryptogr. 2015).
The mirror x_{n−j} = ±x_j ties group k to group m − k, so only groups
0..(m−1)/2 are free.  Group 0 holds x_0 = +1 and x_{2m} = ±x_m: its image is
1 in a skew row, 3 or −1 in a symmetric row; every other group is ±1 or ±3.
So the sweep

  (i)   tabulates, once, the half-basis projection and rowsum of the low
        L = ⌊log₄ _ROW_BLOCK⌋ base-4 digits of an image row's number and of
        its high index: both are affine in the digits, so a row's is the sum;
  (ii)  screens the 4^L lines of each high index (4^((m−1)/2) skew rows,
        twice as many symmetric) from the tables, keeping a skew row in s_sk
        iff its own PSD stays within 4n + EPS at every k′, and a symmetric
        row in s_sy iff it does AND its rowsum occurs as a component of some
        signed rowsum triple; it builds rows only for the lines it keeps.

Both screens drop no row with a good preimage X: PSD_X(3k′) = PSD_X′(k′) and
rowsum(X) = rowsum(X′).  The full-length PSD bound is applied where
uncompression builds the preimages (uncompress.preimage_table); a kept row
none of whose preimages passes it gets an empty group there and reaches no
quad.  At every order 3 … 69 each kept row has such a preimage.  The kept
rows stay int8 arrays in sweep order, and they are distinct by construction:
_image_rows is injective in the index and the sweep visits each index once.
Equivalence-level reduction happens later, at the compressed-quad stage.  The
float masks only screen: a table sum reorders mirror_psd's terms (≈ 1e-12 ≪
EPS); test digests pin the sets.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diophantine import RowsumTriple, rowsum_components
from .errors import InvalidInputError
from .seqcore import Row
from .spectral import half_basis, psd_bound

#: Compressed rows per screen block, and preimage rows per block of lines.
_ROW_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class CandidateSets:
    """Compressed candidate rows surviving step 2 as int8 (N × m) arrays of
    distinct rows in sweep order (no consumer reads the order): sk skew, sy
    symmetric.  s_sk and s_sy build their frozensets of row tuples on each
    call, for callers that want sets; the pipeline reads the arrays."""

    sk: np.ndarray
    sy: np.ndarray
    n: int
    m: int

    @property
    def s_sk(self) -> frozenset[Row]:
        return frozenset(zip(*self.sk.T.tolist()))

    @property
    def s_sy(self) -> frozenset[Row]:
        return frozenset(zip(*self.sy.T.tolist()))


def check_order(n: int) -> None:
    """InvalidInputError unless n is odd, ≥ 3, divisible by 3 and n/3 ≤ 31,
    the most base-4 digits an int64 row code (equiv.row_codes) holds."""
    if n < 3 or n % 2 == 0 or n % 3 != 0:
        raise InvalidInputError(f"order must be odd, >= 3 and divisible by 3, got {n}")
    if n // 3 > 31:
        raise InvalidInputError(f"row length {n // 3} exceeds 31, all an int64 row code holds")


def generate_candidates(
    n: int,
    rowsums: frozenset[RowsumTriple],
    *,
    psd_filter: bool = True,
    rowsum_filter: bool = True,
) -> CandidateSets:
    """Run the compressed sweep for order n (check_order).

    psd_filter=False sweeps against the bound +inf, which every row meets;
    rowsum_filter=False admits every rowsum."""
    check_order(n)
    m = n // 3
    if not rowsums:
        none = np.empty((0, m), dtype=np.int8)
        return CandidateSets(none, none, n, m)
    bound = psd_bound(n, psd_filter)
    allowed = sorted(rowsum_components(rowsums)) if rowsum_filter else None
    return CandidateSets(_sweep(m, True, bound, None), _sweep(m, False, bound, allowed), n, m)


def _sweep(m: int, skew: bool, bound: float, rowsums: list[int] | None) -> np.ndarray:
    """The compressed rows of one skewness whose PSD stays within bound at
    every k and, unless rowsums is None, whose rowsum is one of rowsums, as
    an int8 (N × m) array in line order; line h·4^L + l joins low digits l
    (groups 1..L) to high index h."""
    free = (m - 1) // 2
    low = min(free, (_ROW_BLOCK.bit_length() - 1) // 2)  # L = ⌊log₄ _ROW_BLOCK⌋
    basis = half_basis(m)[:, free + 1 :] if skew else half_basis(m)[:, : free + 1]
    lows = _image_rows(np.arange(1 << 2 * low), m, skew)[:, 1 : low + 1]
    highs = _image_rows(np.arange((1 if skew else 2) << 2 * (free - low)) << 2 * low, m, skew)
    t_low = (lows @ basis[:low]).T  # plane-major: one line per k
    t_high = highs[:, low + 1 : free + 1] @ basis[low:] + (0 if skew else highs[:, :1])
    allowed = np.isin(np.arange(-3 * m, 3 * m + 1), rowsums or [])  # rowsum r at 3m + r
    rs_low = 3 * m + 2 * lows.sum(axis=1)
    rs_high = highs[:, 0] + 2 * highs[:, low + 1 : free + 1].sum(axis=1)
    kept = []
    for h in range(len(highs)):
        keep = ((t_low + t_high[h, :, None]) ** 2 <= bound - skew).all(axis=0)  # skew: 1 + proj²
        if rowsums is not None:
            keep &= allowed[rs_low + rs_high[h]]
        kept.append((h << 2 * low) + np.flatnonzero(keep))
    return _image_rows(np.concatenate(kept), m, skew)


def _image_rows(index: np.ndarray, m: int, skew: bool) -> np.ndarray:
    """Compressed image rows number `index`: base-4 digit k − 1 gives free
    group k the value 3 − 2·digit, the bit above them picks 3 or −1 for B′_0.
    The sweep reads its digit tables off such rows and builds the kept ones."""
    free = (m - 1) // 2
    rows = np.empty((len(index), m), dtype=np.int8)
    rows[:, 0] = 1 if skew else 3 - 4 * (index >> 2 * free)
    rows[:, 1 : free + 1] = 3 - 2 * ((index[:, None] >> 2 * np.arange(free)) & 3)
    rows[:, : free : -1] = (-1 if skew else 1) * rows[:, 1 : free + 1]
    return rows
