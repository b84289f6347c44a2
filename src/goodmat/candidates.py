"""Candidate row generation: the 2^d brute-force sweep with PSD filtering.

For each of the 2^d free-entry assignments X we form the skew row
A = (1, X, −rev X) and the symmetric row B = (1, X, rev X).  compress3(A)
enters s_sk iff PSD_A(k) ≤ 4n + ε for all k; compress3(B) enters s_sy iff it
passes the same PSD bound AND rowsum(B) occurs as a component of some signed
rowsum triple.  Both sets are deduplicated by exact entrywise equality only —
equivalence-level reduction happens later, at the compressed-quad stage.

No full row is ever built.  The mirror symmetry gives real closed forms
(spectral.mirror_psd): PSD_B(k) = (1 + c_k)² and PSD_A(k) = 1 + s_k² with
c_k = 2Σ x_j cos(2πjk/n) and s_k = 2Σ x_j sin(2πjk/n), both linear in X.
So are rowsum(B) = 1 + 2Σ x_j and the integer code (equiv.row_codes) of
either compressed row.  The d free signs split into L = min(_LOW_BITS, d)
low bits and d − L high bits: one table over the 2^L low patterns holds their
c|s contributions, rowsums and codes, and each block of one high pattern is
that table plus one offset vector: an add, not a matmul.  The survivors'
codes (exact int64) are reduced to distinct values per block and across
blocks, and only those are decoded to rows.  The float masks only screen;
the result does not depend on L.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

from .diophantine import RowsumTriple, rowsum_components
from .equiv import _place_values, decode_rows, row_codes
from .errors import InvalidInputError
from .seqcore import Row
from .spectral import EPS, half_basis

#: Free signs enumerated by the low-pattern table; the rest index its blocks.
_LOW_BITS = 15

#: Per-block unique code arrays held before they are merged into one.
_MERGE_EVERY = 64


@dataclass(frozen=True)
class CandidateSets:
    """Compressed candidate rows surviving step 2: s_sk skew, s_sy symmetric."""

    s_sk: frozenset[Row]
    s_sy: frozenset[Row]
    n: int
    m: int
    d: int


def generate_candidates(
    n: int,
    rowsums: frozenset[RowsumTriple],
    *,
    eps: float = EPS,
    psd_filter: bool = True,
    rowsum_filter: bool = True,
) -> CandidateSets:
    """Run the 2^d sweep for order n (odd, divisible by 3, at most 93)."""
    if n < 3 or n % 2 == 0 or n % 3 != 0:
        raise InvalidInputError(f"order must be odd, >= 3 and divisible by 3, got {n}")
    m, d = n // 3, n // 2
    place = _place_values(m)  # raises for m > 31: the codes would not fit an int64
    if not rowsums:
        return CandidateSets(frozenset(), frozenset(), n, m, d)

    # Code weights: flipping x_j from +1 to −1 lowers entry j by 2, so the
    # digit (3 − e)/2 of compressed entry j mod m gains 1.  The mirror entry
    # n − j falls with it in a symmetric row and rises in a skew row.
    j = np.arange(1, d + 1)
    code_sy = place[j % m] + place[(n - j) % m]
    code_sk = place[j % m] - place[(n - j) % m]
    plus = np.ones(d, dtype=np.int64)  # X = +1: the codes every flip starts from
    all_plus = np.array([np.r_[1, plus, plus], np.r_[1, plus, -plus]])
    base_sy, base_sk = row_codes(all_plus.reshape(2, 3, m).sum(axis=1)).tolist()

    # spectrum rows 0..d hold 1 + c_k (symmetric), rows d+1..2d+1 hold s_k (skew)
    bound = 4 * n + eps
    limit = np.repeat([bound, bound - 1.0], d + 1) if psd_filter else np.full(2 * d + 2, np.inf)
    first = np.repeat([1.0, 0.0], d + 1)  # the x_0 = 1 term of 1 + c_k
    total = np.arange(-d, d + 1)  # Σ x_j; the symmetric row's rowsum is 1 + 2Σ x_j
    allowed = np.isin(1 + 2 * total, sorted(rowsum_components(rowsums))) | (not rowsum_filter)

    low = min(_LOW_BITS, d)
    basis = half_basis(n)
    bits = (np.arange(1 << low)[:, None] >> np.arange(low)) & 1  # bit i set: x_{i+1} = −1
    table = basis[:low].T @ (1 - 2 * bits.T)  # (2(d+1) × 2^low), one low pattern per column
    rs_low = low - 2 * bits.sum(axis=1)
    # the distinct low-pattern codes (high bits all 0), and which one each pattern has
    codes_sy, where_sy = np.unique(bits @ code_sy[:low] + base_sy, return_inverse=True)
    codes_sk, where_sk = np.unique(bits @ code_sk[:low] + base_sk, return_inverse=True)

    found_sy: list[np.ndarray] = []
    found_sk: list[np.ndarray] = []
    spec = np.empty_like(table)
    ok = np.empty(table.shape, dtype=bool)
    for high in range(1 << (d - low)):
        signs = _high_signs(high, d, low)
        high_bits = (1 - signs) // 2
        np.add(table, (signs @ basis[low:] + first)[:, None], out=spec)
        np.multiply(spec, spec, out=spec)
        np.less_equal(spec, limit[:, None], out=ok)
        keep_sy = np.logical_and.reduce(ok[: d + 1], axis=0)
        keep_sy &= allowed[rs_low + int(signs.sum()) + d]
        keep_sk = np.logical_and.reduce(ok[d + 1 :], axis=0)
        found_sy.append(_distinct(codes_sy, where_sy, keep_sy, int(high_bits @ code_sy[low:])))
        found_sk.append(_distinct(codes_sk, where_sk, keep_sk, int(high_bits @ code_sk[low:])))
        if len(found_sy) == _MERGE_EVERY:
            found_sy = [np.unique(np.concatenate(found_sy))]
            found_sk = [np.unique(np.concatenate(found_sk))]
    return CandidateSets(
        frozenset(decode_rows(np.unique(np.concatenate(found_sk)), m)),
        frozenset(decode_rows(np.unique(np.concatenate(found_sy)), m)),
        n, m, d,
    )


def _distinct(codes: np.ndarray, where: np.ndarray, keep: np.ndarray, shift: int) -> np.ndarray:
    """codes[where[keep]] + shift, each value once, ascending."""
    hit = np.zeros(len(codes), dtype=bool)
    hit[where[keep]] = True
    return codes[hit] + shift


def _high_signs(high: int, d: int, low: int) -> np.ndarray:
    """Signs x_{low+1}..x_d of high pattern `high` (a Python int, any width):
    bit i of `high` is bit low + i of the sweep counter, 1 meaning −1."""
    return np.array([1 - 2 * ((high >> i) & 1) for i in range(d - low)], dtype=np.int64)


# ── optional on-disk spill ──────────────────────────────────────────────────

def write_compressed_rows(fp: TextIO, rows: Iterable[Row]) -> None:
    """One compressed row per line as comma-separated integers."""
    for row in rows:
        fp.write(",".join(str(e) for e in row) + "\n")

