"""Equivalence operations and canonical representatives.

Two quads of defining rows generate equivalent good matrices when one is
reachable from the other by compositions of three operations:

  1. reorder B, C, D arbitrarily;
  2. negate any of B, C, D;
  3. apply an index automorphism y_i = x_{u·i mod n} with gcd(u, n) = 1
     to all four rows simultaneously.

The canonical representative of a quad is the minimum of its orbit under a
fixed global order: entries compare +1 < −1 (and +3 < +1 < −1 < −3 for
compressed entries), rows compare lexicographically, quads compare on the
concatenation A‖B‖C‖D.  This matches byte order of the on-disk ±-string
format ('+' < '-'), so sorted row files and sorted in-memory lists agree.

Because negation is undone by sign normalization, the minimum over the full
orbit equals the minimum over automorphisms of the sign-normalized, sorted
quad — which is what canonical_forms computes, for many quads at once.

Compressed quads have their own, smaller group (negation is unavailable:
first entries stay pinned at +1 during the search): reorders of Bc, Cc, Dc
and the induced index action j ↦ u·j mod m.  Every unit u mod n induces
u mod m, and conversely every unit mod m lifts to one mod n (m | n), so
acting with all units mod m is exactly the induced action, not a proxy.
The compressed canonical form compares A′ first, and reorders leave A′
alone, so its A′ is the minimum of A′'s orbit under the units: matching may
skip every A′ that is not (orbit_minimal), since the canonical quad of each
class keeps its place in S_q.

The compressed stages work on integer row codes instead of tuples: the code
of a row is the base-4 number whose digits, most significant first, are
(3 − e)/2 — so +3, +1, −1, −3 become 0, 1, 2, 3 (and a ±1 row uses 1, 2).
Rows of one length have equally many digits, so numeric order on codes is
exactly row_key order, and lexicographic order on (A, B, C, D) code rows is
exactly quad_key order.  An int64 holds 31 base-4 digits, so codes need
m ≤ 31 (n ≤ 93); longer rows raise InvalidInputError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .errors import InvalidInputError
from .seqcore import CompressedQuad, DefiningQuad, Row

T = TypeVar("T")


# ── the global order ────────────────────────────────────────────────────────

def row_key(row: Sequence[int]):
    """Sort key realizing +3 < +1 < −1 < −3 entrywise, then left-to-right."""
    return tuple(-e for e in row)


def quad_key(quad: Sequence[Sequence[int]]):
    """Sort key for quads: the global order on A‖B‖C‖D."""
    return tuple(-e for row in quad for e in row)


#: Quads per block in canonical_codes, so its temporaries stay small.
_CANON_CHUNK = 4096

#: Quads per block in canonical_forms: each holds |units(n)|·4 rows of length n.
_FORMS_CHUNK = 512


def _place_values(m: int) -> np.ndarray:
    if m > 31:  # 31 base-4 digits fill 62 bits of an int64
        raise InvalidInputError(f"row length {m} exceeds 31, the most an int64 row code holds")
    return 4 ** np.arange(m - 1, -1, -1, dtype=np.int64)


def row_codes(rows: np.ndarray) -> np.ndarray:
    """Integer codes of the rows along the last axis: numeric order = row_key order."""
    rows = np.asarray(rows, dtype=np.int64)
    return ((3 - rows) // 2) @ _place_values(rows.shape[-1])


def _code_digits(codes: np.ndarray, m: int) -> np.ndarray:
    """The base-4 digits of length-m row codes, as int8 along a new last axis."""
    return (codes[..., None] // _place_values(m) % 4).astype(np.int8)


def decode_quads(codes: np.ndarray, m: int) -> list[CompressedQuad]:
    """The compressed quads of an (N × 4) code array, in its row order, each code decoded once."""
    distinct, index = np.unique(np.reshape(codes, -1), return_inverse=True)
    rows = list(map(tuple, (3 - 2 * _code_digits(distinct, m).astype(np.int64)).tolist()))
    flat = [rows[i] for i in index.tolist()]
    return [CompressedQuad(*flat[i : i + 4]) for i in range(0, len(flat), 4)]


# ── the operations ──────────────────────────────────────────────────────────

def negate_row(row: Sequence[int]) -> Row:
    return tuple(-e for e in row)


def normalize_signs_and_order(quad: DefiningQuad) -> DefiningQuad:
    """Negate B, C, D to positive first entries, then sort them; A unchanged."""
    a, b, c, d = quad.rows()
    fixed = [negate_row(x) if x[0] < 0 else tuple(x) for x in (b, c, d)]
    fixed.sort(key=row_key)
    return DefiningQuad(tuple(a), *fixed)


@lru_cache(maxsize=None)
def units(n: int) -> tuple[int, ...]:
    """The units modulo n (automorphism multipliers)."""
    if n == 1:
        return (1,)
    return tuple(u for u in range(1, n) if gcd(u, n) == 1)


def permute_row(row: Sequence[int], u: int) -> Row:
    """y_i = x_{u·i mod n}."""
    n = len(row)
    return tuple(row[(u * i) % n] for i in range(n))


def apply_automorphism(quad: DefiningQuad, u: int) -> DefiningQuad:
    """Apply y_i = x_{u·i mod n} to all four rows; needs gcd(u, n) = 1."""
    n = quad.n
    if gcd(u, n) != 1:
        raise InvalidInputError(f"{u} is not a unit modulo {n}")
    return DefiningQuad(*(permute_row(r, u) for r in quad.rows()))


# ── canonical forms ─────────────────────────────────────────────────────────

@dataclass(frozen=True)
class CanonicalQuad:
    """A defining quad that is the minimum of its full equivalence orbit."""

    quad: DefiningQuad

    def sort_key(self):
        return quad_key(self.quad)


def canonical_form(quad: DefiningQuad) -> CanonicalQuad:
    """Minimum over all automorphisms of the sign/order-normalized quad
    (canonical_forms of the one quad)."""
    return canonical_forms([quad])[0]


def canonical_forms(quads: Sequence[DefiningQuad]) -> list[CanonicalQuad]:
    """canonical_form of every quad of one order, in array passes.

    B, C, D are sign-normalized once: x_0 is fixed by every unit, so the
    negation normalize_signs_and_order picks does not depend on u.  Then, in
    blocks of _FORMS_CHUNK quads, every row is permuted by every unit and
    keyed by its −1 bits, packed first entry first (np.packbits), so that
    lexicographic order on the key bytes is row_key order on the rows.  The
    distinct keys of a block are ranked in that order (np.unique), and the
    ranks go through canonical_codes' sort network and lexicographic minimum
    over the units.
    """
    quads = list(quads)
    lengths = {len(row) for quad in quads for row in quad}
    if len(lengths) > 1:
        raise InvalidInputError(f"quads mix row lengths {sorted(lengths)}")
    if not quads:
        return []
    n = lengths.pop()
    rows = np.array(quads, dtype=np.int8).reshape(len(quads), 4, n)
    rows[:, 1:] *= rows[:, 1:, :1]  # B, C, D to first entry +1
    perms = np.array([(u * np.arange(n)) % n for u in units(n)])
    out: list[CanonicalQuad] = []
    for lo in range(0, len(rows), _FORMS_CHUNK):
        images = rows[lo : lo + _FORMS_CHUNK][:, :, perms]  # [quad, A/B/C/D, unit, entry]
        keys = np.packbits(images.transpose(2, 0, 1, 3) < 0, axis=-1)
        distinct, rank = np.unique(keys.reshape(-1, keys.shape[-1]), axis=0,
                                   return_inverse=True)
        best = distinct[_orbit_minimum(rank.reshape(keys.shape[:3]))]  # [quad, A/B/C/D, byte]
        signs = 1 - 2 * np.unpackbits(best, axis=-1, count=n).astype(np.int64)
        out.extend(CanonicalQuad(DefiningQuad(*map(tuple, quad))) for quad in signs.tolist())
    return out


def canonical_compressed(cq: CompressedQuad, n: int) -> CompressedQuad:
    """Minimum over reorders of Bc, Cc, Dc and index maps j ↦ u·j mod m."""
    m = n // 3
    if n % 3 != 0 or cq.m != m:
        raise InvalidInputError(f"compressed quad length {cq.m} does not match n={n}")
    (best,) = decode_quads(canonical_codes(row_codes([cq.rows()]), m), m)
    return best


def canonical_codes(codes: np.ndarray, m: int) -> np.ndarray:
    """canonical_compressed of every row of an (N × 4) code array, as codes.

    Each distinct row is re-encoded once per unit u (unit_images).  Then, in
    blocks of _CANON_CHUNK quads, every quad looks up its four images under
    each u, sorts the B, C, D codes and keeps the lexicographic minimum over u.
    """
    rows, where = np.unique(codes, return_inverse=True)
    where = where.reshape(codes.shape)
    images = unit_images(rows, m)
    out = np.empty_like(codes)
    for lo in range(0, len(codes), _CANON_CHUNK):
        out[lo : lo + _CANON_CHUNK] = _orbit_minimum(images[:, where[lo : lo + _CANON_CHUNK]])
    return out


def _orbit_minimum(cand: np.ndarray) -> np.ndarray:
    """The lexicographic minimum over axis 0 of a [unit, quad, A/B/C/D]
    array of ordered row keys, once B, C, D are sorted (in place)."""
    for i, j in ((1, 2), (2, 3), (1, 2)):  # sort B, C, D: a 3-input network
        cand[..., i], cand[..., j] = (np.minimum(cand[..., i], cand[..., j]),
                                      np.maximum(cand[..., i], cand[..., j]))
    # lexicographic minimum over units: narrow the tied units column by column
    tied = np.ones(cand.shape[:2], dtype=bool)
    for col in range(4):
        value = np.where(tied, cand[..., col], np.iinfo(cand.dtype).max)
        tied &= value == value.min(axis=0)
    return cand[tied.argmax(axis=0), np.arange(cand.shape[1])]


def unit_images(codes: np.ndarray, m: int) -> np.ndarray:
    """The codes of length-m rows under every index map j ↦ u·j mod m, as a
    (|units(m)| × N) array: entry [k, r] is row r under units(m)[k].

    Row 0 is the identity (u = 1).
    """
    perms = np.array([(u * np.arange(m)) % m for u in units(m)])
    return (_code_digits(codes, m)[:, perms] @ _place_values(m)).T


@lru_cache(maxsize=None)
def compression_units(n: int) -> tuple[int, ...]:
    """The units u modulo n = 3m with u ≡ 1 (mod m), 1 first: 3 of them
    when 9 | n, else 2 (n = 3 has m = 1, so every unit: 1 and 2).

    j ↦ u·j mod n keeps every residue class mod m, so it fixes the
    3-compression of every row, x_0 and the mirror x_{n−j} = ±x_j; it maps
    PAF(k) to PAF(u·k), so it permutes the PAF and PSD columns, and the
    columns k ≢ 0 (mod 3) among themselves (u is prime to 3).
    """
    m = n // 3
    return tuple(u for u in units(n) if (u - 1) % m == 0)


def orbit_minimal(rows: np.ndarray, multipliers: Sequence[int]) -> np.ndarray:
    """Which rows of an (N × L) integer array are the minimum, in row_key
    order, of their orbit under the index maps j ↦ u·j mod L for u in
    multipliers (a group of units mod L), as a bool mask.  A row compares
    with each image at their first differing entry, where row_key puts the
    larger entry first.

    Both cuts of the search use it, and both are exact:

      * match_codes passes its compressed A′ rows and units(m), which
        prepare_instances gives it.  canonical_codes compares A′ first and
        reorders leave A′ alone, so the A′ of every canonical compressed
        quad is orbit-minimal; S_q is closed under the units, so cutting
        its A′ rows to these keeps every class's canonical quad.
      * preimage_table passes the full A preimages of uncompress_all and
        compression_units(n).
        Each such u maps every quad of an instance to a quad of the same
        instance and canonical_form class, and the row bound and the pair
        screen decide both alike (u permutes the PSD planes k ≢ 0 (mod 3)).
        So every orbit of an instance's quads keeps a member whose A is
        orbit-minimal.
    """
    length = rows.shape[1]
    at = np.arange(len(rows))
    keep = np.ones(len(rows), dtype=bool)
    for u in multipliers:
        image = rows[:, (u * np.arange(length)) % length]
        first = (image != rows).argmax(axis=1)  # 0 for a row the map fixes
        keep &= rows[at, first] >= image[at, first]
    return keep


def unique_rows(codes: np.ndarray) -> np.ndarray:
    """np.unique(codes, axis=0) for a 2-D integer array: the distinct rows in
    lexicographic order, by one lexsort and an adjacent-row difference mask."""
    ordered = codes[np.lexsort(codes.T[::-1])]
    keep = np.ones(len(ordered), dtype=bool)
    keep[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return ordered[keep]


def dedup(items: Iterable[T], canonicalizer: Callable[[T], object]) -> list:
    """One representative per canonical form, sorted by the global order."""
    return sorted(set(map(canonicalizer, items)),
                  key=lambda c: c.sort_key() if isinstance(c, CanonicalQuad) else quad_key(c))
