"""Power spectral density, periodic autocorrelation, and the two tests built
on them: the one-sided PSD bound and the exact integer PAF certificate.

For a sequence X of length n and omega = exp(2*pi*i/n),

    PSD_X(k) = |sum_j x_j omega^(j k)|^2        (float, k = 0..floor(n/2)),
    PAF_X(k) = sum_j x_j x_{j+k mod n}          (exact integer).

Both are symmetric about n/2, so profiles store k = 0..floor(n/2) only.
Rows that mirror themselves (x_{n-j} = x_j, or x_{n-j} = -x_j) have a real
closed form over the half basis h = floor(n/2), j = 1..h:

    symmetric:  PSD_X(k) = (x_0 + 2 sum_j x_j cos(2 pi j k / n))^2,
    skew:       PSD_X(k) = x_0^2 + (2 sum_j x_j sin(2 pi j k / n))^2,

which mirror_psd evaluates with one real matmul against half_basis(n).
A quad of defining rows yields good matrices iff sum_X PSD_X(k) = 4n for all
k, equivalently iff sum_X PAF_X(k) = 0 for all 1 <= k <= floor(n/2).  The
filters use the PSD form: any subset of rows must satisfy sum <= 4n, tested
as sum <= 4n + EPS, and a filter that is off tests against the bound +inf,
which every finite PSD value meets.  The final accept/reject decision always
uses the integer PAF form, so floating point can never drop a solution.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import InvalidInputError
from .seqcore import DefiningQuad

#: The one slack of every PSD bound in the pipeline: a filter keeps what
#: stays within 4n + EPS.
EPS = 1e-2


def psd_bound(n: int, enabled: bool) -> float:
    """The bound a PSD filter of order n tests against: 4n + EPS, or +inf,
    which every PSD value meets, when the filter is off."""
    return 4 * n + EPS if enabled else np.inf


@lru_cache(maxsize=None)
def dft_basis(n: int) -> np.ndarray:
    """Complex matrix F with F[j, k] = omega^(j k) for k = 0..floor(n/2).

    X @ F gives the half-spectrum of X; PSD is its squared magnitude.
    """
    j = np.arange(n)[:, None]
    k = np.arange(n // 2 + 1)[None, :]
    return np.exp(2j * np.pi * j * k / n)


def psd_values(x: Sequence[int]) -> np.ndarray:
    """PSD_X(k) for k = 0..floor(n/2) as a float array."""
    spec = np.asarray(x, dtype=np.float64) @ dft_basis(len(x))
    return np.abs(spec) ** 2


@lru_cache(maxsize=None)
def half_basis(n: int) -> np.ndarray:
    """Real (h × 2(h+1)) matrix [2cos | 2sin], h = floor(n/2): entry j-1 of
    column k is 2cos(2 pi j k / n), of column h+1+k it is 2sin(2 pi j k / n),
    for j = 1..h and k = 0..h.
    """
    j = np.arange(1, n // 2 + 1)[:, None]
    k = np.arange(n // 2 + 1)[None, :]
    angle = 2 * np.pi * j * k / n
    return np.hstack([2 * np.cos(angle), 2 * np.sin(angle)])


def mirror_psd(rows: np.ndarray, skew: bool) -> np.ndarray:
    """PSD at k = 0..floor(n/2) of rows of odd length n with x_{n-j} = x_j
    (symmetric) or x_{n-j} = -x_j (skew) for j >= 1, one row per line.

    Only x_0..x_h are read: the mirror half is taken on trust.
    """
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[1]
    h = n // 2
    basis = half_basis(n)[:, h + 1 :] if skew else half_basis(n)[:, : h + 1]
    proj = rows[:, 1 : h + 1] @ basis
    first = rows[:, :1]
    return first**2 + proj**2 if skew else (first + proj) ** 2


def full_psd_sum(x: Sequence[int]) -> float:
    """Sum of PSD_X(k) over ALL k = 0..n-1, expanded from the half profile."""
    n = len(x)
    vals = psd_values(x)
    if n % 2 == 0:
        # k = n/2 is its own mirror image
        return float(vals[0] + vals[-1] + 2.0 * vals[1:-1].sum())
    return float(vals[0] + 2.0 * vals[1:].sum())


def paf(x: Sequence[int], k: int) -> int:
    """Exact periodic autocorrelation at shift k."""
    n = len(x)
    k %= n
    return sum(x[j] * x[(j + k) % n] for j in range(n))


def paf_vector(x: Sequence[int]) -> tuple[int, ...]:
    """PAF_X(k) for k = 0..floor(n/2)."""
    return tuple(paf(x, k) for k in range(len(x) // 2 + 1))


def paf_certificate(quad: DefiningQuad) -> bool:
    """Exact, float-free acceptance test for good matrices.

    True iff PAF_A(k) + PAF_B(k) + PAF_C(k) + PAF_D(k) = 0 for every
    1 <= k <= floor(n/2).  (At k = 0 the sum is 4n automatically for ±1
    rows, so it is not checked.)
    """
    n = quad.n
    if any(len(r) != n for r in quad.rows()):
        raise InvalidInputError("quad rows must have equal lengths")
    a, b, c, d = quad.rows()
    for k in range(1, n // 2 + 1):
        if paf(a, k) + paf(b, k) + paf(c, k) + paf(d, k) != 0:
            return False
    return True


def paf_sums(quads: np.ndarray) -> np.ndarray:
    """PAF_A(k) + PAF_B(k) + PAF_C(k) + PAF_D(k) at k = 1..floor(n/2) of every
    quad of a (Q × 4 × n) array of ±1 entries, exactly, as a (Q × floor(n/2))
    int64 array: a quad passes paf_certificate iff its line is all zero."""
    rows = np.asarray(quads, dtype=np.int64)
    shifts = range(1, rows.shape[-1] // 2 + 1)
    return np.stack([(rows * np.roll(rows, -k, axis=-1)).sum(axis=(1, 2)) for k in shifts], axis=-1)
