"""Exhaustive enumeration of circulant good matrices of odd order n ≡ 0 (mod 3).

The search pipeline factors the problem as

    rowsums → PSD-filtered candidates → compression matching →
    uncompression by an exact PAF-key join → canonicalization

and every reported matrix is re-certified by exact integer arithmetic plus
the skew Hadamard construction of order 4n.  The paper does the
uncompression step with a SAT solver and a spectral callback; here the
exact join does it, and the paper's CNF encoding of each instance is kept
as a DIMACS exporter (satsearch).

The package exports the names README's Library section lists; everything
else is reached through its module.
"""

from .candidates import generate_candidates
from .diophantine import signed_rowsums
from .equiv import CanonicalQuad, canonical_compressed, canonical_form, dedup
from .errors import GoodmatError
from .matching import match_quadruples
from .pipeline import (
    FilterConfig,
    SearchReport,
    build_skew_hadamard,
    enumerate_good_matrices,
    prepare_instances,
    product_rule_holds,
    recover_amicable,
    verify_definition,
)
from .satsearch import build_instance, solve_all
from .seqcore import DefiningQuad, read_quads, write_quads
from .spectral import paf_certificate

__version__ = "0.1.0"

__all__ = [
    "CanonicalQuad",
    "DefiningQuad",
    "FilterConfig",
    "GoodmatError",
    "SearchReport",
    "build_instance",
    "build_skew_hadamard",
    "canonical_compressed",
    "canonical_form",
    "dedup",
    "enumerate_good_matrices",
    "generate_candidates",
    "match_quadruples",
    "paf_certificate",
    "prepare_instances",
    "product_rule_holds",
    "read_quads",
    "recover_amicable",
    "signed_rowsums",
    "solve_all",
    "verify_definition",
    "write_quads",
    "__version__",
]
