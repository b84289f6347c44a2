"""Exhaustive enumeration of circulant good matrices of odd order n ≡ 0 (mod 3).

The search pipeline factors the problem as

    rowsums → PSD-filtered candidates → compression matching →
    uncompression by an exact PAF-key join → canonicalization

and every reported matrix is re-certified by exact integer arithmetic plus
the skew Hadamard construction of order 4n.  The paper's SAT route to the
uncompression step (CNF + CDCL with a spectral theory callback) is kept as
the reference implementation and DIMACS exporter.
"""

from .candidates import CandidateSets, generate_candidates
from .diophantine import RowsumTriple, signed_rowsums, three_squares
from .equiv import CanonicalQuad, canonical_compressed, canonical_form, dedup
from .errors import (
    ConstructionError,
    GoodmatError,
    InfeasibleInstanceError,
    InternalError,
    InvalidInputError,
    ParseError,
    PartialResultError,
    ResourceLimitError,
)
from .matching import match_quadruples
from .pipeline import (
    FilterConfig,
    SearchReport,
    brute_force_oracle,
    build_skew_hadamard,
    circulant,
    enumerate_good_matrices,
    prepare_instances,
    product_rule_holds,
    recover_amicable,
    verify_definition,
)
from .satsearch import (
    Assignment,
    CnfInstance,
    build_instance,
    export_dimacs,
    psd_callback,
    solve_all,
)
from .seqcore import (
    CompressedQuad,
    DefiningQuad,
    compress3,
    format_row,
    parse_row,
    read_quads,
    rowsum,
    write_quads,
)
from .spectral import EPS, paf_certificate

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "CandidateSets",
    "CanonicalQuad",
    "CnfInstance",
    "CompressedQuad",
    "ConstructionError",
    "DefiningQuad",
    "EPS",
    "FilterConfig",
    "GoodmatError",
    "InfeasibleInstanceError",
    "InternalError",
    "InvalidInputError",
    "ParseError",
    "PartialResultError",
    "ResourceLimitError",
    "RowsumTriple",
    "SearchReport",
    "brute_force_oracle",
    "build_instance",
    "build_skew_hadamard",
    "canonical_compressed",
    "canonical_form",
    "circulant",
    "compress3",
    "dedup",
    "enumerate_good_matrices",
    "export_dimacs",
    "format_row",
    "generate_candidates",
    "match_quadruples",
    "paf_certificate",
    "parse_row",
    "prepare_instances",
    "product_rule_holds",
    "psd_callback",
    "read_quads",
    "recover_amicable",
    "rowsum",
    "signed_rowsums",
    "solve_all",
    "three_squares",
    "verify_definition",
    "write_quads",
    "__version__",
]
