"""Exact rank bounds, verified power-sum certificates, and numeric search
for expressing monomials as sums of k-th powers of forms."""

from .algebra import (
    EMPTY_TOWER,
    ExtensionTower,
    Generator,
    RingElement,
    TowerError,
    cyclotomic_poly,
    roots_of_unity_tower,
    unity_root,
)
from .certfile import (
    CertificateParseError,
    parse,
    read_certificate,
    serialize,
    write_certificate,
)
from .decomp import (
    Certificate,
    CertificateError,
    MalformedCertificateError,
    decompose,
    group_substitute,
    monomial_linear_decomp,
    multiply_cert,
    product_linear,
    special_x04x1x2,
    specialize_cert,
    verify,
)
from .polynomials import Monomial, Polynomial
from .rank import (
    KInstance,
    RankBounds,
    RuleRecord,
    classify,
    compare_bounds,
    monomial_rank,
    reduce_mod_k,
    residue_classes,
)
from .rationals import Q
from .search import (
    SearchProblem,
    SearchResult,
    gradient,
    params_from_certificate,
    residual,
    residual_vector,
    search,
)

__version__ = "0.1.0"

__all__ = [
    "EMPTY_TOWER",
    "Certificate",
    "CertificateError",
    "CertificateParseError",
    "ExtensionTower",
    "Generator",
    "KInstance",
    "MalformedCertificateError",
    "Monomial",
    "Polynomial",
    "Q",
    "RankBounds",
    "RingElement",
    "RuleRecord",
    "SearchProblem",
    "SearchResult",
    "TowerError",
    "classify",
    "compare_bounds",
    "cyclotomic_poly",
    "decompose",
    "gradient",
    "group_substitute",
    "monomial_linear_decomp",
    "monomial_rank",
    "multiply_cert",
    "params_from_certificate",
    "parse",
    "product_linear",
    "read_certificate",
    "reduce_mod_k",
    "residual",
    "residual_vector",
    "residue_classes",
    "roots_of_unity_tower",
    "search",
    "serialize",
    "special_x04x1x2",
    "specialize_cert",
    "unity_root",
    "verify",
    "write_certificate",
]
