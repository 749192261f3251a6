"""Smooth-word calculus over two-letter integer alphabets.

Words over {a, b} with a < b, the run-length operator and its pseudo-inverses,
the closure/derivative calculus with smoothness testing, middle-word
certification for concatenations and powers, and an exhaustive power census.
"""

__version__ = "0.1.0"

from .core import (Alphabet, EPSILON, Run, RunDecomposition, Word, closure,
                   complement, delta, delta_inv, mirror, runs, word_from_text,
                   word_to_text)
from .calculus import (ChainFailure, DerivativeChain, REASON_BAD_LETTER,
                       REASON_INTERIOR_RUN, REASON_RUN_TOO_LONG, derivative,
                       is_differentiable, is_smooth, rho, rho_by_formula,
                       smooth_chain)
from .concat import (ConcatCertificate, ConcatViolation, DsigmaTable,
                     PowerDecomposition, certify_concat, dsigma_table,
                     empirical_middle_set, middle_witness, power_decomposition)
from .census import (CensusReport, IndexPair, PowerWitness, enumerate_smooth,
                     gamma, h_delta, kolakoski_prefix, lift, lift_family,
                     scan_powers)
from .errors import (CertificationError, NotClosableError,
                     NotDifferentiableError, WordParseError)
from .search import is_smooth_fast

__all__ = [
    "__version__",
    "Alphabet", "EPSILON", "Run", "RunDecomposition", "Word",
    "closure", "complement", "delta", "delta_inv", "mirror", "runs",
    "word_from_text", "word_to_text",
    "ChainFailure", "DerivativeChain", "REASON_BAD_LETTER",
    "REASON_INTERIOR_RUN", "REASON_RUN_TOO_LONG",
    "derivative", "is_differentiable", "is_smooth", "rho", "rho_by_formula",
    "smooth_chain",
    "ConcatCertificate", "ConcatViolation", "DsigmaTable", "PowerDecomposition",
    "certify_concat", "dsigma_table", "empirical_middle_set", "middle_witness",
    "power_decomposition",
    "CensusReport", "IndexPair", "PowerWitness", "enumerate_smooth", "gamma",
    "h_delta", "kolakoski_prefix", "lift", "lift_family", "scan_powers",
    "is_smooth_fast",
    "CertificationError", "NotClosableError", "NotDifferentiableError",
    "WordParseError",
]
