"""Smooth-word calculus over two-letter integer alphabets.

Words over {a, b} with a < b, the run-length operator and its pseudo-inverses,
the closure/derivative calculus with smoothness testing, middle-word
certification for concatenations and powers, and an exhaustive power census.

The public names load lazily (PEP 562): importing the package loads no
submodule, and ``smoothwords.gamma`` or ``from smoothwords import gamma``
imports ``smoothwords.census`` on first use.  So a CLI command compiles only
the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_SUBMODULE = {
    **dict.fromkeys(
        ["Alphabet", "EPSILON", "Word", "closure", "complement", "delta", "delta_inv",
         "mirror", "word_from_text", "word_to_text"], "core"),
    **dict.fromkeys(
        ["ChainFailure", "DerivativeChain", "REASON_BAD_LETTER",
         "REASON_INTERIOR_RUN", "REASON_RUN_TOO_LONG", "Run", "RunDecomposition",
         "chain_levels", "derivative", "is_differentiable", "is_smooth", "rho",
         "rho_by_formula", "runs", "smooth_chain"], "calculus"),
    **dict.fromkeys(["DsigmaTable", "dsigma_table"], "dsigma"),
    **dict.fromkeys(
        ["ConcatCertificate", "ConcatViolation", "certify_concat", "empirical_middle_set",
         "middle_witness"], "concat"),
    **dict.fromkeys(
        ["IndexPair", "PowerDecomposition", "h_delta", "kolakoski_prefix", "lift",
         "lift_family", "power_decomposition"], "powers"),
    **dict.fromkeys(
        ["CensusReport", "PowerWitness", "enumerate_smooth", "gamma", "scan_powers"],
        "census"),
    "is_smooth_fast": "search",
    **dict.fromkeys(
        ["CertificationError", "NotClosableError", "NotDifferentiableError",
         "WordParseError"], "errors"),
}

__all__ = ["__version__", *_SUBMODULE]


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
