"""qpartitions: exact q-series arithmetic, partition oracles, identity checks.

The package is organized around one value type and three layers:

- :mod:`~qpartitions.series` / :mod:`~qpartitions.qobjects`: truncated
  Laurent series over the integers and the q-Pochhammer / Gaussian-binomial
  primitives built on them;
- :mod:`~qpartitions.enumeration`: brute-force counters for restricted
  partitions, overpartitions, and regular partitions;
- :mod:`~qpartitions.closed_forms` / :mod:`~qpartitions.identities`: the
  closed-form generating functions, the identity catalog, and the
  verification engine comparing closed forms against enumeration;
- :mod:`~qpartitions.dsl` / :mod:`~qpartitions.cli`: a small expression
  language and the command-line front end.
"""

import importlib

# public name -> submodule that defines it; a submodule is imported the first
# time one of its names is read, so a CLI child loads only what it runs
_EXPORTS = {
    "series": ("LaurentSeries", "NonInvertibleError", "SeriesError", "WindowError"),
    "qobjects": (
        "Monomial",
        "PochhammerError",
        "euler_qinf",
        "multi_poch_infinite",
        "poch_finite",
        "poch_finite_window",
        "poch_infinite",
        "q_hyper_sum",
        "qbin",
        "qbinomial_theorem_lhs_rhs",
    ),
    "enumeration": (
        "Overpartition",
        "Partition",
        "count_Q",
        "count_a",
        "count_a_diff",
        "count_abar",
        "count_abar_diff",
        "count_areg",
        "count_areg_diff",
        "count_breg",
        "count_breg_diff",
        "count_p",
        "count_p_fixed_diff",
        "count_p_star",
        "count_pbar",
        "count_pbar_diff",
        "count_ubar",
    ),
    "closed_forms": (
        "a2_via_p",
        "a3_via_p",
        "a4_via_p",
        "aG1_via_p",
        "bracket_polynomial",
        "gf_a_m_diff",
        "gf_a_m_sum",
        "gf_a_m_thm",
        "gf_a_m_thm_correction",
        "gf_abar_m",
        "gf_abar_m_alt",
        "gf_areg",
        "gf_areg_l2",
        "gf_breg",
        "gf_pbar",
        "gf_ubar",
        "remark7_rhs",
    ),
    "identities": (
        "Identity",
        "UnknownIdentityError",
        "VerificationReport",
        "bijection_over1",
        "bijection_prop3",
        "bijection_prop3_inverse",
        "registry",
        "verify",
    ),
    "dsl": ("DslEvalError", "DslSyntaxError", "eval_text", "evaluate", "format_ast", "parse"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
