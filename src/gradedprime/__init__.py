"""Primeness of finite graded rings, Leavitt path rings and group-ring
filter subrings, decided exhaustively at desk scale.

The public names below are loaded lazily (PEP 562): ``gradedprime.X``
imports the module that defines X on first use, so importing the package,
or one layer of it, does not load the others.
"""

import importlib

_EXPORTS = {
    "errors": "CapError SpecError",
    "finring": """Caps DEFAULT_CAPS FiniteRing Ideal all_ideals generate_ideal gf grpalg ideal_product
        is_fully_idempotent is_prime_ideal is_prime_ring is_s_unital_module make_ring mat product
        subring tri zmod""",
    "grading": """GradedRing GradingClassification all_graded_ideals attach_grading classify_grading
        is_graded_ideal is_graded_m_system is_graded_prime_ideal is_graded_prime_ring trivial_grading""",
    "correspondence": """Report is_g_invariant is_g_prime_base is_g_prime_ideal
        is_identity_generated verify_bijection_ideally_symmetric
        verify_bijection_identity_generated""",
    "groups": "FiniteGroup IntegerGroup Z cyclic symmetric_group",
    "leavitt": """DirectedGraph LeavittContext LpaElement graph is_leavitt_prime lpa_degree
        reachability satisfies_mt3 verify_corner_orthogonality""",
    "grfilter": "GFilter Witness ZRule classify_filter random_element witness_search",
    "specio": "parse_filter_file parse_graded_file parse_graph_file parse_group_spec parse_ring_spec",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_EXPORTS, *_HOME])  # the layer modules and their public names
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
