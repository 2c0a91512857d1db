"""Brackets, predicates and breadth checks for annular link diagrams.

The package computes the Kauffman bracket of a link presented by a
diagram on an annulus (the complement picture for links in the product
of a circle and a 2-sphere), decides the structural predicates that
the breadth statements hypothesize, and mechanically rechecks those
statements on demand.

Quick start:

    >>> from annulink import bracket_gray, from_braid_closure
    >>> print(bracket_gray(from_braid_closure([1, 1, 1], 2, disk=True)))
    A^7 + A^3 + A^-1 - A^-9
"""

from .analysis import (
    DiagramProfile,
    classify_crossings,
    is_adequate,
    is_alternating,
    is_connected,
    is_in_disk,
    is_quasi_simple,
    is_simple,
    profile,
    state_counts,
    z2_class,
)
from .diagram import (
    AnnularDiagram,
    apply_full_twist,
    from_braid_closure,
    from_disk_pd,
    from_free_loops,
    insert_r1,
    insert_r2,
    mirror_diagram,
    remove_r1,
    remove_r2,
    simplify,
)
from .laurent import DELTA, LaurentPoly
from .skein import (
    MAX_CROSSINGS,
    BracketSizeError,
    alpha,
    bracket,
    bracket_gray,
    bracket_simplified,
    jones,
    resolve,
    state_circles,
    writhe,
)
from .theorems import (
    CheckRecord,
    LinkAssertions,
    NonAlternatingCall,
    VerificationReport,
    check_alternating_equality,
    check_breadth_theorem,
    check_breadth_upper,
    check_state_count_bound,
    classify_nonalternating,
    verify_all,
)

__version__ = "0.1.0"

__all__ = [
    "AnnularDiagram",
    "BracketSizeError",
    "CheckRecord",
    "DELTA",
    "DiagramProfile",
    "LaurentPoly",
    "LinkAssertions",
    "MAX_CROSSINGS",
    "NonAlternatingCall",
    "VerificationReport",
    "alpha",
    "apply_full_twist",
    "bracket",
    "bracket_gray",
    "bracket_simplified",
    "check_alternating_equality",
    "check_breadth_theorem",
    "check_breadth_upper",
    "check_state_count_bound",
    "classify_crossings",
    "classify_nonalternating",
    "from_braid_closure",
    "from_disk_pd",
    "from_free_loops",
    "insert_r1",
    "insert_r2",
    "is_adequate",
    "is_alternating",
    "is_connected",
    "is_in_disk",
    "is_quasi_simple",
    "is_simple",
    "jones",
    "mirror_diagram",
    "profile",
    "remove_r1",
    "remove_r2",
    "resolve",
    "simplify",
    "state_circles",
    "state_counts",
    "verify_all",
    "writhe",
    "z2_class",
]
