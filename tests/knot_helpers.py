"""Models and model comparisons that only the tests use."""
from knotsurgery.knotcx import KnotComplex, chi_graded


def graded_signature(K: KnotComplex):
    """Isomorphism signature for thin models: per-grading dims, |chi|, tau."""
    chi = chi_graded(K)
    if sum(chi.values()) < 0:
        chi = {p: -c for p, c in chi.items()}
    return (tuple(sorted(K.space.dims_by_grading().items())), tuple(sorted(chi.items())), K.tau)


# Explicit knot spec of staircase(1) plus an isolated generator at grading 0:
# two components with nonzero Euler characteristic, so H(d-) and H(d+) are
# two-dimensional.  It carries no polynomial, so the chi check never runs.
TWO_SURVIVORS_SPEC = {
    "generators": [{"id": "a1", "alex": -1, "z2": 0}, {"id": "a2", "alex": 0, "z2": 1},
                   {"id": "a3", "alex": 1, "z2": 0}, {"id": "extra", "alex": 0, "z2": 0}],
    "d_plus": [["a2", "a3", 1]],
    "d_minus": [["a2", "a1", 1]],
    "genus": 1, "tau": 1,
}
