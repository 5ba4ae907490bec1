"""Model comparisons that only the tests use."""
from knotsurgery.knotcx import KnotComplex, chi_graded


def graded_signature(K: KnotComplex):
    """Isomorphism signature for thin models: per-grading dims, |chi|, tau."""
    chi = chi_graded(K)
    if sum(chi.values()) < 0:
        chi = {p: -c for p, c in chi.items()}
    return (tuple(sorted(K.space.dims_by_grading().items())), tuple(sorted(chi.items())), K.tau)
