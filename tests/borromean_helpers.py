"""Explicit oracles for ``borromean``: monomial modules and the listed Seifert lattice.

``MonomialModule`` lists its monomials, so its dimension checks the closed
count ``monomial_dim``, which in turn checks the tail table
``borromean._tail_prefix``.  The graded slices of the sutured space and the
knot-homology dimensions of the g-fold Borromean sum are built from it.
``circle_bundle_dim_double_sum`` is the closed form as a plain double sum,
the reference of the one-pass ``borromean.circle_bundle_dim_formula``.
``seifert_offsets`` lists all prod(v_i) lattice offsets and
``residue_classes`` walks them one by one, so together they check the
per-fibre count ``borromean._residue_class_counts``.
"""
import math
from dataclasses import dataclass
from itertools import combinations, product
from math import comb

from knotsurgery.cone import PreconditionError


def monomial_dim(g: int, k: int) -> int:
    """Dimension of the degree->=k submodule: sum of binomials C(2g, j), j >= k."""
    if k <= 0:
        k = 0
    if k > 2 * g:
        return 0
    return sum(comb(2 * g, j) for j in range(k, 2 * g + 1))


def circle_bundle_dim_double_sum(g: int, m: int) -> int:
    """The closed circle-bundle form with its nested binomial sums written out, O(g^2) terms."""
    mm = abs(m)
    if mm >= 2 * g - 1:
        return (4 ** g) * mm
    row = [comb(2 * g, i) for i in range(2 * g + 1)]
    if mm % 2 == 0:
        l = mm // 2
        return ((4 ** g) * mm
                + 4 * sum(row[i] for j in range(1, g - l) for i in range(j))
                + 2 * sum(row[i] for i in range(g - l)))
    l = (mm + 1) // 2
    return (4 ** g) * mm + 4 * sum(row[i] for j in range(1, g - l + 1) for i in range(j))


@dataclass(frozen=True)
class MonomialModule:
    """Span of a set of exterior monomials in 2g generators."""
    g: int
    monomials: frozenset  # of frozensets of indices in 1..2g

    def __post_init__(self):
        for m in self.monomials:
            if not all(1 <= i <= 2 * self.g for i in m):
                raise PreconditionError("monomial index out of range")

    @classmethod
    def degree_at_least(cls, g: int, k: int) -> "MonomialModule":
        """The submodule spanned by all monomials of degree >= k."""
        if k <= 0:
            k = 0
        gens = range(1, 2 * g + 1)
        monos = [frozenset(c) for d in range(k, 2 * g + 1) for c in combinations(gens, d)]
        return cls(g, frozenset(monos))

    @property
    def dim(self) -> int:
        return len(self.monomials)

    def is_submodule(self) -> bool:
        """Closed under multiplication by every degree-one generator."""
        for m in self.monomials:
            for i in range(1, 2 * self.g + 1):
                if i not in m and frozenset(m | {i}) not in self.monomials:
                    return False
        return True


@dataclass(frozen=True)
class GammaSlice:
    """A labeled graded piece of the sutured space at integer slope n."""
    n: int
    i2: int  # doubled grading
    value: MonomialModule

    @property
    def dim(self) -> int:
        return self.value.dim


def gamma_slice_table(g: int, n: int) -> tuple:
    """All nonzero graded slices at slope n >= 2g, labeled by doubled grading."""
    out = []
    bound = n - 1 + 2 * g
    for i2 in range(-bound, bound + 1):
        if (i2 - (n - 1)) % 2 != 0:
            continue
        mod = gamma_slice(g, n, i2)
        if mod.dim:
            out.append(GammaSlice(n, i2, mod))
    return tuple(out)


def khi_borromean(g: int, i: int) -> int:
    """Knot-homology dimension of the g-fold connected sum at grading i."""
    if abs(i) > g:
        raise PreconditionError(f"grading {i} exceeds genus {g}")
    return comb(2 * g, g + i)


def gamma_slice(g: int, n: int, i2: int) -> MonomialModule:
    """Graded slice of the sutured space at integer suture slope n >= 2g.

    ``i2`` is the doubled grading.  Within the middle band the slice is the
    whole exterior algebra; on the boundary band of width 2g it is the
    monomial module of degree at least |i| + g - (n-1)/2; beyond that it
    vanishes (empty module).
    """
    if g < 1:
        raise PreconditionError("genus must be at least 1")
    if n < 2 * g:
        raise PreconditionError(f"suture slope {n} below the supported range (need n >= {2 * g})")
    if (i2 - (n - 1)) % 2 != 0:
        raise PreconditionError(f"doubled grading {i2} has the wrong parity for slope {n}")
    band2 = n - 1 - 2 * g  # doubled inner-band radius
    if abs(i2) <= band2:
        return MonomialModule.degree_at_least(g, 0)
    k = (abs(i2) + 2 * g - (n - 1)) // 2
    if k > 2 * g:
        return MonomialModule(g, frozenset())
    return MonomialModule.degree_at_least(g, k)


def seifert_offsets(multiplicities: list) -> dict:
    """Residue map for the refined lattice of a multi-core connected sum.

    Each doubled offset is sum(tau_i * p/v_i) with tau_i running over the
    doubled lens gradings |tau_i| <= v_i - 1 of the right parity; pairwise
    coprime multiplicities make the residues mod 2p distinct.
    """
    p = math.prod(multiplicities)
    offsets: dict = {}
    # the terms tau_i * p/v_i, for each i
    choices = [range(-(v - 1) * (p // v), v * (p // v), 2 * (p // v)) for v in multiplicities]
    for off in map(sum, product(*choices)):
        key = off % (2 * p)
        if key in offsets:
            raise PreconditionError("multiplicities are not pairwise coprime")
        offsets[key] = off
    return offsets


def residue_classes(p: int, u: int, offset_map: dict, lo: int, hi: int):
    """(first, last, c) for each residue class of lattice slots in lo..hi.

    The slots of the class of offset off are sigma = off + 2p s: sigma
    collapses to the low level s, and sigma - 2u to the high level s + c,
    where c = (off - 2u - off') / 2p is constant on the class, off' being
    the offset of the residue of off - 2u.  The class meets lo..hi at
    first <= s <= last.
    """
    two_p, two_u = 2 * p, 2 * u
    for off in offset_map.values():
        t = off - two_u
        yield -((off - lo) // two_p), (hi - off) // two_p, (t - offset_map[t % two_p]) // two_p
