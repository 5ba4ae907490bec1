"""Exterior-algebra models for surgeries on connected sums of Borromean knots.

Nonzero integral surgeries on the g-fold connected sum give circle bundles
over a genus-g surface; adding lens-space core-knot summands gives Seifert
fibered spaces with nonzero orbifold degree.  All differentials vanish, so
the truncated surgery cone is assembled from monomial submodules of the
exterior algebra on 2g generators: the image at each retained slot is the
span of monomials of degree at least

    min(g - s0(t),  g + s0(t - u))

where s0 collapses a refined lattice index to the base level and u is the
total slope numerator.  The two halves are the low- and high-side
projection images; both are monomial submodules of the same flag, so their
sum is again one.  For Seifert inputs this index law is an extrapolation of
the circle-bundle block computation and is gated by the regression tests
against the unfibered/circle-bundle values; treat it as experimental.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product
from math import comb
from typing import Iterable, Optional

from .cone import PreconditionError, check_lattice_slots

# Size limits, checked before any work starts.  On a 2-vCPU host the module
# pathway takes 0.6 s at genus 200 and 8.5 s at 400.  The Seifert cost grows
# about as genus * prod(v_i), the number of lattice slots the cone walks,
# which these two limits do not bound jointly; cone.MAX_LATTICE_SLOTS does,
# checked on (2W + 1) * |offsets| slots (|offsets| = prod(v_i), W >= genus)
# before each walk.  A genus-2 base with prod(v_i) = 96441 is inside all
# three limits.
MAX_GENUS = 200
MAX_MULTIPLICITY_PRODUCT = 10 ** 5


def _check_genus(g: int):
    if g > MAX_GENUS:
        raise PreconditionError(f"genus {g} exceeds the limit MAX_GENUS = {MAX_GENUS}")


def monomial_dim(g: int, k: int) -> int:
    """Dimension of the degree->=k submodule: sum of binomials C(2g, j), j >= k."""
    if k <= 0:
        k = 0
    if k > 2 * g:
        return 0
    return sum(comb(2 * g, j) for j in range(k, 2 * g + 1))


# --- truncated cone over the exterior-algebra model -------------------------

def _large_applicable(g: int, p: int, u: int, offset_map: dict) -> bool:
    """Whether the direct-sum shortcut is valid for total slope u.

    True when no lattice slot lands strictly between the projection bands,
    i.e. every slot has its low collapse at the genus or beyond, or its
    shifted collapse at minus the genus or below.  For a plain circle bundle
    this reduces to u >= 2g - 1.
    """
    check_lattice_slots((2 * g + 1) * len(offset_map))
    two_p, two_u = 2 * p, 2 * u
    # violations need s0(sigma) <= g - 1 and s0(sigma - 2u) >= 1 - g
    lo = 2 * u + 2 * (1 - g) * p - (p - 1)
    hi = 2 * (g - 1) * p + (p - 1)
    parity = next(iter(offset_map.values())) % 2
    for sigma in range(lo + (lo - parity) % 2, hi + 1, 2):
        off = offset_map.get(sigma % two_p)
        if off is None or (sigma - off) // two_p > g - 1:
            continue
        t = sigma - two_u
        if (t - offset_map[t % two_p]) // two_p >= 1 - g:
            return False
    return True


def _cone_dim_exterior(g: int, p: int, u: int, offset_map: dict) -> int:
    """ker + coker of the truncated cone with all-vanishing differentials.

    Source slots carry the full exterior algebra (dimension 4^g); target
    slots do too; the image inside each retained target is the monomial
    block given by the collapse index law.  Slot sigma collapses to the
    level s0(sigma) = (sigma - offset) // 2p, offset being the lattice
    offset of sigma's residue mod 2p.
    """
    if u <= 0:
        raise PreconditionError("internal: cone expects a positive total slope")
    W = max(g, u // (2 * p) + 1)
    check_lattice_slots((2 * W + 1) * len(offset_map))
    full = 4 ** g
    src_total = (2 * W + 1) * len(offset_map) * full
    tails = [monomial_dim(g, k) for k in range(2 * g + 2)]
    two_p, two_u = 2 * p, 2 * u

    lo = 2 * u + 2 * (-W) * p - (p - 1)
    hi = 2 * W * p + (p - 1)
    parity = next(iter(offset_map.values())) % 2
    tgt_count = 0
    image_total = 0
    for sigma in range(lo + (lo - parity) % 2, hi + 1, 2):
        off = offset_map.get(sigma % two_p)
        if off is None:
            continue
        s_low = (sigma - off) // two_p
        if s_low > W:
            continue
        t = sigma - two_u
        s_high = (t - offset_map[t % two_p]) // two_p
        if s_high < -W:
            continue
        tgt_count += 1
        # image degree min(g - s_low, g + s_high), clamped to 0..2g+1
        k = min(g - s_low, g + s_high, 2 * g + 1)
        image_total += tails[k] if k > 0 else full
    return src_total + tgt_count * full - 2 * image_total


def circle_bundle_dim_module(g: int, m: int) -> int:
    """Circle-bundle dimension over a genus-g surface, module pathway.

    Evaluates the truncated cone with monomial-block images; for
    |m| >= 2g - 1 the cone has no retained targets and collapses to the
    direct sum 4^g * |m|.
    """
    if g < 2:
        raise PreconditionError("module pathway requires genus at least 2")
    _check_genus(g)
    if m == 0:
        raise PreconditionError("Euler number 0 unsupported (zero orbifold degree)")
    mm = abs(m)  # the bundle and its orientation reverse have equal dimensions
    if mm >= 2 * g - 1:
        return (4 ** g) * mm
    return _cone_dim_exterior(g, 1, mm, {0: 0})


def circle_bundle_dim_formula(g: int, m: int) -> int:
    """Closed-form circle-bundle dimension (three cases by parity and size)."""
    if g < 2:
        raise PreconditionError("closed form requires genus at least 2")
    _check_genus(g)
    if m == 0:
        raise PreconditionError("Euler number 0 unsupported (zero orbifold degree)")
    mm = abs(m)
    if mm >= 2 * g - 1:
        return (4 ** g) * mm
    if mm % 2 == 0:
        l = mm // 2
        return ((4 ** g) * mm
                + 4 * sum(comb(2 * g, i) for j in range(1, g - l) for i in range(j))
                + 2 * sum(comb(2 * g, i) for i in range(g - l)))
    l = (mm + 1) // 2
    return ((4 ** g) * mm
            + 4 * sum(comb(2 * g, i) for j in range(1, g - l + 1) for i in range(j)))


def _seifert_offsets(multiplicities: list) -> dict:
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
    if not offsets:
        offsets[0] = 0
    return offsets


def _seifert_setup(g: int, m: int, pairs: Iterable[tuple]) -> tuple:
    """Validate Seifert invariants; return (degree, p, u, offset_map).

    ``degree`` is the orbifold degree m + sum(r_i/v_i) as given.  The rest
    describes the space oriented so the degree is positive (orientation
    reversal flips every invariant and keeps dimensions): p = prod(v_i) and
    u = |degree| * p is the total slope numerator.
    """
    pairs = [(int(r), int(v)) for r, v in pairs]
    if g < 1:
        raise PreconditionError("base genus must be at least 1")
    _check_genus(g)
    for r, v in pairs:
        if v < 1:
            raise PreconditionError(f"multiplicity {v} must be a positive integer")
        if v > 1 and math.gcd(abs(r), v) != 1:
            raise PreconditionError(f"pair {r}/{v} is not reduced")
    for (r1, v1), (r2, v2) in combinations(pairs, 2):
        if math.gcd(v1, v2) != 1:
            raise PreconditionError(
                f"gcd({v1}, {v2}) > 1: multiplicities must satisfy gcd(v_i, v_j) = 1 for i != j")
    multiplicities = [v for _, v in pairs]
    p = math.prod(multiplicities)
    if p > MAX_MULTIPLICITY_PRODUCT:
        raise PreconditionError(f"prod v_i = {p} exceeds the limit "
                                f"MAX_MULTIPLICITY_PRODUCT = {MAX_MULTIPLICITY_PRODUCT}")
    u = m * p + sum((p // v) * r for r, v in pairs)
    if u == 0:
        raise PreconditionError("orbifold degree 0 unsupported (no zero-slope formula here)")
    offset_map = _seifert_offsets(multiplicities) if multiplicities else {0: 0}
    return Fraction(u, p), p, abs(u), offset_map


def seifert_dim(g: int, m: int, pairs: Iterable[tuple]) -> int:
    """Seifert fibered space over a genus-g base with invariants (m, r_i/v_i).

    Requires nonzero orbifold degree m + sum(r_i/v_i), multiplicities
    v_i >= 1 pairwise coprime and each r_i/v_i reduced.  Experimental for
    v_i > 1: the monomial-block index law is extrapolated from the
    circle-bundle computation and gated by regression tests.
    """
    return _seifert_evaluate(g, m, pairs)[1]


def _seifert_evaluate(g: int, m: int, pairs: Iterable[tuple]) -> tuple:
    """(degree, dim, pathway) from one setup: the large-slope shortcut, else the cone."""
    degree, p, u, offset_map = _seifert_setup(g, m, pairs)
    if _large_applicable(g, p, u, offset_map):
        # large-slope regime: direct sum of u full slots
        return degree, u * (4 ** g), "large-surgery"
    return degree, _cone_dim_exterior(g, p, u, offset_map), "cone"


def seifert_dim_large(g: int, m: int, pairs: Iterable[tuple]) -> Optional[int]:
    """Large-slope shortcut value, or None when outside that regime."""
    _, p, u, offset_map = _seifert_setup(g, m, pairs)
    return u * (4 ** g) if _large_applicable(g, p, u, offset_map) else None


def seifert_dim_windowed(g: int, m: int, pairs: Iterable[tuple]) -> int:
    """Force the truncated-cone evaluation even in the large regime."""
    _, p, u, offset_map = _seifert_setup(g, m, pairs)
    return _cone_dim_exterior(g, p, u, offset_map)
